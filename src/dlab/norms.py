"""Function-space norms on the Fourier-density model.

A fourier-side GridFunction is interpreted as a spectral density that is
piecewise constant on the frequency cells [xi_k, xi_k + dxi).  Every norm
below is then an exact integral of that density, so dyadic-interval sums
can be carried to all scales: scales finer than a cell and coarser than
the data support are geometric series with closed forms, and only a
finite band of scales needs explicit enumeration.  One batched pass
aggregates any number of lattice offsets (modulations): at scale w an
offset only matters modulo w, so each scale is evaluated once per
distinct residue, and the modulation scan in ell is a single call.

Implemented norms:
  * lhat_norm          -- L^{r'} of the Fourier density
  * morrey_norm        -- hat-Morrey: l^r over dyadic intervals of
                          |I|^{1/q-1/p} * ||fhat||_{L^{q'}(I)}
  * morrey_physical    -- physical-side Morrey M^p_{q,r} (q < p)
  * ell                -- infimum of the hat-Morrey norm over modulations
  * spacetime_norm     -- mixed L^p_x L^q_t norms with an |d/dx|^s weight
plus the exponent calculus (acceptability, the X/Y exponent maps, and the
named presets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .grid import GridFunction, SpaceTimeField, derivative_symbol, physical_rows

EPS_PRESET = 1e-3  # the "sufficiently small" offset in the Z and K presets
_BLOCK = 1 << 17   # entries per (residue, interval) block in _dyadic_aggregate


# ---------------------------------------------------------------------------
# dyadic aggregation core
# ---------------------------------------------------------------------------

def _dyadic_aggregate(cell_vals: np.ndarray, edges: np.ndarray, *, r: float,
                      a: float, b: float, offsets: ArrayLike = (0.0,),
                      window: tuple[int, int] | None = None) -> np.ndarray:
    """l^r aggregate over dyadic intervals of w^a * (int_I dens^b)^{1/b}.

    cell_vals: nonnegative density values, constant on cells edges[i:i+2].
    Returns one value per entry of 'offsets'.  For an offset the intervals
    are [k*w + offset, (k+1)*w + offset) with w = 2^{-j}; the anchor shift
    realizes frequency modulations exactly.

    With window=None the whole bi-infinite scale sum is returned: scales
    finer than a cell and coarser than the support are closed-form
    geometric tails.  With window=(j_min, j_max) only those scales are
    summed (a truncated norm) and no tails are added.

    Offsets with the same residue offset mod w see the same intervals at
    scale j, only relabelled, so each scale is evaluated once per distinct
    residue: the residues form one (residue, interval) array, cut into
    blocks of at most _BLOCK entries, and every offset adds its residue's
    term, in ascending j.
    """
    cell_vals = np.asarray(cell_vals, dtype=np.float64)
    if np.any(cell_vals < 0):
        raise ValueError("density values must be nonnegative")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    widths = np.diff(edges)
    powb = cell_vals ** b
    cum = np.concatenate(([0.0], np.cumsum(powb * widths)))
    total_pow = cum[-1]
    if total_pow == 0.0:
        return np.zeros(offsets.size)

    nz = np.nonzero(cell_vals)[0]
    lo = edges[nz[0]]
    hi = edges[nz[-1] + 1]
    w_cell = float(np.min(widths[nz]))

    use_tails = window is None
    if window is None:
        j_hi = math.ceil(-math.log2(w_cell)) + 2
        # per offset: the coarsest scale whose two anchor intervals do not
        # yet hold the whole support; ceil(log2 R) is exact through frexp
        mant, expo = np.frexp(np.maximum(np.maximum(hi - offsets, offsets - lo), w_cell))
        j_lo = np.minimum(-(expo - (mant == 0.5) + 1), j_hi)
    else:
        if window[0] > window[1]:
            raise ValueError(f"empty scale window {window}")
        j_hi = window[1]
        j_lo = np.full(offsets.size, window[0])

    finite_r = math.isfinite(r)
    acc = np.zeros(offsets.size)
    for j in range(int(j_lo.min()), j_hi + 1):
        w = 2.0 ** (-j)
        first, inv = _residue_classes(offsets, w)
        reps = offsets[first]
        k0 = np.floor((lo - reps) / w)
        n_bounds = int((np.ceil((hi - reps) / w) - k0).max()) + 1
        per_res = np.empty(reps.size)
        rows = max(1, _BLOCK // n_bounds)
        for s in range(0, reps.size, rows):
            blk = slice(s, s + rows)
            # reps + w * (k0 + step), built in place to keep the peak low
            bounds = k0[blk, None] + np.arange(n_bounds)
            bounds *= w
            bounds += reps[blk, None]
            # exact: cum is piecewise linear with nodes at the cell edges
            terms = np.diff(np.interp(bounds, edges, cum), axis=1)
            np.maximum(terms, 0.0, out=terms)
            terms **= 1.0 / b
            terms *= w ** a
            per_res[blk] = (terms ** r).sum(axis=1) if finite_r else terms.max(axis=1)
        # scale j is inside the coarse tail of offsets with j < j_lo
        term = np.where(j_lo <= j, per_res[inv], 0.0)
        acc = acc + term if finite_r else np.maximum(acc, term)

    if use_tails:
        # scales finer than a cell: every interval sees constant density
        sub_exp = a + 1.0 / b
        w_next = 2.0 ** (-(j_hi + 1))
        if finite_r:
            e_sub = r * sub_exp - 1.0
            if e_sub <= 0.0:
                return np.full(offsets.size, math.inf)
            mass_r = float(np.sum(widths * cell_vals ** r))
            acc += mass_r * (w_next ** e_sub) / (1.0 - 2.0 ** (-e_sub))
        else:
            if sub_exp < 0.0:
                return np.full(offsets.size, math.inf)
            vmax = float(np.max(cell_vals))
            acc = np.maximum(acc, vmax if sub_exp == 0.0 else vmax * w_next ** sub_exp)

        # scales coarser than the support: exactly one interval on each
        # side of the anchor carries everything
        below = np.interp(offsets, edges, cum)
        n_plus = np.maximum(total_pow - below, 0.0)
        n_minus = np.maximum(below, 0.0)
        w_prev = 2.0 ** (1.0 - j_lo)
        if finite_r:
            if a >= 0.0:
                return np.full(offsets.size, math.inf)
            halves = n_plus ** (r / b) + n_minus ** (r / b)
            acc += halves * (w_prev ** (a * r)) / (1.0 - 2.0 ** (a * r))
        else:
            if a > 0.0:
                return np.full(offsets.size, math.inf)
            cand = np.maximum(n_plus, n_minus) ** (1.0 / b)
            acc = np.maximum(acc, cand if a == 0.0 else cand * w_prev ** a)

    return acc ** (1.0 / r) if finite_r else acc


def _residue_classes(offsets: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Index of one offset per distinct residue offset mod w, and each
    offset's class (floating mod is exact, so classes are exact)."""
    if offsets.size == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    _, first, inv = np.unique(np.mod(offsets, w), return_index=True, return_inverse=True)
    return first, inv


def _fourier_cells(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    fh = f.to_fourier()
    xi = fh.grid.frequencies()
    edges = np.append(xi, xi[-1] + fh.grid.dxi)
    return np.abs(fh.values), edges


def _physical_cells(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    fp = f.to_physical()
    x = fp.grid.nodes()
    edges = np.append(x, x[-1] + fp.grid.dx)
    return np.abs(fp.values), edges


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def conjugate_exponent(r: float) -> float:
    if r < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r}")
    if r == 1:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


def lhat_norm(f: GridFunction, r: float) -> float:
    """L^{r'} quadrature norm of the Fourier density (r=2 is Plancherel)."""
    rp = conjugate_exponent(r)
    vals, edges = _fourier_cells(f)
    if math.isinf(rp):
        return float(np.max(vals))
    widths = np.diff(edges)
    return float(np.sum(widths * vals ** rp) ** (1.0 / rp))


def morrey_norm(f: GridFunction, p: float, q: float, r: float,
                window: tuple[int, int] | None = None,
                offset: float = 0.0) -> float:
    """Hat-Morrey norm: l^r over dyadic I of |I|^{1/q-1/p}||fhat||_{L^{q'}(I)}.

    'offset' shifts the dyadic lattice, which computes the norm of the
    modulated function P(offset) f without touching the samples.
    """
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    if r <= 0:
        raise ValueError(f"need r > 0, got r={r}")
    if p == q and math.isfinite(r):
        raise ValueError("p == q requires r = inf (norm diverges otherwise)")
    qp = conjugate_exponent(q)
    if math.isinf(qp):
        raise ValueError("q = 1 (local sup norms) is not supported")
    vals, edges = _fourier_cells(f)
    a = (0.0 if math.isinf(q) else 1.0 / q) - 1.0 / p
    return float(_dyadic_aggregate(vals, edges, r=r, a=a, b=qp,
                                   offsets=[offset], window=window)[0])


def morrey_physical(f: GridFunction, p: float, q: float, r: float,
                    window: tuple[int, int] | None = None) -> float:
    """Physical-side Morrey M^p_{q,r}: l^r of |I|^{1/p-1/q}||f||_{L^q(I)}."""
    if not (0 < q <= p):
        raise ValueError(f"need 0 < q <= p, got q={q}, p={p}")
    if p == q and math.isfinite(r):
        raise ValueError("q == p requires r = inf")
    vals, edges = _physical_cells(f)
    a = 1.0 / p - 1.0 / q
    return float(_dyadic_aggregate(vals, edges, r=r, a=a, b=q, window=window)[0])


def sigma_range(alpha: float) -> tuple[float, float]:
    """Admissible (open-left, closed-right) range of sigma for ell."""
    return alpha / (alpha - 1.0), 6.0 * alpha / (3.0 * alpha - 2.0)


def _check_ell_exponents(alpha: float, sigma: float) -> None:
    if not (4.0 / 3.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (4/3, 2), got {alpha}")
    lo, hi = sigma_range(alpha)
    if not (lo < sigma <= hi):
        raise ValueError(f"sigma must lie in ({lo:g}, {hi:g}], got {sigma}")


def ell(f: GridFunction, alpha: float, sigma: float,
        window: tuple[int, int] | None = None) -> tuple[float, float]:
    """Infimum over modulations xi of ||P(xi) f||_{Mhat^alpha_{2,sigma}}.

    Coarse scan at twice the cell spacing across the spectral support,
    all candidates in one batched _dyadic_aggregate pass, then
    golden-section refinement to 1e-6 relative bracket width, one offset
    per step.  Returns (value, minimizer).
    """
    _check_ell_exponents(alpha, sigma)
    vals, edges = _fourier_cells(f)
    if not np.any(vals > 0):
        return 0.0, 0.0
    a = 0.5 - 1.0 / alpha
    qp = 2.0

    def aggregate(offsets: ArrayLike) -> np.ndarray:
        return _dyadic_aggregate(vals, edges, r=sigma, a=a, b=qp,
                                 offsets=offsets, window=window)

    def objective(xi0: float) -> float:
        return float(aggregate([xi0])[0])

    nz = np.nonzero(vals)[0]
    lo, hi = edges[nz[0]], edges[nz[-1] + 1]
    dxi = float(np.min(np.diff(edges)))
    step = 2.0 * dxi
    candidates = np.arange(lo - step, hi + 2 * step, step)
    cand_vals = aggregate(candidates)
    i = int(np.argmin(cand_vals))
    xa = candidates[max(i - 1, 0)]
    xb = candidates[min(i + 1, candidates.size - 1)]

    # golden-section refinement on the bracket
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = xb - invphi * (xb - xa)
    d = xa + invphi * (xb - xa)
    fc, fd = objective(c), objective(d)
    scale = max(abs(xa), abs(xb), 1.0)
    while (xb - xa) > 1e-6 * scale:
        if fc < fd:
            xb, d, fd = d, c, fc
            c = xb - invphi * (xb - xa)
            fc = objective(c)
        else:
            xa, c, fc = c, d, fd
            d = xa + invphi * (xb - xa)
            fd = objective(d)
    best_x = c if fc < fd else d
    best_v = min(fc, fd)
    if cand_vals[i] < best_v:
        best_x, best_v = float(candidates[i]), float(cand_vals[i])
    return float(best_v), float(best_x)


# ---------------------------------------------------------------------------
# exponent calculus
# ---------------------------------------------------------------------------

def _invert(x: float) -> float:
    if x == 0.0:
        return math.inf
    return 1.0 / x


def exponents_X(s: float, r: float) -> tuple[float, float]:
    """Solve 2/p + 1/q = 1/r, -1/p + 2/q = s for (p, q)."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    inv_p = -s / 5.0 + 2.0 * inv_r / 5.0
    inv_q = 2.0 * s / 5.0 + inv_r / 5.0
    return _invert(inv_p), _invert(inv_q)


def exponents_Y(s: float, r: float) -> tuple[float, float]:
    """Solve 2/p + 1/q = 2 + 1/r, -1/p + 2/q = s for (p, q)."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    rhs = 2.0 + inv_r
    inv_p = -s / 5.0 + 2.0 * rhs / 5.0
    inv_q = 2.0 * s / 5.0 + rhs / 5.0
    return _invert(inv_p), _invert(inv_q)


def is_acceptable(s: float, r: float) -> bool:
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    if not (0.0 <= inv_r < 0.75):
        return False
    if inv_r <= 0.5:
        return -inv_r / 2.0 <= s <= 2.0 * inv_r
    return (2.0 * inv_r - 1.25) < s < (2.5 - 3.0 * inv_r)


def is_conjugate_acceptable(s: float, r: float) -> bool:
    return is_acceptable(1.0 - s, conjugate_exponent(r))


def preset_s(name: str, alpha: float, eps: float = EPS_PRESET) -> float:
    """Derivative order s for the named exponent presets."""
    table = {
        "S": 0.0,
        "L": 1.0 / (3.0 * alpha),
        "N": 1.0 / (3.0 * alpha),
        "Z": 2.5 - 3.0 / alpha - eps,
        "K": 2.0 / alpha - 1.25 + eps,
    }
    if name not in table:
        raise ValueError(f"unknown preset {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# NormSpec
# ---------------------------------------------------------------------------

KINDS = ("lhat", "morrey_hat", "ell", "spacetime_X", "spacetime_Y")


@dataclass
class NormSpec:
    kind: str
    p: float = math.nan
    q: float = math.nan
    r: float = math.nan
    s: float = 0.0
    sigma: float = math.nan
    j_min: int | None = None
    j_max: int | None = None
    preset: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")

    @classmethod
    def from_preset(cls, name: str, alpha: float) -> "NormSpec":
        kind = "spacetime_Y" if name == "N" else "spacetime_X"
        return cls(kind=kind, r=alpha, s=preset_s(name, alpha), preset=name)

    @property
    def window(self) -> tuple[int, int] | None:
        if self.j_min is None or self.j_max is None:
            return None
        return (self.j_min, self.j_max)

    def serialize(self) -> str:
        pairs = [("kind", self.kind)]
        for key in ("p", "q", "r", "s", "sigma"):
            val = getattr(self, key)
            if not math.isnan(val):
                pairs.append((key, repr(float(val))))
        for key in ("j_min", "j_max"):
            val = getattr(self, key)
            if val is not None:
                pairs.append((key, str(val)))
        if self.preset is not None:
            pairs.append(("preset", self.preset))
        return "\n".join(f"{k}={v}" for k, v in pairs)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        kwargs = {}
        for line in text.replace(",", "\n").splitlines():
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed norm spec line {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in ("kind", "preset"):
                kwargs[key] = val
            elif key in ("j_min", "j_max"):
                kwargs[key] = int(val)
            elif key in ("p", "q", "r", "s", "sigma"):
                kwargs[key] = math.inf if val in ("inf", "Inf") else float(val)
            else:
                raise ValueError(f"unknown norm spec key {key!r}")
        if "kind" not in kwargs:
            raise ValueError("norm spec must declare kind=")
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def spacetime_norm(field: SpaceTimeField, spec: NormSpec) -> float:
    """Mixed L^p_x L^q_t norm of |d/dx|^s F over the field's time window."""
    if len(field) == 0:
        raise ValueError("empty field")
    if spec.kind == "spacetime_X":
        p, q = exponents_X(spec.s, spec.r)
    elif spec.kind == "spacetime_Y":
        p, q = exponents_Y(spec.s, spec.r)
    else:
        raise ValueError(f"spacetime_norm got a {spec.kind!r} spec")
    if p <= 0 or q <= 0:
        raise ValueError(f"nonpositive mixed exponents (p,q)=({p},{q})")
    if len(field) == 1 and math.isfinite(q):
        raise ValueError("single-frame field has no time measure for q < inf")

    g = field.grid
    symbol = derivative_symbol(g.frequencies(), spec.s) if spec.s != 0.0 else None
    arr = np.abs(physical_rows(g, field.values, symbol=symbol))  # (n_t, n_x)

    if math.isfinite(q):
        arr **= q
        inner = np.trapezoid(arr, field.times, axis=0) ** (1.0 / q)
    else:
        inner = np.max(arr, axis=0)
    if math.isfinite(p):
        return float(np.sum(inner ** p * field.grid.dx) ** (1.0 / p))
    return float(np.max(inner))


# ---------------------------------------------------------------------------
# interpolation check (physical Morrey)
# ---------------------------------------------------------------------------

def morrey_interpolation_check(f: GridFunction, p: float, q: float,
                               r: float, s: float) -> float:
    """Ratio ||f||_{M^p_{q,r}} / (||f||_{M^p_{s,inf}}^{1-p/r} ||f||_{M^p_{p,inf}}^{p/r})."""
    if not (0 < q < p < r < math.inf):
        raise ValueError(f"need 0 < q < p < r < inf, got {(q, p, r)}")
    theta = p / r
    lhs_cond = (1.0 / s) * (1.0 - theta) + (1.0 / p) * theta
    if not (lhs_cond < 1.0 / q):
        raise ValueError(
            "interpolation hypothesis violated: "
            f"(1/s)(1-p/r) + (1/p)(p/r) = {lhs_cond:g} must be < 1/q = {1.0 / q:g}"
        )
    num = morrey_physical(f, p, q, r)
    den_a = morrey_physical(f, p, s, math.inf)
    den_b = morrey_physical(f, p, p, math.inf)
    if num == 0.0:
        return 0.0
    return num / (den_a ** (1.0 - theta) * den_b ** theta)
