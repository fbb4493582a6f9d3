"""Whitney pairs, restriction-type ratios, and greedy profile extraction.

The extractor mirrors the two-step concentration procedure numerically:
a dyadic-interval selector locates the scale and modulation of the most
concentrated frequency block, a space-time scan of the free evolution of
that block locates the remaining translation parameters, and greedy
subtraction yields a decomposition u = sum_j apply(G_j, psi_j) + r that
reconstructs the input exactly by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import FOURIER, GridFunction, derivative_symbol, physical_rows
from .deformations import (Deformation, apply, apply_inverse, nonresonance_gap,
                           orthogonality_gap)
from .norms import conjugate_exponent, ell, morrey_norm


# ---------------------------------------------------------------------------
# Whitney-type decomposition off the diagonals xi = +-eta
# ---------------------------------------------------------------------------

def _adjacent(k: int, kp: int) -> bool:
    return abs(k - kp) <= 1

def _reflect(k: int) -> int:
    # -[k w, (k+1) w) = [(-k-1) w, -k w)
    return -k - 1

def _parent(k: int) -> int:
    return k // 2


def _whitney_related(k: int, kp: int) -> bool:
    """Same-scale intervals k, kp are a pair iff they are separated at
    their own scale from each other and from the reflection, but their
    parents are not."""
    if _adjacent(k, kp) or _adjacent(k, _reflect(kp)):
        return False
    pk, pkp = _parent(k), _parent(kp)
    return _adjacent(pk, pkp) or _adjacent(pk, _reflect(pkp))


@dataclass(frozen=True)
class WhitneyPair:
    """Pair of same-width dyadic intervals [k 2^j, (k+1) 2^j)."""

    j: int
    k: int
    k_prime: int


def whitney_pairs(j_min: int, j_max: int, xi_max: float) -> list[WhitneyPair]:
    """All pairs with scales j in [j_min, j_max] inside [-xi_max, xi_max).

    O(K) per scale, K = 2 ceil(xi_max 2^-j) intervals.  A partner k' of k
    has its parent adjacent to the parent p = k // 2 of k or to its
    reflection -p-1, so k' lies in [2p-2, 2p+3] or in [-2p-4, -2p+1].
    Only these <= 12 candidates are tested, in ascending order, so the
    list and its order are those of testing every (k, k') pair.
    """
    if j_min > j_max:
        raise ValueError("empty scale window")
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ValueError(f"xi_max must be finite and positive, got {xi_max}")
    pairs = []
    for j in range(j_min, j_max + 1):
        k_hi = int(math.ceil(xi_max / 2.0 ** j))
        for k in range(-k_hi, k_hi):
            p = _parent(k)
            near = {*range(2 * p - 2, 2 * p + 4), *range(-2 * p - 4, -2 * p + 2)}
            for kp in sorted(near):
                if -k_hi <= kp < k_hi and _whitney_related(k, kp):
                    pairs.append(WhitneyPair(j, k, kp))
    return pairs


def whitney_scale(xi: float, eta: float) -> int:
    """The unique scale at which (xi, eta) is covered by a pair.

    Adjacency of the containing intervals (to each other or to the
    reflection) is monotone in the scale; the pair lives one scale below
    the coarsest non-adjacent level.
    """
    if not (math.isfinite(xi) and math.isfinite(eta)):
        raise ValueError(f"point ({xi}, {eta}) is not finite")
    if xi == eta or xi == -eta:
        raise ValueError("points on the diagonals are not covered")
    j = -60
    while True:
        k = math.floor(xi / 2.0 ** j)
        kp = math.floor(eta / 2.0 ** j)
        if _adjacent(k, kp) or _adjacent(k, _reflect(kp)):
            return j - 1
        j += 1
        if j > 60:
            raise RuntimeError("scale search did not terminate")


def partition_check(pairs: list[WhitneyPair], samples: np.ndarray) -> dict:
    """Indicator-sum statistics at off-diagonal sample points.

    Only samples whose covering scale falls inside the scale range of
    `pairs` are counted; for those the sum must be exactly 1.
    """
    if len(pairs) == 0:
        raise ValueError("no pairs supplied")
    j_lo = min(p.j for p in pairs)
    j_hi = max(p.j for p in pairs)
    by_scale: dict[int, set] = {}
    for p in pairs:
        by_scale.setdefault(p.j, set()).add((p.k, p.k_prime))
    counted = 0
    bad = 0
    for xi, eta in samples:
        j = whitney_scale(float(xi), float(eta))
        if not (j_lo <= j <= j_hi):
            continue
        w = 2.0 ** j
        key = (math.floor(xi / w), math.floor(eta / w))
        total = 1 if key in by_scale.get(j, ()) else 0
        # any other scale contributing would break the partition
        for jj in range(j_lo, j_hi + 1):
            if jj == j:
                continue
            ww = 2.0 ** jj
            if (math.floor(xi / ww), math.floor(eta / ww)) in by_scale.get(jj, ()):
                total += 1
        counted += 1
        if total != 1:
            bad += 1
    return {"counted": counted, "bad": bad, "passed": bad == 0 and counted > 0}


def partner_counts(pairs: list[WhitneyPair], j: int, k_interior: int) -> dict[int, int]:
    """Partner count per interval k with |k| <= k_interior at scale j."""
    counts: dict[int, int] = {}
    for p in pairs:
        if p.j == j and abs(p.k) <= k_interior:
            counts[p.k] = counts.get(p.k, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# refined restriction-type ratio
# ---------------------------------------------------------------------------

def airy_frames(f: GridFunction, t_grid: np.ndarray, deriv: float) -> np.ndarray:
    """|d/dx|^deriv e^{-t d^3/dx^3} f at every t of t_grid: (nt, n) physical samples."""
    fh = f.to_fourier()
    xi = fh.grid.frequencies()
    return physical_rows(fh.grid, fh.values, FOURIER, symbol=derivative_symbol(xi, deriv),
                         times=t_grid, dispersion=xi ** 3)


def stein_tomas_ratio(f: GridFunction, alpha: float, sigma: float,
                      time_window: float, nt: int = 257,
                      tail_tol: float = 0.01) -> float:
    """L^{3a}_{t,x} norm of the weighted free evolution over the Morrey norm.

    The time integral runs over [-2 time_window, 2 time_window] with 2nt-1
    samples; the run is rejected if the norm over the middle nt samples,
    which are [-time_window, time_window] at the same spacing, differs from
    it by more than tail_tol relatively.  nt must be odd.
    """
    if not (4.0 / 3.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (4/3, 2)")
    if nt % 2 == 0:
        raise ValueError(f"nt must be odd, got {nt}")
    denom = morrey_norm(f, alpha, 2.0, sigma)
    if denom == 0.0:
        return 0.0
    exponent = 3.0 * alpha
    t2 = np.linspace(-2.0 * time_window, 2.0 * time_window, 2 * nt - 1)
    space = np.abs(airy_frames(f, t2, 1.0 / exponent))
    space **= exponent
    space = np.sum(space, axis=1) * f.grid.dx
    mid = slice((nt - 1) // 2, (nt - 1) // 2 + nt)
    num1 = float(np.trapezoid(space[mid], t2[mid]) ** (1.0 / exponent))
    num2 = float(np.trapezoid(space, t2) ** (1.0 / exponent))
    if num1 > 0 and abs(num2 - num1) / num1 > tail_tol:
        raise ValueError(
            f"time window {time_window} too short: doubling moved the norm by "
            f"{abs(num2 - num1) / num1:.2%}; retry with window {4 * time_window}")
    return num2 / denom


# ---------------------------------------------------------------------------
# decoupling ledger
# ---------------------------------------------------------------------------

def decoupling_check(u_list: list[GridFunction], psi: GridFunction,
                     gammas: list[Deformation], gamma: float, xi0: float,
                     alpha: float, sigma: float) -> list[dict]:
    """Per-index deficit of the modulated-norm decoupling inequality.

    deficit = gamma*||P(xi0) u||^sigma - ||P(xi0) G psi||^sigma
                                       - ||P(xi0) r||^sigma
    with r = u - apply(G, psi); the deficit should become nonnegative as
    the deformation parameters diverge.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    if len(u_list) != len(gammas):
        raise ValueError("one deformation per input required")
    rows = []
    for u, g in zip(u_list, gammas):
        piece = apply(g, psi, d_exponent=alpha)
        r = u - piece
        nu = morrey_norm(u, alpha, 2.0, sigma, offset=xi0)
        npsi = morrey_norm(piece, alpha, 2.0, sigma, offset=xi0)
        nr = morrey_norm(r, alpha, 2.0, sigma, offset=xi0)
        lhs = gamma * nu ** sigma
        rhs = npsi ** sigma + nr ** sigma
        rows.append({
            "lhs": lhs, "term_profile": npsi ** sigma, "term_residual": nr ** sigma,
            "deficit": lhs - rhs,
        })
    return rows


# ---------------------------------------------------------------------------
# greedy profile extraction
# ---------------------------------------------------------------------------

def _selector(f: GridFunction, alpha: float,
              fixed_j: int | None = None) -> tuple[float, int, int]:
    """Best dyadic interval of the scale-weighted local Fourier norm.

    Maximizes |I|^{-1/(3a)} * ||fhat||_{L^b(I)} with b = (3a/2)' over
    dyadic I = [k 2^j, (k+1) 2^j); returns (value, j, k).  With fixed_j
    only intervals of that scale compete.
    """
    fh = f.to_fourier()
    g = fh.grid
    dens = np.abs(fh.values)
    b = conjugate_exponent(1.5 * alpha)
    cell = dens ** b * g.dxi
    xi_left = g.frequencies()
    j0 = int(round(math.log2(g.dxi)))
    if abs(math.log2(g.dxi) - j0) > 1e-9:
        raise ValueError("frequency spacing must be a power of two")
    j_top = j0 + int(round(math.log2(g.n)))  # widest interval covers the span
    scales = range(j0, j_top + 1) if fixed_j is None else [fixed_j]
    best = (0.0, fixed_j if fixed_j is not None else j0, 0)
    for j in scales:
        w = 2.0 ** j
        idx = np.floor(xi_left / w + 1e-12).astype(int)
        # group-sum the cell masses by interval index
        uniq, inv = np.unique(idx, return_inverse=True)
        mass = np.bincount(inv, weights=cell)
        vals = w ** (-1.0 / (3.0 * alpha)) * mass ** (1.0 / b)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), j, int(uniq[i]))
    return best


def _band_restrict(f: GridFunction, j: int, k: int,
                   clip: float | None = None) -> GridFunction:
    fh = f.to_fourier()
    xi = fh.grid.frequencies()
    w = 2.0 ** j
    mask = (xi >= k * w - 1e-12) & (xi < (k + 1) * w - 1e-12)
    vals = np.where(mask, fh.values, 0.0)
    if clip is not None:
        mag = np.abs(vals)
        over = mag > clip
        vals = np.where(over, vals * (clip / np.where(over, mag, 1.0)), vals)
    return GridFunction(fh.grid, vals, FOURIER)


def _spacetime_argmax(f: GridFunction, alpha: float, t_scan: float,
                      nt: int = 257) -> tuple[float, float]:
    """(t*, x*) maximizing | |d/dx|^{1/(3a)} e^{-t d^3/dx^3} f |."""
    t_grid = np.linspace(-t_scan, t_scan, nt)
    mag = np.abs(airy_frames(f, t_grid, 1.0 / (3.0 * alpha)))
    it, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return float(t_grid[it]), float(f.grid.x0 + ix * f.grid.dx)


@dataclass
class ProfileDecomposition:
    profiles: list[tuple[GridFunction, list[Deformation]]]
    residuals: list[GridFunction]
    diagnostics: dict = field(default_factory=dict)


def _default_t_scan(j: int, k: int, nt: int) -> float:
    """Scan half-width keeping the Airy phase spread across the band
    resolved by the nt time samples."""
    w = 2.0 ** j
    lo, hi = abs(k) * w, (abs(k) + 1) * w
    spread = abs(hi ** 3 - lo ** 3)
    if spread == 0.0:
        return 10.0
    return min(10.0, 0.25 * nt / spread)


def extract_profile(u_list: list[GridFunction], alpha: float, c_eps: float = 1e6,
                    t_scan: float | None = None, nt: int = 257
                    ) -> tuple[GridFunction, list[Deformation], list[GridFunction], dict]:
    """One greedy extraction step over the whole sequence.

    Per index: the dyadic selector fixes (h, xi), the space-time argmax of
    the free evolution of the clipped band fixes (s, y); psi averages the
    pulled-back bands of the best few indices and r = u - apply(G, psi).
    t_scan=None picks a per-band window that the nt samples can resolve.
    """
    if len(u_list) == 0:
        raise ValueError("empty input sequence")
    free = [_selector(u, alpha) for u in u_list]
    if max(s for s, _, _ in free) == 0.0:
        zero = GridFunction(u_list[0].grid,
                            np.zeros(u_list[0].grid.n, complex), FOURIER)
        return zero, [Deformation(0)] * len(u_list), list(u_list), {
            "selector": [0.0] * len(u_list), "degenerate": True}
    # lock every index to the scale of the strongest detection so that the
    # pulled-back pieces (and the reconstruction grids) agree
    lead_j = free[int(np.argmax([s for s, _, _ in free]))][1]
    gammas = []
    scores = []
    bands = []
    for u in u_list:
        score, j, k = _selector(u, alpha, fixed_j=lead_j)
        w = 2.0 ** j
        clip = c_eps * w ** (-1.0 / conjugate_exponent(alpha))
        clipped = _band_restrict(u, j, k, clip=clip)
        half = t_scan if t_scan is not None else _default_t_scan(j, k, nt)
        t_star, x_star = _spacetime_argmax(clipped, alpha, half, nt)
        gam = Deformation(j, xi=float(-k), s=-(w ** 3) * t_star, y=w * x_star)
        gammas.append(gam)
        scores.append(score)
        bands.append(_band_restrict(u, j, k))

    # average the pulled-back bands over the strongest indices
    order = np.argsort(scores)[::-1]
    take = [i for i in order][:3]
    pulled = [apply_inverse(gammas[i], bands[i], d_exponent=alpha) for i in take]
    acc = pulled[0].values.copy()
    for p in pulled[1:]:
        if not p.grid.close_to(pulled[0].grid):
            raise ValueError("pulled-back grids disagree")
        acc = acc + p.values
    psi = GridFunction(pulled[0].grid, acc / len(pulled), pulled[0].side)
    residuals = [u - apply(g, psi, d_exponent=alpha)
                 for u, g in zip(u_list, gammas)]
    return psi, gammas, residuals, {"selector": scores, "degenerate": False}


def profile_decompose(u_list: list[GridFunction], alpha: float, sigma: float,
                      j_max: int = 4, eps_stop: float = 1e-3,
                      merge_gap: float = 10.0, **kwargs) -> ProfileDecomposition:
    """Greedy iteration of extract_profile on the running residuals.

    Stops at j_max profiles or when the selector drops below eps_stop.
    Extractions that stay within merge_gap of an earlier one in the
    orthogonality functional but are nonresonance-close are reported as
    conjugate pairs with multiplicity 2 in the decoupling ledger.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    current = list(u_list)
    profiles: list[tuple[GridFunction, list[Deformation]]] = []
    selectors = []
    while len(profiles) < j_max:
        psi, gammas, residuals, diag = extract_profile(current, alpha, **kwargs)
        if diag.get("degenerate") or max(diag["selector"]) < eps_stop:
            break
        profiles.append((psi, gammas))
        selectors.append(max(diag["selector"]))
        current = residuals

    n_last = len(u_list) - 1
    gaps_orth = np.zeros((len(profiles), len(profiles)))
    gaps_nonres = np.zeros_like(gaps_orth)
    for a in range(len(profiles)):
        for b in range(len(profiles)):
            if a != b:
                ga, gb = profiles[a][1][n_last], profiles[b][1][n_last]
                gaps_orth[a, b] = orthogonality_gap(ga, gb)
                gaps_nonres[a, b] = nonresonance_gap(ga, gb)

    # conjugate pairing: orthogonal as sequences but resonant in absolute
    # frequency means a mirrored copy of the same real profile
    multiplicity = [1] * len(profiles)
    paired_away = set()
    for a in range(len(profiles)):
        for b in range(a + 1, len(profiles)):
            if b in paired_away or a in paired_away:
                continue
            if gaps_orth[a, b] > merge_gap and gaps_nonres[a, b] < merge_gap:
                multiplicity[a] = 2
                paired_away.add(b)

    ell_u = ell(u_list[n_last], alpha, sigma)[0]
    ledger_sum = 0.0
    entries = []
    for idx, (psi, gammas) in enumerate(profiles):
        if idx in paired_away:
            continue
        c = multiplicity[idx]
        lv = ell(psi, alpha, sigma)[0] * c
        entries.append({"index": idx, "c": c, "ell": lv,
                        "contribution": c ** (1.0 - sigma) * lv ** sigma})
        ledger_sum += c ** (1.0 - sigma) * lv ** sigma
    ell_r = ell(current[n_last], alpha, sigma)[0] if current else 0.0
    diagnostics = {
        "selector_values": selectors,
        "orthogonality_gaps": gaps_orth,
        "nonresonance_gaps": gaps_nonres,
        "ledger_entries": entries,
        "ledger_sum": ledger_sum,
        "ell_input": ell_u,
        "ell_residual": ell_r,
    }
    return ProfileDecomposition(profiles, current, diagnostics)
