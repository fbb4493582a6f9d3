"""Function-space norms on the Fourier-density model.

A fourier-side GridFunction is interpreted as a spectral density that is
piecewise constant on the frequency cells [xi_k, xi_k + dxi).  Every norm
below is then an exact integral of that density, so dyadic-interval sums
can be carried to all scales: scales finer than a cell and coarser than
the data support are geometric series with closed forms, and only a
finite band of scales needs explicit enumeration.  One pass over one
array of intervals aggregates every such scale for any number of lattice
offsets (modulations): at scale w an offset only matters modulo w, so
each scale is evaluated once per distinct residue, and the modulation
scan in ell is a single call on a density prepared once.  At r = inf the
pass also finds each scale's maximising interval: the profile selector.

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

from .grid import GridFunction, SpaceTimeField, derivative_symbol, map_row_blocks

EPS_PRESET = 1e-3  # the "sufficiently small" offset in the Z and K presets
_BLOCK = 1 << 17   # entries per chunk of _scale_terms' interval array
_WINDOW_SCALES = (-1022, 1023)  # window scales j with 2^j a normal float
# intervals one offset may see over a window's scales: 32x the most
# (2^15) that a window=None aggregate of the test suite or perfbench sees
_MAX_WINDOW_INTERVALS = 1 << 20
# the fixed cost of one _dyadic_aggregate pass, in interval bounds: about
# 0.1 ms against about 20 ns per bound (2-core x86-64, numpy 2.4)
_PASS_ENTRIES = 5000
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


# ---------------------------------------------------------------------------
# dyadic aggregation core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Density:
    """A cell density prepared for _dyadic_aggregate at exponents (r, b):
    what every aggregate of it needs, built once (see _prepare_density)."""
    edges: np.ndarray
    cum: np.ndarray   # int dens^b from edges[0] to each edge
    r: float
    b: float
    lo: float         # the nonzero cells span [lo, hi)
    hi: float
    w_cell: float     # the finest nonzero cell
    fine: float       # sum(width * dens^r), or max dens for r = inf
    gap_lo: np.ndarray  # the wide gaps [gap_lo, gap_hi) of cum inside [lo, hi)
    gap_hi: np.ndarray


def _prepare_density(cell_vals: np.ndarray, edges: np.ndarray, *, r: float,
                     b: float) -> _Density:
    """cell_vals: density values, constant on cells edges[i:i+2].

    Besides the cumulative integral cum, its support [lo, hi) and the finest
    cell, this finds the wide gaps: maximal stretches of cells between two
    cells that move cum, across which cum does not change (zeros, or cells
    too small to change the sum), and that are wide enough to skip.  The
    cells that move cum form runs between them; a density with one run
    (every planted and extracted profile) has no gap.  A flat stretch at
    either end of [lo, hi) stays inside the support.
    """
    cell_vals = np.asarray(cell_vals, dtype=np.float64)
    if not np.all((cell_vals >= 0.0) & (cell_vals < math.inf)):
        raise ValueError("density values must be finite and nonnegative")
    widths = np.diff(edges)
    cum = np.concatenate(([0.0], np.cumsum(cell_vals ** b * widths)))
    nz = np.nonzero(cell_vals)[0]
    if nz.size == 0:
        return _Density(edges, cum, r, b, 0.0, 0.0, 0.0, 0.0, np.empty(0), np.empty(0))
    fine = float(np.sum(widths * cell_vals ** r)) if math.isfinite(r) else float(np.max(cell_vals))
    lo, hi, w_cell = float(edges[nz[0]]), float(edges[nz[-1] + 1]), float(np.min(widths[nz]))
    moves = np.flatnonzero(cum[1:] != cum[:-1])
    cut = np.flatnonzero(np.diff(moves) > 1)
    gap_lo, gap_hi = edges[moves[cut] + 1], edges[moves[cut + 1]]
    # kept: the gaps that some row can skip (8 bounds need 2 cells at the
    # finest scale, w_cell / 4) and that save per pass more than their
    # bookkeeping costs; a gap narrower than a sixteenth of the support
    # saves under a sixteenth of a pass, and at most 15 gaps are kept
    wide = gap_hi - gap_lo >= max(2.0 * w_cell, (hi - lo) / 16.0)
    return _Density(edges, cum, r, b, lo, hi, w_cell, fine, gap_lo[wide], gap_hi[wide])


def _check_window(dens: _Density, window: tuple[int, int]) -> None:
    """Refuse a window that is empty, leaves the normal floats, or gives one
    offset more than _MAX_WINDOW_INTERVALS intervals to evaluate."""
    j_min, j_max = window
    if j_min > j_max:
        raise ValueError(f"empty scale window {window}")
    if j_min < _WINDOW_SCALES[0] or j_max > _WINDOW_SCALES[1]:
        raise ValueError(f"norm window scales must lie in {list(_WINDOW_SCALES)}, got {window}")
    # at scale j an offset sees at most ceil(span 2^j) + 1 intervals of the
    # support, span = hi - lo = num / den exactly; counted in integers from
    # the finest scale down, where once a scale sees 2, every coarser one does
    (n_hi, d_hi), (n_lo, d_lo) = dens.hi.as_integer_ratio(), dens.lo.as_integer_ratio()
    num, den = n_hi * d_lo - n_lo * d_hi, d_hi * d_lo
    count = 0
    for j in range(j_max, j_min - 1, -1):
        top, bottom = (num << j, den) if j >= 0 else (num, den << -j)
        n = -(-top // bottom) + 1
        if n <= 2:
            count += n * (j - j_min + 1)
            break
        count += n
        if count > _MAX_WINDOW_INTERVALS:
            break
    if count > _MAX_WINDOW_INTERVALS:
        raise ValueError(f"norm window {window} holds more than {_MAX_WINDOW_INTERVALS} "
                         "dyadic intervals of the support per offset")


def _scale_terms(dens: _Density, *, a: float, offsets: np.ndarray, j_lo: np.ndarray,
                 j_hi: int) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Terms of a nonzero density per scale min(j_lo)..j_hi (rows, coarsest
    first; 0 below an offset's j_lo) and offset: the sum of t_I^r, t_I = w^a
    (int_I dens^b)^{1/b}, or for r = inf the largest t_I and in peak_k (else
    None) the first k with I = [k w + offset, (k+1) w + offset) attaining it.
    The third value is the number of interval bounds evaluated.

    Offsets with the same residue offset mod w see the same intervals at
    scale j, only relabelled, so each (scale, residue) pair is one row,
    evaluated at the class's first offset over just the intervals that
    meet the support.  Inside the support a row also skips the interior of
    each gap of the density (see _prepare_density) that holds at least 8 of
    its bounds k w + rep: it keeps the first two and the last two, and the
    step across the skipped ones is a difference of two equal values of
    cum, exactly 0, as each skipped interval's step was.  Where a gap holds
    fewer, the runs on both sides are evaluated as one, so a density
    without gaps, and every row too coarse to skip one, keeps every
    interval that meets the support, and its bits.  The pieces of a row are
    consecutive in the bound array, and the row stays one reduceat segment.

    The bounds k w + rep of all rows go into one array, cut into chunks of
    at most _BLOCK entries only when larger, and one interp of the
    cumulative integral and one diff give every interval's integral.  The
    power steps^{r/b} is masked to the positive steps: it skips the exact
    zeros (most fine-scale steps of an FFT-made density, on which pow is
    slow), the roundoff negatives, and the step from one row's last bound
    (past the support) to the next row's first (before it), which is
    -int dens^b.  reduceat sums each row, scaled by w^{a r} (for r = inf:
    the row's largest step^{1/b}, scaled by w^a).
    """
    r, b = dens.r, dens.b
    finite_r = math.isfinite(r)
    scales = np.arange(j_lo.min(), j_hi + 1)
    w = np.ldexp(1.0, -scales)

    # one row per (scale, residue class), scale-major; floating mod is
    # exact, so the classes are exact, and a stable sort represents each
    # class by its first offset
    res = np.mod(offsets, w[:, None])
    order = np.argsort(res, axis=1, kind="stable")
    # order as indices into the raveled (scale, offset) array
    flat = (order + offsets.size * np.arange(w.size)[:, None]).ravel()
    res = res.ravel()[flat].reshape(res.shape)
    first = np.ones(res.shape, dtype=bool)
    first[:, 1:] = res[:, 1:] != res[:, :-1]
    row_of = np.empty(res.size, dtype=np.intp)
    row_of[flat] = np.cumsum(first) - 1
    row_of = row_of.reshape(res.shape)
    row_scale = np.nonzero(first)[0]
    row_w = w[row_scale]
    reps = offsets[order[first]]
    k0 = np.floor((dens.lo - reps) / row_w)
    k_end = np.ceil((dens.hi - reps) / row_w)

    # each row is a list of pieces, each a run of consecutive bounds: piece
    # i starts at bound piece_k[i] and holds piece_n[i] bounds, and every row
    # has `per_row` pieces, one more than the density has gaps
    piece_k, counts = k0, (k_end - k0).astype(np.intp) + 1
    piece_n, per_row = counts, 1
    if dens.gap_lo.size:
        # per row and gap: p and q, the second and the next-to-last bound in
        # the gap (q no lower than k0); row r's pieces run k0..p_1, q_1..p_2,
        # ..., q_m..k_end, but where q - p < 5 (fewer than 8 bounds in the
        # gap) the piece before it ends at q - 1 instead, joining the runs
        # on both sides
        p = np.ceil((dens.gap_lo - reps[:, None]) / row_w[:, None]) + 1.0
        q = np.maximum(np.floor((dens.gap_hi - reps[:, None]) / row_w[:, None]) - 1.0,
                       k0[:, None])
        piece_k = np.concatenate((k0[:, None], q), axis=1).ravel()
        piece_last = np.concatenate((np.where(q - p >= 5.0, p, q - 1.0), k_end[:, None]), axis=1)
        piece_n = (piece_last.ravel() - piece_k).astype(np.intp) + 1
        per_row = dens.gap_lo.size + 1
        counts = piece_n.reshape(-1, per_row).sum(axis=1)
    ends = np.cumsum(counts)
    # bound j of the sequence of all rows' bounds, in piece i, is k = piece_base[i] + j
    piece_base = piece_k - (np.cumsum(piece_n) - piece_n)

    row_vals = np.empty(reps.size)
    row_k = None if finite_r else np.empty(reps.size)
    s = 0
    while s < reps.size:
        e = max(int(np.searchsorted(ends, ends[s] - counts[s] + _BLOCK, side="right")), s + 1)
        c = counts[s:e]
        starts = np.cumsum(c) - c
        # k w + rep, built in place to keep the peak low
        bounds = np.repeat(piece_base[s * per_row:e * per_row], piece_n[s * per_row:e * per_row])
        bounds += np.arange(ends[s] - c[0], ends[e - 1], dtype=np.float64)
        k = None if finite_r else bounds.copy()
        bounds *= np.repeat(row_w[s:e], c)
        bounds += np.repeat(reps[s:e], c)
        # exact: cum is piecewise linear with nodes at the cell edges
        steps = np.diff(np.interp(bounds, dens.edges, dens.cum))
        if finite_r:
            terms = np.zeros_like(steps)
            np.power(steps, r / b, out=terms, where=steps > 0.0)
            row_vals[s:e] = np.add.reduceat(terms, starts) * row_w[s:e] ** (a * r)
        else:
            peak = np.maximum.reduceat(steps, starts)
            row_vals[s:e] = peak ** (1.0 / b) * row_w[s:e] ** a
            # a row's steps sum to int dens^b > 0 and the step into the next
            # row is negative, so a row's first hit of its peak is its own
            hits = np.flatnonzero(steps == np.repeat(peak, c)[:-1])
            row_k[s:e] = k[hits[np.searchsorted(hits, starts)]]
        s = e

    # scale j is inside the coarse tail of offsets with j < j_lo
    return (np.where(scales[:, None] >= j_lo, row_vals[row_of], 0.0),
            None if finite_r else row_k[row_of], int(ends[-1]))


def _dyadic_aggregate(dens: _Density, *, a: float, offsets: ArrayLike = (0.0,),
                      window: tuple[int, int] | None = None) -> tuple[np.ndarray, int]:
    """l^r aggregate over dyadic intervals of w^a * (int_I dens^b)^{1/b}.

    Returns one value per entry of 'offsets', and the number of interval
    bounds the pass evaluated (its cost beyond a fixed one, _PASS_ENTRIES).
    For an offset the intervals are [k*w + offset, (k+1)*w + offset) with
    w = 2^{-j}; the anchor shift realizes frequency modulations exactly.

    With window=None the whole bi-infinite scale sum is returned: scales
    finer than a cell and coarser than the support are closed-form
    geometric tails.  With window=(j_min, j_max) only those scales are
    summed (a truncated norm) and no tails are added.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    if window is not None:
        _check_window(dens, window)
    total_pow = dens.cum[-1]
    if total_pow == 0.0:
        return np.zeros(offsets.size), 0
    r, b = dens.r, dens.b
    finite_r = math.isfinite(r)

    if window is None:
        j_hi = math.ceil(-math.log2(dens.w_cell)) + 2
        # per offset: the coarsest scale whose two anchor intervals do not
        # yet hold the whole support; ceil(log2 R) is exact through frexp
        mant, expo = np.frexp(np.maximum(np.maximum(dens.hi - offsets, offsets - dens.lo),
                                         dens.w_cell))
        j_lo = np.minimum(-(expo - (mant == 0.5) + 1), j_hi)
    else:
        j_hi = window[1]
        j_lo = np.full(offsets.size, window[0])
    per_scale, _, entries = _scale_terms(dens, a=a, offsets=offsets, j_lo=j_lo, j_hi=j_hi)
    acc = np.cumsum(per_scale, axis=0)[-1] if finite_r else per_scale.max(axis=0)

    if window is None:
        # scales finer than a cell: every interval sees constant density
        sub_exp = a + 1.0 / b
        w_next = 2.0 ** (-(j_hi + 1))
        if finite_r:
            e_sub = r * sub_exp - 1.0
            if e_sub <= 0.0:
                return np.full(offsets.size, math.inf), entries
            acc += dens.fine * (w_next ** e_sub) / (1.0 - 2.0 ** (-e_sub))
        else:
            if sub_exp < 0.0:
                return np.full(offsets.size, math.inf), entries
            acc = np.maximum(acc, dens.fine if sub_exp == 0.0 else dens.fine * w_next ** sub_exp)

        # scales coarser than the support: exactly one interval on each
        # side of the anchor carries everything
        below = np.interp(offsets, dens.edges, dens.cum)
        n_plus = np.maximum(total_pow - below, 0.0)
        n_minus = np.maximum(below, 0.0)
        w_prev = 2.0 ** (1.0 - j_lo)
        if finite_r:
            if a >= 0.0:
                return np.full(offsets.size, math.inf), entries
            halves = n_plus ** (r / b) + n_minus ** (r / b)
            acc += halves * (w_prev ** (a * r)) / (1.0 - 2.0 ** (a * r))
        else:
            if a > 0.0:
                return np.full(offsets.size, math.inf), entries
            cand = np.maximum(n_plus, n_minus) ** (1.0 / b)
            acc = np.maximum(acc, cand if a == 0.0 else cand * w_prev ** a)

    return (acc ** (1.0 / r) if finite_r else acc), entries


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
    if not r >= 1:
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
    if not r > 0:
        raise ValueError(f"need r > 0, got r={r}")
    if p == q and math.isfinite(r):
        raise ValueError("p == q requires r = inf (norm diverges otherwise)")
    qp = conjugate_exponent(q)
    if math.isinf(qp):
        raise ValueError("q = 1 (local sup norms) is not supported")
    a = (0.0 if math.isinf(q) else 1.0 / q) - 1.0 / p
    # a huge finite r or p takes the l^r sums or the closed-form tail
    # 1 / (1 - 2^{a r}) out of the doubles: refused rather than reported as inf or NaN
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            dens = _prepare_density(*_fourier_cells(f), r=r, b=qp)
            value = _dyadic_aggregate(dens, a=a, offsets=[offset], window=window)[0][0]
    except FloatingPointError:
        raise ValueError(f"hat-Morrey sums leave the doubles at p={p}, q={q}, r={r}") from None
    return float(value)


def morrey_physical(f: GridFunction, p: float, q: float, r: float) -> float:
    """Physical-side Morrey M^p_{q,r}: l^r of |I|^{1/p-1/q}||f||_{L^q(I)}."""
    if not (0 < q <= p):
        raise ValueError(f"need 0 < q <= p, got q={q}, p={p}")
    if p == q and math.isfinite(r):
        raise ValueError("q == p requires r = inf")
    dens = _prepare_density(*_physical_cells(f), r=r, b=q)
    return float(_dyadic_aggregate(dens, a=1.0 / p - 1.0 / q)[0][0])


def sigma_range(alpha: float) -> tuple[float, float]:
    """Admissible (open-left, closed-right) range of sigma for ell."""
    return alpha / (alpha - 1.0), 6.0 * alpha / (3.0 * alpha - 2.0)


def _check_ell_exponents(alpha: float, sigma: float) -> None:
    if not (4.0 / 3.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (4/3, 2), got {alpha}")
    lo, hi = sigma_range(alpha)
    if not (lo < sigma <= hi):
        raise ValueError(f"sigma must lie in ({lo:g}, {hi:g}], got {sigma}")


def _golden_step(xa: float, xb: float, c: float, d: float,
                 c_lower: bool) -> tuple[float, float, float, float]:
    """One golden-section step on the bracket [xa, xb] with interior points
    c < d, given whether f(c) < f(d); the point it adds is the new c or d."""
    if c_lower:
        xb, d = d, c
        return xa, xb, xb - _INVPHI * (xb - xa), d
    xa, c = c, d
    return xa, xb, c, xa + _INVPHI * (xb - xa)


def _golden_reach(state: tuple[float, float, float, float], depth: int,
                  known: dict[float, float], tol: float) -> list[float]:
    """The points that the next `depth` golden-section steps from `state`
    (xa, xb, c, d) add, over both outcomes of every comparison whose values
    `known` does not yet hold; a bracket of width tol or less ends a path."""
    reach, level = [], [state]
    for _ in range(depth):
        grown = []
        for xa, xb, c, d in level:
            if not xb - xa > tol:
                continue
            decided = c in known and d in known
            for c_lower in ((known[c] < known[d],) if decided else (True, False)):
                grown.append(_golden_step(xa, xb, c, d, c_lower))
                reach.append(grown[-1][2] if c_lower else grown[-1][3])
        level = grown
    return reach


def _golden_depth(entries: float) -> int:
    """Golden-section steps per batched round: the D that minimises a round's
    cost per step, (_PASS_ENTRIES + entries (2^D - 1)) / D, for passes that
    evaluate `entries` interval bounds per offset."""
    def cost(depth: int) -> float:
        return (_PASS_ENTRIES + max(entries, 1.0) * (2 ** depth - 1)) / depth
    depth = 1
    while cost(depth + 1) < cost(depth):
        depth += 1
    return depth


def ell(f: GridFunction, alpha: float, sigma: float,
        window: tuple[int, int] | None = None) -> tuple[float, float]:
    """Infimum over modulations xi of ||P(xi) f||_{Mhat^alpha_{2,sigma}}.

    Coarse scan at twice the cell spacing across the spectral support,
    all candidates in one batched _dyadic_aggregate pass, then
    golden-section refinement to 1e-6 relative bracket width.  The density
    is prepared once for all of them.  Returns (value, minimizer).

    The refinement runs in batched rounds, each one pass.  The first
    evaluates the bracket's two interior points; each later one the 2^D - 1
    points that the next D steps can reach, whichever way their comparisons
    go (_golden_reach).  The steps are then walked with the comparisons and
    arithmetic of a loop of one-offset calls (_golden_step); a batched pass
    gives each offset the bits a one-offset call gives it, so the iterates
    and the result are that loop's.  D (_golden_depth) weighs a pass's fixed
    cost against the bounds one offset costs in the first round: a narrow
    support takes several steps per pass, a dense spectrum one.
    """
    _check_ell_exponents(alpha, sigma)
    vals, edges = _fourier_cells(f)
    dens = _prepare_density(vals, edges, r=sigma, b=2.0)
    if not np.any(vals > 0):
        return 0.0, 0.0
    a = 0.5 - 1.0 / alpha
    known: dict[float, float] = {}

    def evaluate(points: list[float]) -> float:
        """Aggregate `points` in one pass; returns the bounds per point."""
        values, entries = _dyadic_aggregate(dens, a=a, offsets=points, window=window)
        known.update(zip(points, values.tolist()))
        return entries / len(points)

    step = 2.0 * float(np.min(np.diff(edges)))
    candidates = np.arange(dens.lo - step, dens.hi + 2 * step, step)
    cand_vals, _ = _dyadic_aggregate(dens, a=a, offsets=candidates, window=window)
    i = int(np.argmin(cand_vals))
    xa = candidates[max(i - 1, 0)]
    xb = candidates[min(i + 1, candidates.size - 1)]
    tol = 1e-6 * max(abs(xa), abs(xb), 1.0)

    c = xb - _INVPHI * (xb - xa)
    d = xa + _INVPHI * (xb - xa)
    depth = _golden_depth(evaluate([c, d]))
    while xb - xa > tol:
        nxt = _golden_step(xa, xb, c, d, known[c] < known[d])
        if nxt[2] not in known or nxt[3] not in known:
            evaluate(_golden_reach((xa, xb, c, d), depth, known, tol))
        xa, xb, c, d = nxt
    fc, fd = known[c], known[d]
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


def _inverse_r(s: float, r: float) -> float:
    """1/r (0 for r = inf), after refusing a NaN or nonpositive r (a spec
    that sets no r has r = NaN) and a non-finite s."""
    if not r > 0:
        raise ValueError(f"need r > 0, got {r}")
    if not math.isfinite(s):
        raise ValueError(f"need a finite s, got {s}")
    return 0.0 if math.isinf(r) else 1.0 / r


def exponents_X(s: float, r: float) -> tuple[float, float]:
    """Solve 2/p + 1/q = 1/r, -1/p + 2/q = s for (p, q)."""
    inv_r = _inverse_r(s, r)
    inv_p = -s / 5.0 + 2.0 * inv_r / 5.0
    inv_q = 2.0 * s / 5.0 + inv_r / 5.0
    return _invert(inv_p), _invert(inv_q)


def exponents_Y(s: float, r: float) -> tuple[float, float]:
    """Solve 2/p + 1/q = 2 + 1/r, -1/p + 2/q = s for (p, q)."""
    rhs = 2.0 + _inverse_r(s, r)
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

# the spec keys each norm kind reads; j_min and j_max are a dyadic scale window
SPEC_KEYS = {"lhat": ("r",), "morrey_hat": ("p", "q", "r", "j_min", "j_max"),
             "ell": ("p", "sigma", "j_min", "j_max"),
             "spacetime_X": ("r", "s"), "spacetime_Y": ("r", "s")}


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

    def __post_init__(self):
        if self.kind not in SPEC_KEYS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if (self.j_min is None) != (self.j_max is None):
            raise ValueError("a norm window needs both j_min and j_max")
        reads = SPEC_KEYS[self.kind]
        if self.j_min is not None and "j_min" not in reads:
            windowed = (kind for kind, keys in SPEC_KEYS.items() if "j_min" in keys)
            raise ValueError(f"kind={self.kind} reads no j_min/j_max window; "
                             f"only {' and '.join(windowed)} do")
        # a key left at its default (NaN, or 0 for s) is unset
        for key in ("p", "q", "r", "s", "sigma"):
            val = getattr(self, key)
            if key not in reads and not (val == 0.0 if key == "s" else math.isnan(val)):
                raise ValueError(f"kind={self.kind} reads no {key}, got {key}={val}; "
                                 f"it reads {', '.join(reads)}")
        # a spec that sets no r has r = NaN, which every comparison fails
        if self.kind == "lhat" and not self.r >= 1:
            raise ValueError(f"kind=lhat needs r >= 1, got r={self.r}")
        if self.kind == "morrey_hat" and not self.r > 0:
            raise ValueError(f"kind=morrey_hat needs r > 0, got r={self.r}")

    @classmethod
    def from_preset(cls, name: str, alpha: float) -> "NormSpec":
        kind = "spacetime_Y" if name == "N" else "spacetime_X"
        return cls(kind=kind, r=alpha, s=preset_s(name, alpha))

    @property
    def window(self) -> tuple[int, int] | None:
        return None if self.j_min is None else (self.j_min, self.j_max)

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
        return ",".join(f"{k}={v}" for k, v in pairs)

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
            if key == "kind":
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
    """Mixed L^p_x L^q_t norm of |d/dx|^s F over the field's time window.

    The weighted rows are never held at once: each map_row_blocks block
    is reduced, on whichever thread made it, to its rows' trapezoid sum
    weight[rows] @ |.|^q (or its max over rows for q = inf), and the
    caller adds these up (or takes their max) in row order.
    """
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
    if math.isfinite(q):
        # trapezoid rule: row k weighs (t[k+1] - t[k-1]) / 2, an end row half its step
        half = np.diff(field.times) / 2.0
        weight = np.zeros(len(field))
        weight[:-1] += half
        weight[1:] += half

    def reduce(rows, block):
        part = np.abs(block)
        if math.isfinite(q):
            part **= q
            return weight[rows] @ part
        return np.max(part, axis=0)

    inner = np.zeros(g.n)
    for part in map_row_blocks(reduce, g, field.values, symbol):
        if math.isfinite(q):
            inner += part
        else:
            np.maximum(inner, part, out=inner)
    if math.isfinite(q):
        inner **= 1.0 / q
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
