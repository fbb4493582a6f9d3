"""Whitney pairs, restriction-type ratios, and greedy profile extraction.

The extractor mirrors the two-step concentration procedure numerically:
a dyadic-interval selector locates the scale and modulation of the most
concentrated frequency block, a space-time scan of the free evolution of
that block locates the remaining translation parameters, and greedy
subtraction yields a decomposition u = sum_j apply(G_j, psi_j) + r that
reconstructs the input exactly by construction.

Whitney pairs off the diagonals xi = +-eta are the rows (j, k, k') of one
(P, 3) int64 array, enumerated one array pass per scale; whitney_scale,
partition_check and partner_counts work on whole arrays, and
partition_check looks pairs up by np.searchsorted on one sorted int64
key per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (FOURIER, ROW_BLOCK, Grid, GridFunction, derivative_symbol, physical_rows,
                   row_blocks)
from .deformations import (Deformation, apply, apply_inverse, nonresonance_gap,
                           orthogonality_gap)
from .norms import conjugate_exponent, ell, morrey_norm

SCAN_FRAMES = 257   # time samples of the space-time argmax scan
CLIP_SCALE = 1e6    # band clip level c in c * |I|^{-1/alpha'}
MERGE_GAP = 10.0    # gap threshold of the conjugate pairing
MAX_AIRY_PHASE = 2.0 ** 52  # |t xi^3| beyond which exp(i t xi^3) keeps no correct digit


# ---------------------------------------------------------------------------
# Whitney-type decomposition off the diagonals xi = +-eta
# ---------------------------------------------------------------------------

MAX_WHITNEY_INTERVALS = 2 ** 16  # intervals of whitney_pairs, summed over its scales
WHITNEY_SCALES = (-1022, 1023)   # scales j whose width 2^j is a normal float

# a partner k' of k lies at 2p + NEAR or -2p + MIRROR, p = k // 2 (see whitney_pairs)
_NEAR = np.arange(-2, 4)
_MIRROR = np.arange(-4, 2)


def _touch(k, kp):
    """Elementwise: same-scale interval k is adjacent to kp or to its
    reflection -[kp w, (kp+1) w) = [(-kp-1) w, -kp w)."""
    return (np.abs(k - kp) <= 1) | (np.abs(k + kp + 1) <= 1)


def _related(k, kp):
    """Elementwise: same-scale intervals k, kp are a pair iff they are
    separated at their own scale from each other and from the reflection,
    but their parents are not."""
    return ~_touch(k, kp) & _touch(k // 2, kp // 2)


def _half_counts(j_min: int, j_max: int, xi_max: float) -> list[int]:
    """k_hi = ceil(xi_max 2^-j), in exact integers, for each scale j in
    [j_min, j_max], or a ValueError if the 2 k_hi intervals summed over the
    scales exceed MAX_WHITNEY_INTERVALS."""
    a, b = xi_max.as_integer_ratio()
    counts = [-(-(a << -j) // b) if j < 0 else -(-a // (b << j))
              for j in range(j_min, j_max + 1)]
    if 2 * sum(counts) > MAX_WHITNEY_INTERVALS:
        raise ValueError(f"scales [{j_min}, {j_max}] with xi_max {xi_max} ask for more than "
                         f"{MAX_WHITNEY_INTERVALS} intervals")
    return counts


def whitney_pairs(j_min: int, j_max: int, xi_max: float) -> np.ndarray:
    """All pairs with scales j in [j_min, j_max] inside [-xi_max, xi_max).

    Returns a (P, 3) int64 array of rows (j, k, k'), ascending in j, then
    k, then k': the pair of same-width dyadic intervals [k 2^j, (k+1) 2^j)
    and [k' 2^j, (k'+1) 2^j).  Scale j has 2 ceil(xi_max 2^-j) intervals.
    Bounds, checked before anything is allocated: every scale lies in
    WHITNEY_SCALES = [-1022, 1023], where 2^j is a normal float, and the
    intervals summed over the scales number at most
    MAX_WHITNEY_INTERVALS = 2^16 (a peak near 35 MB); otherwise a
    ValueError is raised.

    One array pass per scale.  A partner k' of k has its parent adjacent to
    the parent p = k // 2 of k or to its reflection -p-1, so k' lies in
    [2p-2, 2p+3] or in [-2p-4, -2p+1].  Only these <= 12 candidates are
    tested, sorted and with repeats dropped, so the rows and their order
    are those of testing every (k, k') pair.
    """
    if j_min > j_max:
        raise ValueError("empty scale window")
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ValueError(f"xi_max must be finite and positive, got {xi_max}")
    if not (WHITNEY_SCALES[0] <= j_min and j_max <= WHITNEY_SCALES[1]):
        raise ValueError(f"scales [{j_min}, {j_max}] leave [{WHITNEY_SCALES[0]}, "
                         f"{WHITNEY_SCALES[1]}], where the widths 2^j are normal floats")
    blocks = []
    for j, k_hi in zip(range(j_min, j_max + 1), _half_counts(j_min, j_max, xi_max)):
        k = np.arange(-k_hi, k_hi)[:, None]
        p2 = 2 * (k // 2)
        cand = np.sort(np.concatenate((p2 + _NEAR, _MIRROR - p2), axis=1), axis=1)
        keep = (cand >= -k_hi) & (cand < k_hi) & _related(k, cand)
        keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]  # a candidate in both ranges once
        rows, cols = np.nonzero(keep)
        blocks.append(np.column_stack((np.full(rows.size, j), k[rows, 0], cand[rows, cols])))
    return np.concatenate(blocks)


def whitney_scale(xi, eta):
    """The unique scale at which (xi, eta) is covered by a pair; elementwise
    over arrays (an int64 array), a Python int for two scalars.

    Adjacency of the containing intervals (to each other or to the
    reflection) is monotone in the scale; the pair lives one scale below
    the coarsest non-adjacent level.  Adjacent intervals of width w have
    min(|xi - eta|, |xi + eta|) <= 2 w, so the search starts two levels
    below the points' own scale, where they cannot be adjacent.  The
    scales come from np.frexp and the interval indices from floors of
    np.ldexp, both exact (an ldexp that underflows to -0.0 gives index 0
    for -1, which the adjacency test, symmetric under k -> -k-1, ignores).
    """
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=np.float64),
                                  np.asarray(eta, dtype=np.float64))
    finite = np.isfinite(xi) & np.isfinite(eta)
    if not np.all(finite):
        i = np.argmin(finite)
        raise ValueError(f"point ({xi.flat[i]}, {eta.flat[i]}) is not finite")
    with np.errstate(over="ignore"):  # one of the two may overflow, never both
        gap = np.minimum(np.abs(xi - eta), np.abs(xi + eta))
    if np.any(gap == 0):
        raise ValueError("points on the diagonals are not covered")
    # floor(log2 gap) = exponent - 1 for gap = mantissa 2^exponent, 1/2 <= mantissa < 1
    j = np.frexp(gap.ravel())[1].astype(np.int64) - 3
    todo = np.arange(j.size)
    out = np.empty(j.size, dtype=np.int64)
    x, y = xi.ravel(), eta.ravel()
    while todo.size:
        k = np.floor(np.ldexp(x[todo], -j[todo]))
        kp = np.floor(np.ldexp(y[todo], -j[todo]))
        hit = _touch(k, kp)
        out[todo[hit]] = j[todo[hit]] - 1
        todo = todo[~hit]
        j[todo] += 1
    return int(out[0]) if xi.ndim == 0 else out.reshape(xi.shape)


def partition_check(pairs: np.ndarray, samples: np.ndarray) -> dict:
    """Indicator-sum statistics at off-diagonal sample points.

    `pairs` holds whitney_pairs rows (j, k, k'), `samples` is a finite
    (N, 2) array of points (xi, eta) off both diagonals.  Only samples
    whose covering scale (whitney_scale) falls inside the scale range
    [j_lo, j_hi] of `pairs` are counted; for those the sum of indicators,
    the number of scales j in [j_lo, j_hi] at which (floor(xi 2^-j),
    floor(eta 2^-j)) is a pair, must be exactly 1.  All samples and scales
    are tested at once: each row is one int64 key, found with
    np.searchsorted in the sorted keys of `pairs`.  `counted` and `bad`
    are Python ints.
    """
    if len(pairs) == 0:
        raise ValueError("no pairs supplied")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError(f"samples must be an (N, 2) array of points, got shape {samples.shape}")
    j_lo, j_hi = int(pairs[:, 0].min()), int(pairs[:, 0].max())
    k_lo, k_hi = int(pairs[:, 1:].min()), int(pairs[:, 1:].max())
    # key = ((j - j_lo) span + k - k_lo) span + k' - k_lo, ordered as the rows
    span = k_hi - k_lo + 1
    if (j_hi - j_lo + 1) * span * span >= 2 ** 63:
        raise ValueError("pair indices too far apart for int64 keys")
    keys = np.sort(((pairs[:, 0] - j_lo) * span + pairs[:, 1] - k_lo) * span + pairs[:, 2] - k_lo)
    scale = whitney_scale(samples[:, 0], samples[:, 1])
    points = samples[(scale >= j_lo) & (scale <= j_hi)]
    # sorted by xi, each scale's queries ascend in k, which keeps the searches
    # local: three times faster than in sample order
    points = points[np.argsort(points[:, 0])]
    levels = np.arange(j_hi - j_lo + 1)[:, None]
    # exact products, but for an underflow to -0.0 that gives index 0 for -1,
    # which the pair relation, symmetric under k -> -k-1, ignores
    inv_width = np.ldexp(1.0, -(levels + j_lo))
    with np.errstate(over="ignore"):  # an overflow to inf falls outside [k_lo, k_hi]
        k = np.floor(points[:, 0] * inv_width)
        kp = np.floor(points[:, 1] * inv_width)
    inside = (k >= k_lo) & (k <= k_hi) & (kp >= k_lo) & (kp <= k_hi)
    query = ((levels * span + np.where(inside, k, k_lo).astype(np.int64) - k_lo) * span
             + np.where(inside, kp, k_lo).astype(np.int64) - k_lo)
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    total = np.sum(inside & (keys[at] == query), axis=0)
    counted = int(points.shape[0])
    bad = int(np.count_nonzero(total != 1))
    return {"counted": counted, "bad": bad, "passed": bad == 0 and counted > 0}


def partner_counts(pairs: np.ndarray, j: int, k_interior: int) -> dict[int, int]:
    """Partner count per interval k with |k| <= k_interior at scale j, from
    whitney_pairs rows; ascending in k, with Python int keys and counts."""
    ks = pairs[(pairs[:, 0] == j) & (np.abs(pairs[:, 1]) <= k_interior), 1]
    uniq, counts = np.unique(ks, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


# ---------------------------------------------------------------------------
# refined restriction-type ratio
# ---------------------------------------------------------------------------

def _airy_args(f: GridFunction, t_grid: np.ndarray, deriv: float) -> tuple:
    """Arguments of physical_rows / row_blocks for |d/dx|^deriv e^{-t d^3/dx^3} f."""
    fh = f.to_fourier()
    xi = fh.grid.frequencies()
    return fh.grid, fh.values, derivative_symbol(xi, deriv), t_grid, xi ** 3


def airy_frames(f: GridFunction, t_grid: np.ndarray, deriv: float) -> np.ndarray:
    """|d/dx|^deriv e^{-t d^3/dx^3} f at every t of t_grid: (nt, n) physical samples."""
    return physical_rows(*_airy_args(f, t_grid, deriv))


def _check_airy_time(name: str, value: float, grid: Grid, reach: float = 1.0) -> None:
    """Reject a time `value` unless it is positive, finite and keeps the
    largest Airy phase, (reach * value) * max|xi|^3 on `grid`, within
    MAX_AIRY_PHASE."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    xi_max = float(grid.n / 2 * grid.dxi)
    # Python float products: an overflow gives inf (no warning), rejected below
    phase = reach * float(value) * xi_max * xi_max * xi_max
    if not phase <= MAX_AIRY_PHASE:
        raise ValueError(f"{name} {value} puts Airy phases up to {phase:.3g} rad on this "
                         f"grid, beyond the 2^52 at which exp keeps no correct digit")


def stein_tomas_ratio(f: GridFunction, alpha: float, sigma: float,
                      time_window: float, nt: int = 257) -> float:
    """L^{3a}_{t,x} norm of the weighted free evolution over the Morrey norm.

    The time integral runs over [-2 time_window, 2 time_window] with 2nt-1
    samples; the run is rejected if the norm over the middle nt samples,
    which are [-time_window, time_window] at the same spacing, differs from
    it by more than 1 % relatively.  nt must be odd and at least 3, and
    time_window positive, finite and small enough that every Airy phase
    stays within MAX_AIRY_PHASE.  The frames are never held at once: each
    row_blocks block is reduced to its rows' sums of |.|^{3a} before the
    next block is made.
    """
    if not (4.0 / 3.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (4/3, 2)")
    if nt % 2 == 0:
        raise ValueError(f"nt must be odd, got {nt}")
    if nt < 3:
        raise ValueError(f"nt must be at least 3, got {nt}")
    _check_airy_time("time_window", time_window, f.grid, reach=2.0)
    denom = morrey_norm(f, alpha, 2.0, sigma)
    if denom == 0.0:
        return 0.0
    exponent = 3.0 * alpha
    t2 = np.linspace(-2.0 * time_window, 2.0 * time_window, 2 * nt - 1)
    space = np.empty(t2.size)
    mag = np.empty((min(t2.size, ROW_BLOCK), f.grid.n))
    for rows, block in row_blocks(*_airy_args(f, t2, 1.0 / exponent)):
        part = np.abs(block, out=mag[:len(block)])
        part **= exponent
        space[rows] = np.sum(part, axis=1)
    space *= f.grid.dx
    mid = slice((nt - 1) // 2, (nt - 1) // 2 + nt)
    num1 = float(np.trapezoid(space[mid], t2[mid]) ** (1.0 / exponent))
    num2 = float(np.trapezoid(space, t2) ** (1.0 / exponent))
    if num1 > 0 and abs(num2 - num1) / num1 > 0.01:
        raise ValueError(
            f"time window {time_window} too short: doubling moved the norm by "
            f"{abs(num2 - num1) / num1:.2%}; the Airy flow on a torus does not "
            f"disperse, so the grid's period {f.grid.length:.6g} bounds the usable "
            "window and a longer one need not converge: use a longer period")
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


def _spacetime_argmax(f: GridFunction, alpha: float,
                      t_scan: float) -> tuple[float, float]:
    """(t*, x*) maximizing | |d/dx|^{1/(3a)} e^{-t d^3/dx^3} f | over SCAN_FRAMES times."""
    t_grid = np.linspace(-t_scan, t_scan, SCAN_FRAMES)
    # materialised, not streamed through row_blocks: freeing the 8 MB scan
    # array raises glibc's dynamic mmap threshold, so the block temporaries
    # come from the heap and are reused; streamed, they were mapped and
    # unmapped on every call (~14k page faults and 41 ms more system time
    # per profile_decompose)
    mag = np.abs(airy_frames(f, t_grid, 1.0 / (3.0 * alpha)))
    it, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return float(t_grid[it]), float(f.grid.x0 + ix * f.grid.dx)


@dataclass
class ProfileDecomposition:
    profiles: list[tuple[GridFunction, list[Deformation]]]
    residuals: list[GridFunction]
    diagnostics: dict = field(default_factory=dict)


def _default_t_scan(j: int, k: int) -> float:
    """Scan half-width keeping the Airy phase spread across the band
    resolved by the SCAN_FRAMES time samples."""
    w = 2.0 ** j
    lo, hi = abs(k) * w, (abs(k) + 1) * w
    spread = abs(hi ** 3 - lo ** 3)
    if spread == 0.0:
        return 10.0
    return min(10.0, 0.25 * SCAN_FRAMES / spread)


def extract_profile(u_list: list[GridFunction], alpha: float,
                    t_scan: float | None = None
                    ) -> tuple[GridFunction, list[Deformation], list[GridFunction], dict]:
    """One greedy extraction step over the whole sequence.

    Per index: the dyadic selector fixes (h, xi), the space-time argmax of
    the free evolution of the clipped band fixes (s, y); psi averages the
    pulled-back bands of the best few indices and r = u - apply(G, psi).
    t_scan=None picks a per-band window that the SCAN_FRAMES samples can
    resolve; a given t_scan must be positive, finite and keep every Airy
    phase of the scan within MAX_AIRY_PHASE.
    """
    if len(u_list) == 0:
        raise ValueError("empty input sequence")
    if t_scan is not None:
        for u in u_list:
            _check_airy_time("t_scan", t_scan, u.grid)
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
        clip = CLIP_SCALE * w ** (-1.0 / conjugate_exponent(alpha))
        clipped = _band_restrict(u, j, k, clip=clip)
        half = t_scan if t_scan is not None else _default_t_scan(j, k)
        t_star, x_star = _spacetime_argmax(clipped, alpha, half)
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
                      t_scan: float | None = None) -> ProfileDecomposition:
    """Greedy iteration of extract_profile on the running residuals.

    Stops at j_max profiles or when the selector drops below eps_stop;
    t_scan goes to extract_profile.  Extractions orthogonal to an earlier
    one (gap above MERGE_GAP) but nonresonance-close (gap below MERGE_GAP)
    are reported as conjugate pairs with multiplicity 2 in the decoupling
    ledger.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    current = list(u_list)
    profiles: list[tuple[GridFunction, list[Deformation]]] = []
    selectors = []
    while len(profiles) < j_max:
        psi, gammas, residuals, diag = extract_profile(current, alpha, t_scan)
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
            if gaps_orth[a, b] > MERGE_GAP and gaps_nonres[a, b] < MERGE_GAP:
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
