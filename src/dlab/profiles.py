"""Whitney pairs, restriction-type ratios, and greedy profile extraction.

The extractor mirrors the two-step concentration procedure numerically:
a dyadic-interval selector locates the scale and modulation of the most
concentrated frequency block, a space-time scan of the free evolution of
that block locates the remaining translation parameters, and greedy
subtraction yields a decomposition u = sum_j apply(G_j, psi_j) + r that
reconstructs the input exactly by construction.  The selector is one
r = inf pass of norms' dyadic aggregate per input, on one shared grid.
The scan's argmax over the grid's nodes comes from a short coarse scan of
the band, an m-point ifft with m >= 8 B for a band of B cells, and a
refinement by direct B-term sums of only the cells that Bernstein's
inequality cannot rule out, or the full-width scan, reduced block by block,
when those sums would cost more; it picks the node np.argmax of the
full-width scan would, up to ties at roundoff.

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

from .grid import (FOURIER, ROW_BLOCK, Grid, GridFunction, derivative_symbol,
                   fourier_multiply, map_row_blocks, physical_rows)
from .deformations import (Deformation, apply, apply_inverse, dyadic_log2, nonresonance_gap,
                           orthogonality_gap)
from .norms import (_check_ell_alpha, _check_window, _fourier_cells, _prepare_density,
                    _scale_terms, _time_norms, conjugate_exponent, ell, morrey_norm)

SCAN_FRAMES = 257   # time samples of the space-time argmax scan
# coarse nodes per band cell in _spacetime_argmax, m >= 8 B: the Bernstein step
# delta = pi (B - 1) / (2m) stays below pi/16.  On perfbench scan's 16-cell bands
# 6 % of the coarse cells are then refined (33k nodes per scan); m >= 4 B refines
# 11 % of half as many cells, twice the nodes, in the same time, and 16 B or 32 B
# spend more on the larger coarse ifft than they save in the refinement
SCAN_OVERSAMPLE = 8
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
    """Arguments (grid, spectrum, symbol, times, dispersion) of physical_rows
    and map_row_blocks for |d/dx|^deriv e^{-t d^3/dx^3} f at every t of t_grid."""
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
    stays within MAX_AIRY_PHASE.  The ratio is homogeneous of degree 0, so
    fhat is first scaled by a power of two to a largest modulus in [1/2, 1):
    no amplitude overflows |.|^{3a} or underflows the Morrey norm.  Both
    norms of the time integral come from one _time_norms call.
    """
    _check_ell_alpha(alpha)
    if nt % 2 == 0:
        raise ValueError(f"nt must be odd, got {nt}")
    if nt < 3:
        raise ValueError(f"nt must be at least 3, got {nt}")
    _check_airy_time("time_window", time_window, f.grid, reach=2.0)
    fh = f.to_fourier()
    peak = float(np.max(np.abs(fh.values)))
    if peak == 0.0:
        return 0.0
    # exact: each real and imaginary part times 2^-e, e the exponent of the peak
    e = math.frexp(peak)[1]
    f = GridFunction(fh.grid, np.ldexp(fh.values.real, -e) + 1j * np.ldexp(fh.values.imag, -e),
                     FOURIER)
    exponent = 3.0 * alpha
    t2 = np.linspace(-2.0 * time_window, 2.0 * time_window, 2 * nt - 1)
    mid = slice((nt - 1) // 2, (nt - 1) // 2 + nt)
    num2, num1 = _time_norms(exponent, exponent, *_airy_args(f, t2, 1.0 / exponent),
                             windows=(slice(None), mid))
    if num1 > 0 and abs(num2 - num1) / num1 > 0.01:
        raise ValueError(
            f"time window {time_window} too short: doubling moved the norm by "
            f"{abs(num2 - num1) / num1:.2%}; the Airy flow on a torus does not "
            f"disperse, so the grid's period {f.grid.length:.6g} bounds the usable "
            "window and a longer one need not converge: use a longer period")
    return float(num2) / morrey_norm(f, alpha, 2.0, sigma)


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

def _selector(f: GridFunction, alpha: float, scales: range) -> tuple[np.ndarray, np.ndarray]:
    """Per scale j of `scales` (consecutive, ascending): the largest |I|^{-1/(3a)}
    ||fhat||_{L^b(I)}, b = (3a/2)', over I = [k 2^j, (k+1) 2^j) and the first k
    attaining it (0, 0 for f = 0): the dyadic aggregate's r = inf terms at offset 0."""
    dens = _prepare_density(*_fourier_cells(f), r=math.inf, b=conjugate_exponent(1.5 * alpha))
    window = (-scales[-1], -scales[0])
    _check_window(dens, window)
    if dens.cum[-1] == 0.0:
        return np.zeros(len(scales)), np.zeros(len(scales), dtype=np.int64)
    values, k, _ = _scale_terms(dens, a=-1.0 / (3.0 * alpha), offsets=np.zeros(1),
                             j_lo=np.full(1, window[0]), j_hi=window[1])
    return values[::-1, 0], k[::-1, 0].astype(np.int64)


def _band_restrict(f: GridFunction, j: int, k: int) -> GridFunction:
    """The Fourier side of f restricted to [k 2^j, (k+1) 2^j)."""
    xi, w = f.grid.frequencies(), 2.0 ** j
    return fourier_multiply(f.to_fourier(), (xi >= k * w - 1e-12) & (xi < (k + 1) * w - 1e-12))


def _support(spectrum: np.ndarray) -> np.ndarray:
    """Indices, in order, of the shortest circular run of cells of `spectrum`
    that holds every nonzero entry: 0, 1, ..., n - 1 for a spectrum without
    zeros, none for one without a nonzero entry."""
    n = spectrum.size
    nz = np.flatnonzero(spectrum)
    if nz.size == 0:
        return nz
    # gaps[i] runs from nonzero i to the next one, the last around the end; the
    # run leaves out the widest gap, on a tie the one around the end
    gaps = np.diff(nz, append=nz[0] + n)
    i = nz.size - 1 - int(np.argmax(gaps[::-1]))
    return (nz[(i + 1) % nz.size] + np.arange(n + 1 - gaps[i])) % n


def _spacetime_argmax(f: GridFunction, alpha: float,
                      t_scan: float) -> tuple[float, float]:
    """(t*, x*) maximizing | |d/dx|^{1/(3a)} e^{-t d^3/dx^3} f | over SCAN_FRAMES
    times and the grid's nodes; on a tie the first maximum in row-major order,
    as np.argmax of the (SCAN_FRAMES, n) scan would pick.

    The spectrum's support (see _support) is a circular run of B cells, so
    row t, demodulated, is a trigonometric polynomial p_t of degree B - 1.  A
    coarse scan samples every row at every h-th node, h = n/m, with m the
    smallest power of two >= SCAN_OVERSAMPLE B: one batched m-point ifft of
    the rows folded onto m cells gives these samples exactly.  Bernstein's
    inequality bounds how far |p_t| can rise between them: a node within h/2
    of coarse node s is at most |p_t(s)| + delta S_t, delta = pi (B - 1) / (2m)
    <= pi/16, where S_t = M_t / (1 - delta) bounds the sup of row t and M_t is
    its largest coarse sample.  Only the (row, coarse node) cells whose bound
    reaches the best coarse sample, less a rounding margin, are refined, by
    direct B-term sums at their h nodes; no other node can hold the maximum.
    The answer is the full-width scan's argmax, taken block by block over
    map_row_blocks, when m reaches n, for a band without a nonzero cell, and
    when the kept cells' direct sums would cost more than the full-width scan
    (a band whose |p| is flat to within the Bernstein step keeps every cell).
    """
    t_grid = np.linspace(-t_scan, t_scan, SCAN_FRAMES)
    deriv = 1.0 / (3.0 * alpha)
    fh = f.to_fourier()
    grid, n = fh.grid, fh.grid.n
    spectrum = np.fft.ifftshift(fh.values)
    cols = _support(spectrum)
    size = cols.size
    m = min(n, 1 << (SCAN_OVERSAMPLE * size - 1).bit_length()) if size else n
    if m < n:
        # the run's coefficients c[t, l] = mult_l e^{i t xi_l^3}, mult_l the density times
        # |xi_l|^{1/(3a)} e^{i x0 xi_l}: row t at node x is sum_l c[t, l] e^{2 pi i cols_l x / n},
        # up to a constant factor
        xi = np.fft.ifftshift(grid.frequencies())[cols]
        mult = spectrum[cols] * derivative_symbol(xi, deriv) * np.exp(1j * grid.x0 * xi)
        coef = mult * np.exp(1j * np.outer(t_grid, xi ** 3))
        folded = np.zeros((SCAN_FRAMES, m), dtype=np.complex128)
        folded[:, cols % m] = coef
        bound = np.abs(np.fft.ifft(folded, axis=1, norm="forward", out=folded))
        del folded
        # the coarse samples |p_t(s)| become the bounds |p_t(s)| + delta S_t in place
        best = np.max(bound)
        delta = math.pi * (size - 1) / (2 * m)
        bound += (delta / (1.0 - delta)) * np.max(bound, axis=1, keepdims=True)
        # rounding margin: sum |mult| bounds every |p|; each butterfly stage of the
        # ifft and each product of a direct sum adds a few eps of it, and each of the
        # sum's B - 1 additions one eps, so every sample, coarse or refined, is within
        # eta = (6 log2 m + B + 8) eps sum |mult| of |p|.  A node outside the kept
        # cells then reads below the refined maximum if the margin exceeds
        # (1 / (1 - delta) + 3) eta < 4.3 eta; the margin is 8 eta
        eta = (6 * math.log2(m) + size + 8) * np.finfo(float).eps * np.sum(np.abs(mult))
        keep = bound >= best - 8.0 * eta
        del bound
        h = n // m
    # the kept cells' direct sums cost B h complex multiply-adds, 8 flops each, per
    # cell; past the full-width scan's n-point iffts, 5 n log2 n flops per row (a band
    # whose |p| is flat to within the Bernstein step keeps every cell), the
    # full-width scan is taken instead
    if m == n or 8 * np.count_nonzero(keep) * size * h > 5 * SCAN_FRAMES * n * math.log2(n):
        def first_max(rows, block):
            mag = np.abs(block)
            i = int(np.argmax(mag))
            return mag.flat[i], rows.start * n + i

        # reduced block by block: the (SCAN_FRAMES, n) scan is never held
        picks = map_row_blocks(first_max, *_airy_args(fh, t_grid, deriv))
    else:
        # node h s + r of row t, -h/2 <= r < h/2, is sum_j c[t, j] D[s, j] E[j, r] over
        # the run's offsets j = 0 .. B-1 (cols_j = cols_0 + j mod n, and the factor
        # e^{2 pi i cols_0 x / n} has modulus 1): D = e^{2 pi i j s / m}, gathered per
        # chunk from the m-th roots of unity, and E = e^{2 pi i j r / n}
        keep_t, keep_s = np.nonzero(keep)
        j = np.arange(size)
        near = np.arange(-(h // 2), h // 2)
        roots = np.exp((2j * math.pi / m) * np.arange(m))
        fine_phase = np.exp((2j * math.pi / n) * np.outer(j, near))
        # the kept cells in chunks whose terms and sums hold about as many entries as
        # one map_row_blocks block
        chunk = ROW_BLOCK * n // (size + h)

        def refine(lo):
            t, s = keep_t[lo:lo + chunk], keep_s[lo:lo + chunk]
            terms = roots[np.outer(s, j) % m]
            terms *= coef[t]
            # a (1, B) @ (B, h) product per cell, each run on the calling thread: one
            # (cells, B) @ (B, h) product went to OpenBLAS's thread pool, whose wake-ups
            # stalled it for 3-8 ms in a third of the calls on a shared 2-core host
            mag = np.abs(terms[:, None, :] @ fine_phase)[:, 0]
            k, r = np.nonzero(mag == np.max(mag))
            return mag[k[0], r[0]], int(np.min(t[k] * n + (h * s[k] + near[r]) % n))

        picks = [refine(lo) for lo in range(0, keep_t.size, chunk)]
    top = max(value for value, _ in picks)
    it, ix = divmod(min(key for value, key in picks if value == top), n)
    return float(t_grid[it]), float(grid.x0 + ix * grid.dx)


@dataclass
class ProfileDecomposition:
    profiles: list[tuple[GridFunction, list[Deformation]]]
    residuals: list[GridFunction]
    diagnostics: dict = field(default_factory=dict)


def _default_t_scan(j: int, k: int) -> float:
    """Scan half-width keeping the Airy phase spread across the band
    resolved by the SCAN_FRAMES time samples."""
    w = 2.0 ** j
    spread = abs(((k + 1) * w) ** 3 - (k * w) ** 3)
    if spread == 0.0:
        return 10.0
    return min(10.0, 0.25 * SCAN_FRAMES / spread)


def extract_profile(u_list: list[GridFunction], alpha: float,
                    t_scan: float | None = None
                    ) -> tuple[GridFunction, list[Deformation], list[GridFunction], dict]:
    """One greedy extraction step over the whole sequence.

    The inputs share one grid of dyadic frequency spacing.  Per index, the
    selector's interval at the strongest detection's scale fixes (h, xi) and
    the space-time argmax of the free evolution of its clipped band (s, y);
    psi averages the pulled-back bands of the best few indices, r = u - apply(G, psi).
    t_scan=None picks a per-band window that the SCAN_FRAMES samples can resolve;
    a given t_scan must be positive, finite and keep every Airy phase within MAX_AIRY_PHASE.
    """
    if len(u_list) == 0:
        raise ValueError("empty input sequence")
    grid = u_list[0].grid
    for i, u in enumerate(u_list):
        if not u.grid.close_to(grid):
            raise ValueError(f"input {i} is on {u.grid}, input 0 on {grid}")
    try:
        j0 = dyadic_log2(grid.dxi)
    except ValueError as err:
        raise ValueError(f"frequency spacing {err}") from None
    if t_scan is not None:
        _check_airy_time("t_scan", t_scan, grid)
    scales = range(j0, j0 + int(grid.n).bit_length())  # widths from a cell to the span
    fourier = [u.to_fourier() for u in u_list]
    peaks = [_selector(f, alpha, scales) for f in fourier]
    best = [float(np.max(values)) for values, _ in peaks]
    if max(best) == 0.0:
        zero = GridFunction(grid, np.zeros(grid.n, complex), FOURIER)
        return zero, [Deformation(0)] * len(u_list), list(u_list), {
            "selector": [0.0] * len(u_list), "degenerate": True}
    # lock every index to the scale of the strongest detection (the finest
    # on a tie) so that the pulled-back pieces agree
    lead = int(np.argmax(peaks[int(np.argmax(best))][0]))
    j = scales[lead]
    w = 2.0 ** j
    clip = CLIP_SCALE * w ** (-1.0 / conjugate_exponent(alpha))
    scores = [float(values[lead]) for values, _ in peaks]
    gammas = []
    bands = []
    for f, (_, ks) in zip(fourier, peaks):
        k = int(ks[lead])
        band = _band_restrict(f, j, k)
        clipped = band.values * (clip / np.maximum(np.abs(band.values), clip))
        half = t_scan if t_scan is not None else _default_t_scan(j, k)
        t_star, x_star = _spacetime_argmax(GridFunction(grid, clipped, FOURIER), alpha, half)
        gammas.append(Deformation(j, xi=float(-k), s=-(w ** 3) * t_star, y=w * x_star))
        bands.append(band)

    # average the pulled-back bands over the strongest indices
    take = np.argsort(scores)[::-1][:3]
    pulled = [apply_inverse(gammas[i], bands[i], d_exponent=alpha) for i in take]
    acc = sum((p.values for p in pulled[1:]), pulled[0].values)
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
