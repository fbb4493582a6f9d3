import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dlab import grid as grid_module
from dlab import norms, profiles
from dlab.deformations import Deformation, airy_flow, apply
from dlab.grid import (FOURIER, PHYSICAL, ROW_BLOCK, Grid, GridFunction, SpaceTimeField,
                       fractional_derivative, physical_rows)
from dlab.norms import NormSpec, conjugate_exponent, morrey_norm, spacetime_norm
from dlab.profiles import (MAX_WHITNEY_INTERVALS, airy_frames, decoupling_check,
                           extract_profile, partition_check, partner_counts,
                           profile_decompose, stein_tomas_ratio, whitney_pairs,
                           whitney_scale)

ALPHA, SIGMA = 1.8, 3.0


def bump(grid: Grid, center: float, width: float, amp: float = 1.0) -> GridFunction:
    xi = grid.frequencies()
    mask = (xi >= center - width / 2.0) & (xi < center + width / 2.0)
    vals = amp * np.exp(-((xi - center) * 4.0 / width) ** 2) * mask
    return GridFunction(grid, vals.astype(complex), FOURIER)


# ---------------------------------------------------------------------------
# Whitney pairs
# ---------------------------------------------------------------------------

def whitney_related(k: int, kp: int) -> bool:
    """The pair relation on integers: k, kp apart from each other and from
    the reflection -kp-1 at their own scale, but their parents are not."""
    def touch(a, b):
        return abs(a - b) <= 1 or abs(a + b + 1) <= 1
    return not touch(k, kp) and touch(k // 2, kp // 2)


def test_pairs_are_symmetric_and_off_diagonal():
    pairs = whitney_pairs(-2, 1, 8.0)
    assert pairs.shape[0] > 0
    keys = set(map(tuple, pairs.tolist()))
    for j, k, kp in keys:
        assert (j, kp, k) in keys
        # separated from the diagonal and the anti-diagonal at own scale
        assert abs(k - kp) > 1 and abs(k - (-kp - 1)) > 1


def test_partner_counts_small():
    pairs = whitney_pairs(-3, 2, 16.0)
    for j in range(-3, 1):
        k_hi = int(math.ceil(16.0 / 2.0 ** j))
        counts = partner_counts(pairs, j, k_hi - 5)
        assert counts
        assert set(counts.values()) <= {2, 4, 6}
        # Python ints, so a record holding them goes through json.dumps
        assert all(type(k) is int and type(c) is int for k, c in counts.items())
        assert list(counts) == sorted(counts)


def test_partition_of_unity_on_samples():
    pairs = whitney_pairs(-3, 2, 16.0)
    rng = np.random.default_rng(1)
    samples = rng.uniform(-8.0, 8.0, size=(2000, 2))
    stats = partition_check(pairs, samples)
    assert stats["passed"]
    assert stats["bad"] == 0
    assert stats["counted"] > 100
    assert type(stats["counted"]) is int and type(stats["bad"]) is int


def test_whitney_scale_consistency():
    pairs = whitney_pairs(-6, 6, 64.0)
    keys = set(map(tuple, pairs.tolist()))
    for xi, eta in ((3.3, -9.7), (0.4, 5.1), (-20.0, 11.5), (0.01, 0.06)):
        j = whitney_scale(xi, eta)
        w = 2.0 ** j
        assert (j, math.floor(xi / w), math.floor(eta / w)) in keys


def whitney_scale_brute_force(xi: float, eta: float) -> int:
    """The definition with exact integer floors at every scale, walking up
    from 2^-1100, below every float's own scale, with no upper limit."""
    (a, b), (c, d) = xi.as_integer_ratio(), eta.as_integer_ratio()
    j = -1100
    while True:
        k = (a << -j) // b if j < 0 else a // (b << j)
        kp = (c << -j) // d if j < 0 else c // (d << j)
        if abs(k - kp) <= 1 or abs(k + kp + 1) <= 1:
            return j - 1
        j += 1


def test_whitney_scale_equals_unbounded_search():
    rng = np.random.default_rng(7)
    points = [(1e-20, 3e-20), (1e30, -3e30), (3.3, -9.7), (5e-324, 0.0), (1.7e308, -1.0)]
    for _ in range(200):
        xi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
        near = rng.choice([-1.0, 1.0]) * xi * (1.0 + 10.0 ** rng.uniform(-15, 0))
        far = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
        points += [(float(xi), float(near)), (float(xi), float(far))]
    want = [whitney_scale_brute_force(xi, eta) for xi, eta in points]
    for (xi, eta), j in zip(points, want):
        assert whitney_scale(xi, eta) == j, (xi, eta)
    assert whitney_scale(1e-20, 3e-20) == -66
    assert type(whitney_scale(1e-20, 3e-20)) is int
    # all 405 points as arrays: one int64 scale each, in the arrays' shape
    xi, eta = np.array(points).T
    got = whitney_scale(xi, eta)
    assert got.dtype == np.int64 and got.shape == (405,)
    assert got.tolist() == want
    assert np.array_equal(whitney_scale(xi.reshape(27, 15), eta.reshape(27, 15)),
                          np.reshape(want, (27, 15)))


def whitney_pairs_brute_force(j_min: int, j_max: int, xi_max: float) -> np.ndarray:
    """The definition: test every (k, k') at every scale, O(K^2)."""
    pairs = []
    for j in range(j_min, j_max + 1):
        k_hi = int(math.ceil(xi_max / 2.0 ** j))
        ks = range(-k_hi, k_hi)
        for k in ks:
            for kp in ks:
                if whitney_related(k, kp):
                    pairs.append((j, k, kp))
    return np.array(pairs, dtype=np.int64).reshape(-1, 3)


@pytest.mark.parametrize("args", [(-2, 1, 8.0), (-3, 2, 16.0), (-1, 1, 5.5), (-4, 0, 12.0)])
def test_whitney_pairs_equal_brute_force(args):
    # the same rows in the same order
    got = whitney_pairs(*args)
    assert got.dtype == np.int64
    assert np.array_equal(got, whitney_pairs_brute_force(*args))


@pytest.mark.parametrize("xi_max", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_whitney_pairs_rejects_bad_xi_max(xi_max):
    with pytest.raises(ValueError, match="xi_max must be finite and positive"):
        whitney_pairs(-1, 0, xi_max)


@pytest.mark.parametrize("args, message", [
    ((0, 1100, 1.0), "scales [0, 1100] leave [-1022, 1023]"),      # 2^1100 overflows
    ((-1100, -1099, 1.0), "scales [-1100, -1099] leave [-1022, 1023]"),  # 2^-1100 is 0
    ((-40, -40, 1.0), "ask for more than 65536 intervals"),     # 2^41 intervals
    ((-1022, -1000, 1e300), "ask for more than 65536 intervals"),
    ((-15, -15, 1.0 + 2.0 ** -52), "ask for more than 65536 intervals"),  # 2^16 + 2
    ((-15, -14, 1.0), "ask for more than 65536 intervals"),     # 2^16 + 2^15, summed
])
def test_whitney_pairs_rejects_windows_beyond_bounds(args, message):
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        whitney_pairs(*args)
    assert "\n" not in str(info.value)


def test_whitney_pairs_interval_bound_is_inclusive():
    # scale -15 alone has 2^16 intervals: the bound itself is allowed
    assert MAX_WHITNEY_INTERVALS == 2 ** 16
    assert len(whitney_pairs(-15, -15, 1.0)) == 6 * 2 ** 16 - 24
    # coarse scales up to the largest normal width hold one interval a side
    assert whitney_pairs(1000, 1023, 1.0).shape == (0, 3)


@pytest.mark.parametrize("point", [(math.inf, 1.0), (1.0, -math.inf), (math.nan, 0.5),
                                   (0.5, math.nan)])
def test_whitney_scale_rejects_non_finite_points(point):
    with pytest.raises(ValueError, match="not finite"):
        whitney_scale(*point)


def test_whitney_scale_rejects_diagonals():
    with pytest.raises(ValueError, match="diagonal"):
        whitney_scale(1.5, 1.5)
    with pytest.raises(ValueError, match="diagonal"):
        whitney_scale(2.0, -2.0)
    with pytest.raises(ValueError):
        whitney_pairs(3, 1, 8.0)
    with pytest.raises(ValueError, match="no pairs"):
        partition_check([], np.zeros((1, 2)))


def partition_check_by_loop(pairs: np.ndarray, samples: np.ndarray) -> tuple[int, int]:
    """(counted, bad) by the definition, one sample and one scale at a time
    (whitney_scale on scalars is checked against the brute force above)."""
    j_lo, j_hi = int(pairs[:, 0].min()), int(pairs[:, 0].max())
    keys = set(map(tuple, pairs.tolist()))
    counted = bad = 0
    for xi, eta in samples.tolist():
        j = whitney_scale(xi, eta)
        if not j_lo <= j <= j_hi:
            continue
        total = sum((jj, math.floor(xi / 2.0 ** jj), math.floor(eta / 2.0 ** jj)) in keys
                    for jj in range(j_lo, j_hi + 1))
        counted += 1
        bad += total != 1
    return counted, bad


@pytest.mark.parametrize("seed, counted", [(0, 4074), (1, 4067)])
def test_partition_check_equals_loop_on_scan_samples(seed, counted):
    # perfbench's scan: four uniform draws, then the samples
    rng = np.random.default_rng(seed)
    rng.uniform(size=4)
    samples = rng.uniform(-16.0, 16.0, size=(4096, 2))
    pairs = whitney_pairs(-5, 2, 32.0)
    got = partition_check(pairs, samples)
    assert (got["counted"], got["bad"]) == partition_check_by_loop(pairs, samples) == (counted, 0)


def test_partition_check_equals_loop_off_the_scale_window_and_near_diagonals():
    pairs = whitney_pairs(-3, 2, 16.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-8.0, 8.0, 300)
    tiny = rng.uniform(-1e-12, 1e-12, 300)
    samples = np.concatenate([
        np.column_stack((x, x + tiny)),    # covering scales far below j_lo
        np.column_stack((x, -x + tiny)),
        rng.uniform(-1e3, 1e3, (300, 2)),  # most above j_hi, some counted beyond xi_max
        rng.uniform(-8.0, 8.0, (300, 2)),
    ])
    samples = samples[(samples[:, 0] != samples[:, 1]) & (samples[:, 0] != -samples[:, 1])]
    scales = whitney_scale(samples[:, 0], samples[:, 1])
    assert np.any(scales < -3) and np.any(scales > 2)
    got = partition_check(pairs, samples)
    want = partition_check_by_loop(pairs, samples)
    assert (got["counted"], got["bad"]) == want
    # counted points beyond xi_max = 16 lie in no pair: bad in both
    assert 0 < want[0] < len(samples) and want[1] > 0
    # a pair dropped from the list shows up as bad samples, in both
    cut = np.delete(pairs, 100, axis=0)
    got = partition_check(cut, samples)
    assert (got["counted"], got["bad"]) == partition_check_by_loop(cut, samples)


@pytest.mark.parametrize("samples", [np.zeros(4), np.zeros((3, 3)), np.zeros((2, 2, 2))])
def test_partition_check_rejects_misshapen_samples(samples):
    with pytest.raises(ValueError, match=r"samples must be an \(N, 2\) array"):
        partition_check(whitney_pairs(-1, 0, 4.0), samples)


def test_partition_check_rejects_non_finite_samples():
    with pytest.raises(ValueError, match="not finite"):
        partition_check(whitney_pairs(-1, 0, 4.0), np.array([[0.3, 1.9], [np.nan, 1.0]]))


# ---------------------------------------------------------------------------
# restriction-type ratio
# ---------------------------------------------------------------------------

def test_stein_tomas_zero_input():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    zero = GridFunction(g, np.zeros(g.n, complex), FOURIER)
    assert stein_tomas_ratio(zero, ALPHA, SIGMA, 4.0) == 0.0


def test_stein_tomas_alpha_validation():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    f = bump(g, 2.0, 1.0)
    with pytest.raises(ValueError, match=r"^alpha must lie in \(4/3, 2\), got 2.5$"):
        stein_tomas_ratio(f, 2.5, SIGMA, 4.0)


def test_stein_tomas_flags_short_windows():
    # a single-cell density gives |free evolution| constant in time, so
    # the space-time integral never saturates and doubling must move it
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    xi = g.frequencies()
    vals = (np.abs(xi - 2.0) < g.dxi / 2.0).astype(complex)
    f = GridFunction(g, vals, FOURIER)
    with pytest.raises(ValueError, match="bounds the usable window"):
        stein_tomas_ratio(f, ALPHA, SIGMA, 4.0)


def test_stein_tomas_refusal_names_the_period_not_a_longer_window():
    # on this torus the Gaussian's Airy flow wraps around instead of
    # dispersing: windows 2, 4, 8 and 16 are all refused, so the message
    # must not suggest a longer one
    g = Grid(512, 32 * np.pi, -16 * np.pi)
    f = GridFunction(g, np.exp(-g.nodes() ** 2) + 0j)
    with pytest.raises(ValueError) as info:
        stein_tomas_ratio(f, ALPHA, SIGMA, 2.0)
    message = str(info.value)
    assert "\n" not in message and "retry" not in message
    assert message.startswith("time window 2.0 too short: doubling moved the norm by 2.15%")
    assert f"the grid's period {g.length:.6g} bounds the usable window" in message


def test_stein_tomas_translation_invariance():
    from dlab.deformations import translate
    g = Grid(1024, 2 * np.pi * 64, -np.pi * 64)
    x = g.nodes()
    base = GridFunction(g, np.exp(-(x / 3.0) ** 2) * np.cos(2.0 * x) + 0j)
    r0 = stein_tomas_ratio(base, ALPHA, SIGMA, 16.0, nt=257)
    r1 = stein_tomas_ratio(translate(base, 1.7), ALPHA, SIGMA, 16.0, nt=257)
    assert r0 > 0
    assert abs(r1 - r0) / r0 < 0.02


def test_airy_frames_match_per_time_flow():
    g = Grid(128, 2 * np.pi * 4, -np.pi * 4)
    x = g.nodes()
    f = GridFunction(g, np.exp(-x ** 2) * np.cos(3.0 * x) + 0.5j * np.exp(-(x - 1) ** 2))
    t_grid = np.linspace(-0.3, 0.4, ROW_BLOCK + 7)  # crosses a block seam
    for deriv in (0.0, 1.0 / (3.0 * ALPHA), 1.5):
        frames = airy_frames(f, t_grid, deriv)
        assert frames.shape == (t_grid.size, g.n)
        for t, got in zip(t_grid, frames):
            want = fractional_derivative(airy_flow(f, float(t)), deriv).to_physical().values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_stein_tomas_middle_rows_are_the_single_window():
    # the 1x window is the middle nt rows of the doubled one: same spacing
    g = Grid(512, 2 * np.pi * 16, -np.pi * 16)
    x = g.nodes()
    f = GridFunction(g, np.exp(-x ** 2) + 0j)
    window, nt, p = 4.0, 129, 3.0 * ALPHA

    def lp_norm(frames, times):
        space = np.sum(np.abs(frames) ** p, axis=1) * g.dx
        return np.trapezoid(space, times) ** (1.0 / p)

    t1 = np.linspace(-window, window, nt)
    t2 = np.linspace(-2.0 * window, 2.0 * window, 2 * nt - 1)
    mid = slice((nt - 1) // 2, (nt - 1) // 2 + nt)
    assert np.max(np.abs(t2[mid] - t1)) < 1e-14 * window
    frames2 = airy_frames(f, t2, 1.0 / p)
    middle = lp_norm(frames2[mid], t2[mid])
    single = lp_norm(airy_frames(f, t1, 1.0 / p), t1)
    assert abs(middle - single) <= 1e-12 * single


def test_stein_tomas_rejects_even_nt():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    with pytest.raises(ValueError, match="odd"):
        stein_tomas_ratio(bump(g, 2.0, 1.0), ALPHA, SIGMA, 4.0, nt=256)


@pytest.mark.parametrize("nt", [1, -1])
def test_stein_tomas_rejects_too_few_samples(nt):
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    with pytest.raises(ValueError, match="at least 3"):
        stein_tomas_ratio(bump(g, 2.0, 1.0), ALPHA, SIGMA, 4.0, nt=nt)


@pytest.mark.parametrize("window", [0.0, -4.0, math.inf, -math.inf, math.nan, 1e200, 1e308])
def test_stein_tomas_rejects_bad_time_window(window):
    # max|xi| = 16 here: 2 * 1e200 * 16^3 is far past 2^52, 2 * 1e308 overflows
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    message = ("time_window must be positive and finite" if not 0 < window < math.inf
               else f"time_window {window} puts Airy phases up to")
    with pytest.raises(ValueError, match=re.escape(message)):
        stein_tomas_ratio(bump(g, 2.0, 1.0), ALPHA, SIGMA, window, nt=33)


def materialised_stein_tomas(f: GridFunction, window: float, nt: int) -> float:
    # every frame held at once: the reference for the streamed row sums
    e = 3.0 * ALPHA
    t2 = np.linspace(-2.0 * window, 2.0 * window, 2 * nt - 1)
    space = np.sum(np.abs(airy_frames(f, t2, 1.0 / e)) ** e, axis=1) * f.grid.dx
    return float(np.trapezoid(space, t2) ** (1.0 / e)) / morrey_norm(f, ALPHA, 2.0, SIGMA)


@pytest.mark.parametrize("nt", [17, 65])
def test_stein_tomas_streamed_row_sums_match_materialised_frames(nt):
    # 33 rows fit one block (per-entry exp); 129 rows end in a one-row block (phase table)
    g = Grid(512, 2 * np.pi * 16, -np.pi * 16)
    x = g.nodes()
    f = GridFunction(g, np.exp(-x ** 2) * np.cos(2.0 * x) + 0.3j * np.exp(-(x - 1.0) ** 2))
    assert (2 * nt - 1) % ROW_BLOCK != 0
    assert stein_tomas_ratio(f, ALPHA, SIGMA, 2.0, nt=nt) == materialised_stein_tomas(f, 2.0, nt)


def criterion_10_gaussian() -> GridFunction:
    g = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    return GridFunction(g, np.exp(-g.nodes() ** 2) + 0j)


def traced_peak_of_the_widest_ratio() -> int:
    # the widest criterion-10 window: 2049 x 4096 frames would take 134 MB
    tracemalloc.start()
    try:
        ratio = stein_tomas_ratio(criterion_10_gaussian(), ALPHA, SIGMA, 32.0, nt=1025)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ratio > 0
    return peak


def test_stein_tomas_traced_peak_without_helpers_holds_one_number_per_window(monkeypatch):
    # on the calling thread alone the peak is one block's temporaries and the
    # phase table, 5.8 MB; keeping a (2, 4096) partial per block reads 10 MB
    monkeypatch.setattr(grid_module, "HELPERS", 0)
    assert traced_peak_of_the_widest_ratio() < 8e6


def test_stein_tomas_ratio_is_the_L_norm_of_airy_frames_over_the_morrey_norm():
    # criterion 10's input: the ratio's numerator is spacetime_norm's L preset,
    # p = q = 3 alpha, s = 1/(3 alpha), of the free Airy evolution
    f0 = criterion_10_gaussian()
    t2 = np.linspace(-32.0, 32.0, 1025)
    field = SpaceTimeField(f0.grid, t2, airy_frames(f0, t2, 0.0))
    want = (spacetime_norm(field, NormSpec.from_preset("L", ALPHA))
            / morrey_norm(f0, ALPHA, 2.0, SIGMA))
    assert abs(stein_tomas_ratio(f0, ALPHA, SIGMA, 16.0, nt=513) - want) <= 1e-14 * want


def power_of_two_times(f: GridFunction, k: int) -> GridFunction:
    """2^k f, scaled on the Fourier side (exact while no sample goes subnormal)."""
    return GridFunction(f.grid, f.to_fourier().values * 2.0 ** k, FOURIER)


def test_stein_tomas_ratio_is_homogeneous_of_degree_0():
    # without the power-of-two scaling, 2^-300 f underflows the Morrey norm to 0
    # and 2^300 f overflows |u|^{3 alpha} to inf
    f0 = criterion_10_gaussian().to_fourier()
    want = stein_tomas_ratio(f0, ALPHA, SIGMA, 16.0, nt=513)
    for k in (-300, 300):
        fk = power_of_two_times(f0, k)
        parts = np.abs(fk.values.view(np.float64))
        assert not np.any((parts > 0) & (parts < np.finfo(np.float64).tiny))
        assert stein_tomas_ratio(fk, ALPHA, SIGMA, 16.0, nt=513) == want


@pytest.mark.parametrize("k", [-300, 0, 300])
def test_stein_tomas_refuses_a_short_window_at_every_amplitude(k):
    # without the power-of-two scaling, the Morrey norm of 2^-300 f underflows
    # to 0, which returned 0.0 before the window check
    g = Grid(512, 32 * np.pi, -16 * np.pi)
    f = power_of_two_times(GridFunction(g, np.exp(-g.nodes() ** 2) + 0j), k)
    with pytest.raises(ValueError, match="^time window 2.0 too short: doubling moved the norm "
                                         "by 2.15%"):
        stein_tomas_ratio(f, ALPHA, SIGMA, 2.0)


def test_stein_tomas_traced_peak_stays_small():
    # holding every frame at once peaked near 200 MB
    assert traced_peak_of_the_widest_ratio() < 40e6
    # collected into a given array, physical_rows hands that array back
    f0 = criterion_10_gaussian()
    g = f0.grid
    xi = g.frequencies()
    t_grid = np.linspace(-1.0, 1.0, ROW_BLOCK + 3)
    rows = np.empty((t_grid.size, g.n), dtype=complex)
    spectrum = f0.to_fourier().values
    got = physical_rows(g, spectrum, times=t_grid, dispersion=xi ** 3, out=rows)
    assert got is rows
    assert np.array_equal(rows, airy_frames(f0, t_grid, 0.0))


def test_airy_frames_factorised_phases_match_direct_exp():
    # the largest criterion-10 shape: 2 * 1025 - 1 times on its n = 4096 grid
    g = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    xi = g.frequencies()
    f = GridFunction(g, np.exp(-g.nodes() ** 2) + 0j)
    t_grid = np.linspace(-64.0, 64.0, 2 * 1025 - 1)
    assert t_grid.size % ROW_BLOCK == 1  # the last block has one row
    deriv = 1.0 / (3.0 * ALPHA)
    frames = airy_frames(f, t_grid, deriv)
    spec = f.to_fourier().values * np.abs(xi) ** deriv
    err = peak = 0.0
    for t, got in zip(t_grid, frames):
        want = GridFunction(g, spec * np.exp(1j * t * xi ** 3), FOURIER).to_physical().values
        err = max(err, float(np.max(np.abs(got - want))))
        peak = max(peak, float(np.max(np.abs(want))))
    assert err <= 1e-12 * peak


# ---------------------------------------------------------------------------
# decoupling ledger
# ---------------------------------------------------------------------------

def test_decoupling_exact_profile_has_positive_deficit():
    g = Grid(512, 2 * np.pi * 16, -np.pi * 16)
    psi = bump(g, 0.5, 1.0)
    gamma_d = Deformation(0, xi=-4.0)
    u = apply(gamma_d, psi, d_exponent=ALPHA)
    rows = decoupling_check([u], psi, [gamma_d], gamma=1.1, xi0=0.0,
                            alpha=ALPHA, sigma=SIGMA)
    assert len(rows) == 1
    row = rows[0]
    assert row["term_residual"] == pytest.approx(0.0, abs=1e-20)
    norm_sig = morrey_norm(u, ALPHA, 2.0, SIGMA) ** SIGMA
    assert row["deficit"] == pytest.approx(0.1 * norm_sig, rel=1e-9)


def test_decoupling_validation():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    psi = bump(g, 0.5, 1.0)
    u = apply(Deformation(0), psi, d_exponent=ALPHA)
    with pytest.raises(ValueError, match="gamma"):
        decoupling_check([u], psi, [Deformation(0)], gamma=1.0, xi0=0.0,
                         alpha=ALPHA, sigma=SIGMA)
    with pytest.raises(ValueError, match="one deformation per input"):
        decoupling_check([u, u], psi, [Deformation(0)], gamma=1.1, xi0=0.0,
                         alpha=ALPHA, sigma=SIGMA)


# ---------------------------------------------------------------------------
# greedy extraction
# ---------------------------------------------------------------------------

PLANT_GRID = Grid(2048, 2 * np.pi * 16, -np.pi * 16)


def test_extract_recovers_planted_parameters():
    psi = bump(PLANT_GRID, 0.5, 1.0)
    planted = Deformation(2, xi=5.0, s=0.1, y=1.0)
    u = apply(planted, psi, d_exponent=ALPHA)
    got_psi, gammas, residuals, diag = extract_profile(
        [u], ALPHA, t_scan=0.05)
    assert not diag["degenerate"]
    gamma = gammas[0]
    assert gamma.log2_h == planted.log2_h
    assert abs(gamma.xi - planted.xi) <= PLANT_GRID.dxi + 1e-12
    assert abs(gamma.s - planted.s) < 0.05
    assert abs(gamma.y - planted.y) < 1.0
    res_frac = residuals[0].l2_norm() / u.l2_norm()
    assert res_frac < 0.1
    # the reconstruction identity u = apply(G, psi) + r holds exactly
    recon = apply(gamma, got_psi, d_exponent=ALPHA) + residuals[0]
    assert (recon - u).l2_norm() / u.l2_norm() < 1e-12


def test_extract_degenerate_zero_input():
    zero = GridFunction(PLANT_GRID, np.zeros(PLANT_GRID.n, complex), FOURIER)
    psi, gammas, residuals, diag = extract_profile([zero, zero], ALPHA)
    assert diag["degenerate"]
    assert psi.l2_norm() == 0.0
    assert gammas == [Deformation(0), Deformation(0)]
    assert residuals[0].l2_norm() == 0.0
    with pytest.raises(ValueError, match="empty input"):
        extract_profile([], ALPHA)


@pytest.mark.parametrize("t_scan", [0.0, -1.0, math.inf, math.nan, 1e200, 1e308])
def test_extract_profile_rejects_bad_t_scan(t_scan):
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    message = ("t_scan must be positive and finite" if not 0 < t_scan < math.inf
               else f"t_scan {t_scan} puts Airy phases up to")
    with pytest.raises(ValueError, match=re.escape(message)):
        extract_profile([bump(g, 2.0, 1.0)], ALPHA, t_scan=t_scan)


def selector_by_scale(f: GridFunction, alpha: float,
                      fixed_j: int | None = None) -> tuple[float, int, int]:
    """The selector as a loop over scales, kept as the oracle of the engine's
    one pass: the best (value, j, k) of |I|^{-1/(3a)} ||fhat||_{L^b(I)},
    b = (3a/2)', over I = [k 2^j, (k+1) 2^j); with fixed_j only that scale.
    Below a cell it credits a whole cell's mass to the interval holding the
    cell's left edge, so only scales from the cell width up are exact."""
    fh = f.to_fourier()
    g = fh.grid
    dens = np.abs(fh.values)
    b = conjugate_exponent(1.5 * alpha)
    cell = dens ** b * g.dxi
    xi_left = g.frequencies()
    j0 = int(round(math.log2(g.dxi)))
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


def all_scales(grid: Grid) -> range:
    j0 = int(round(math.log2(grid.dxi)))
    return range(j0, j0 + int(round(math.log2(grid.n))) + 1)


def cut_bump(center: float, width: float, amp: float) -> GridFunction:
    """The profile of checks.check_profiles and perfbench's scan, on PLANT_GRID."""
    xi = PLANT_GRID.frequencies()
    v = np.where((xi >= center - width / 2 - 1e-12) & (xi < center + width / 2 - 1e-12),
                 amp * np.exp(-(xi - center) ** 2 * 8.0 / width ** 2), 0.0)
    return GridFunction(PLANT_GRID, v.astype(complex), FOURIER)


def criterion_12_inputs() -> dict[str, list[GridFunction]]:
    """The inputs of the profile-extraction battery (checks.check_profiles)."""
    psi1, psi2 = cut_bump(0.5, 1.0, 2.0), cut_bump(0.5, 1.0, 1.0)
    x = PLANT_GRID.nodes()
    return {
        "single": [apply(Deformation(2, xi=float(n), s=0.1, y=1.0), psi2, d_exponent=ALPHA)
                   for n in (2, 3, 5, 8)],
        "pair": [apply(Deformation(0, xi=float(n)), psi1, d_exponent=ALPHA)
                 + apply(Deformation(0, xi=-float(n), s=0.02, y=3.0), psi2, d_exponent=ALPHA)
                 for n in (8, 16, 32, 48)],
        "conjugate": [GridFunction(PLANT_GRID, (np.exp(-1j * x * n) * np.exp(-x ** 2)).real
                                   .astype(complex), PHYSICAL) for n in (16.0, 32.0, 48.0)],
    }


def scan_inputs(seed: int) -> list[GridFunction]:
    """perfbench's scan inputs at `seed`: the two planted states, the
    two-profile input and the residuals its first extraction leaves."""
    rng = np.random.default_rng(seed)
    planted = [apply(Deformation(2, xi=float(n), s=float(rng.uniform(-0.2, 0.2)),
                                 y=float(rng.uniform(-2.0, 2.0))), cut_bump(0.5, 1.0, 1.0),
                     d_exponent=ALPHA) for n in (3, 8)]
    pair = criterion_12_inputs()["pair"]
    return planted + pair + extract_profile(pair, ALPHA, t_scan=0.05)[2]


def random_bands(count: int, seed: int) -> list[GridFunction]:
    """Bands of 1 to 300 random cells on PLANT_GRID, some wrapping around
    the end of the cell array, each also as its FFT-made copy."""
    rng = np.random.default_rng(seed)
    n = PLANT_GRID.n
    out = []
    for _ in range(count):
        cells = (rng.integers(n) + np.arange(rng.integers(1, 301))) % n
        vals = np.zeros(n, complex)
        vals[cells] = rng.normal(size=cells.size) + 1j * rng.normal(size=cells.size)
        band = GridFunction(PLANT_GRID, vals, FOURIER)
        out += [band, band.to_physical().to_fourier()]
    return out


def interval_value(f: GridFunction, j: int, k: int) -> float:
    """|I|^{-1/(3a)} ||fhat||_{L^b(I)} on I = [k 2^j, (k+1) 2^j), summed as the oracle does."""
    fh = f.to_fourier()
    w, b = 2.0 ** j, conjugate_exponent(1.5 * ALPHA)
    inside = np.floor(fh.grid.frequencies() / w + 1e-12) == k
    return w ** (-1.0 / (3.0 * ALPHA)) * np.sum(np.abs(fh.values[inside]) ** b
                                                 * fh.grid.dxi) ** (1.0 / b)


def assert_selector_matches_oracle(f: GridFunction) -> None:
    """Per scale the same value and k; the free choice, which extract_profile
    uses, has the same (j, k).  At a scale that is not the free choice a real
    input's mirrored intervals can tie to roundoff (the same mass but for one
    cell ~1e-17 at each end), and then either k may win."""
    scales = all_scales(f.grid)
    values, ks = profiles._selector(f, ALPHA, scales)
    for i, j in enumerate(scales):
        want, _, want_k = selector_by_scale(f, ALPHA, fixed_j=j)
        assert values[i] == pytest.approx(want, rel=1e-14, abs=0.0)
        if ks[i] != want_k:
            assert interval_value(f, j, ks[i]) == pytest.approx(want, rel=1e-14, abs=0.0)
    want, want_j, want_k = selector_by_scale(f, ALPHA)
    i = int(np.argmax(values))
    assert (scales[i], ks[i]) == (want_j, want_k)
    assert values[i] == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", ["single", "pair", "conjugate", "scan0", "scan1"])
def test_selector_matches_by_scale_oracle_on_battery_inputs(name):
    inputs = scan_inputs(int(name[-1])) if name.startswith("scan") else criterion_12_inputs()[name]
    for f in inputs:
        assert_selector_matches_oracle(f)


@pytest.mark.parametrize("seed", [0, 1])
def test_selector_matches_by_scale_oracle_on_random_bands(seed):
    for f in random_bands(150, seed):
        assert_selector_matches_oracle(f)


@pytest.mark.parametrize("second", [3.0, 1.0 / 3.0])
def test_selector_matches_by_scale_oracle_across_a_skipped_gap(second):
    # two 16-cell runs 1184 cells apart, so the aggregate skips the gap; the
    # maximising interval at the fine scales lies in the stronger run, past
    # the gap when it is the second
    vals = np.zeros(PLANT_GRID.n, complex)
    vals[100:116] = np.exp(-np.linspace(-1.0, 1.0, 16) ** 2)
    vals[1300:1316] = second * vals[100:116]
    f = GridFunction(PLANT_GRID, vals, FOURIER)
    assert profiles._prepare_density(*norms._fourier_cells(f), r=math.inf, b=2.0).gap_lo.size == 1
    assert_selector_matches_oracle(f)
    _, ks = profiles._selector(f, ALPHA, all_scales(PLANT_GRID))
    past_gap = np.asarray(ks[:4]) * 2.0 ** np.arange(-4, 0) >= PLANT_GRID.frequencies()[1300]
    assert np.all(past_gap) if second > 1.0 else not np.any(past_gap)


def test_selector_of_zero_input_is_zero_at_k_zero():
    zero = GridFunction(PLANT_GRID, np.zeros(PLANT_GRID.n, complex), FOURIER)
    values, ks = profiles._selector(zero, ALPHA, all_scales(PLANT_GRID))
    assert not np.any(values) and not np.any(ks)


@pytest.mark.parametrize("name", ["single", "pair", "conjugate"])
def test_extract_profile_agrees_with_the_by_scale_oracle(monkeypatch, name):
    inputs = criterion_12_inputs()[name]
    psi, gammas, residuals, diag = extract_profile(inputs, ALPHA, t_scan=0.05)

    def oracle(f, alpha, scales):
        rows = [selector_by_scale(f, alpha, fixed_j=j) for j in scales]
        return np.array([v for v, _, _ in rows]), np.array([k for _, _, k in rows])

    monkeypatch.setattr(profiles, "_selector", oracle)
    want_psi, want_gammas, want_residuals, want_diag = extract_profile(inputs, ALPHA, t_scan=0.05)
    assert gammas == want_gammas
    # the same indices, in the same order, are averaged into psi
    assert list(np.argsort(diag["selector"])[::-1][:3]) == list(
        np.argsort(want_diag["selector"])[::-1][:3])
    assert np.array_equal(psi.values, want_psi.values)
    for r, want in zip(residuals, want_residuals):
        assert np.array_equal(r.values, want.values)
    np.testing.assert_allclose(diag["selector"], want_diag["selector"], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("other", [Grid(2048, 2 * np.pi * 8, -np.pi * 16),
                                   Grid(1024, 2 * np.pi * 16, -np.pi * 16),
                                   Grid(2048, 2 * np.pi * 16, 0.0)],
                         ids=["length", "n", "x0"])
def test_extract_profile_refuses_mixed_grids_up_front(monkeypatch, other):
    u = bump(PLANT_GRID, 0.5, 1.0)
    odd = bump(other, 0.5, 1.0)

    def never(*args):
        raise AssertionError("selector ran on mixed grids")

    monkeypatch.setattr(profiles, "_selector", never)
    with pytest.raises(ValueError, match=r"^input 2 is on Grid\(.*, input 0 on Grid\(") as info:
        extract_profile([u, u, odd, odd, u], ALPHA)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("side", [FOURIER, PHYSICAL])
def test_extract_profile_refuses_a_nan_sample(side):
    u = bump(PLANT_GRID, 0.5, 1.0)
    if side == PHYSICAL:
        u = u.to_physical()
    u.values[7] = math.nan
    with pytest.raises(ValueError, match="^density values must be finite and nonnegative$"):
        extract_profile([bump(PLANT_GRID, 0.5, 1.0), u], ALPHA)


def test_extract_profile_refuses_a_non_dyadic_grid():
    g = Grid(256, 40.0 * np.pi, -20.0 * np.pi)  # dxi = 0.05
    with pytest.raises(ValueError, match=r"^frequency spacing 0\.05 is not a power of two$"):
        extract_profile([bump(g, 2.0, 1.0)], ALPHA)


def test_selector_window_bound_refuses_full_support_beyond_2_18_cells():
    # a full support on n cells puts n / 2^i + 1 intervals at width 2^i cells,
    # 2n + log2 n over the selector's scales
    for n, fits in ((2 ** 18, True), (2 ** 19, False)):
        assert (2 * n + n.bit_length() - 1 <= norms._MAX_WINDOW_INTERVALS) == fits
    small = GridFunction(Grid(2 ** 18, 2 * np.pi), np.ones(2 ** 18, complex), FOURIER)
    values, ks = profiles._selector(small, ALPHA, all_scales(small.grid))
    assert np.all(values > 0)
    big = GridFunction(Grid(2 ** 19, 2 * np.pi), np.ones(2 ** 19, complex), FOURIER)
    message = rf"^norm window \(-19, 0\) holds more than {norms._MAX_WINDOW_INTERVALS} "
    with pytest.raises(ValueError, match=message):
        profiles._selector(big, ALPHA, all_scales(big.grid))
    with pytest.raises(ValueError, match=message):
        extract_profile([big], ALPHA)


@pytest.mark.parametrize("support, size", [("band", 16), ("wraps", 272), ("dense", 2048),
                                           ("empty", 0)])
def test_support_is_the_shortest_circular_run_of_nonzero_cells(support, size):
    # a 16-cell band, two bands on either side of xi = 0 (one run around the
    # end in FFT order), every cell, and no cell
    g = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = g.frequencies()
    cells = {"band": (xi >= -12.0) & (xi < -11.0),
             "wraps": ((xi >= -8.0) & (xi < -7.0)) | ((xi >= 8.0) & (xi < 9.0)),
             "dense": np.ones(g.n, dtype=bool),
             "empty": np.zeros(g.n, dtype=bool)}[support]
    rng = np.random.default_rng(12)
    spectrum = np.fft.ifftshift(np.where(cells, rng.normal(size=g.n) + 1j, 0.0))
    cols = profiles._support(spectrum)
    assert cols.size == size
    assert np.all(np.diff(cols) % g.n == 1)
    assert np.count_nonzero(spectrum[cols]) == np.count_nonzero(spectrum)


def full_width_argmax(f: GridFunction, t_scan: float) -> tuple[tuple[int, int], np.ndarray]:
    """The space-time argmax as the full-width scan, kept as the oracle of the
    coarse scan and its certified refinement: np.argmax of |.| over all
    SCAN_FRAMES x n samples.  Returns its (it, ix) and the magnitudes."""
    t_grid = np.linspace(-t_scan, t_scan, profiles.SCAN_FRAMES)
    mag = np.abs(airy_frames(f, t_grid, 1.0 / (3.0 * ALPHA)))
    it, ix = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return (int(it), int(ix)), mag


def argmax_indices(f: GridFunction, t_scan: float) -> tuple[int, int]:
    """(it, ix) of _spacetime_argmax's (t*, x*), which must be a time of the
    scan and a node of the grid exactly."""
    t_star, x_star = profiles._spacetime_argmax(f, ALPHA, t_scan)
    t_grid = np.linspace(-t_scan, t_scan, profiles.SCAN_FRAMES)
    g = f.grid
    (it,) = np.flatnonzero(t_grid == t_star)
    ix = round((x_star - g.x0) / g.dx)
    assert x_star == g.x0 + ix * g.dx
    return int(it), ix


def scan_bands(count: int, seed: int) -> list[GridFunction]:
    """Random bands of 1 to 300 cells on PLANT_GRID, in turn: ending at the
    grid's top edge, starting at its bottom edge, straddling the edge, around
    frequency 0 (wrapped around in FFT order), and anywhere."""
    rng = np.random.default_rng(seed)
    n = PLANT_GRID.n
    out = []
    for i in range(count):
        size = int(rng.integers(1, 301))
        start = (n - size, 0, n - size // 2, n // 2 - size // 2, int(rng.integers(n)))[i % 5]
        vals = np.zeros(n, complex)
        vals[(start + np.arange(size)) % n] = rng.normal(size=size) + 1j * rng.normal(size=size)
        out.append(GridFunction(PLANT_GRID, vals, FOURIER))
    return out


@pytest.mark.parametrize("t_scan", [1e-3, 0.05, 0.5])
def test_spacetime_argmax_matches_full_width_scan_on_random_bands(t_scan):
    # a different pick is a tie to roundoff: the coarse scan's phases and sums
    # round differently from the full-width ifft's, so on a band whose |.| is
    # flat (a single cell) either node may win
    for f in scan_bands(60, seed=round(1e3 * t_scan)):
        want, mag = full_width_argmax(f, t_scan)
        got = argmax_indices(f, t_scan)
        if got != want:
            assert mag[got] == pytest.approx(mag[want], rel=1e-12, abs=0.0)


def test_spacetime_argmax_of_a_full_band_is_the_full_width_scan():
    rng = np.random.default_rng(3)
    n = PLANT_GRID.n
    for size in (n, n // 16 + 1):
        vals = np.zeros(n, complex)
        vals[:size] = rng.normal(size=size) + 1j * rng.normal(size=size)
        f = GridFunction(PLANT_GRID, np.roll(vals, int(rng.integers(n))), FOURIER)
        assert argmax_indices(f, 0.05) == full_width_argmax(f, 0.05)[0]


def flat_band(size: int) -> GridFunction:
    """A band of `size` cells on PLANT_GRID with one dominant cell: |.| varies by
    ~1 %, below the Bernstein step, so every coarse cell is kept."""
    vals = np.zeros(PLANT_GRID.n, complex)
    vals[700:700 + size] = 1e-3 * np.exp(1j * np.arange(size))
    vals[700 + size // 2] = 1.0
    return GridFunction(PLANT_GRID, vals, FOURIER)


def full_width_scans(monkeypatch, f: GridFunction, t_scan: float) -> int:
    """Runs _spacetime_argmax on f and counts its map_row_blocks calls, which
    only the full-width scan makes."""
    calls = []
    scan = profiles.map_row_blocks

    def record(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(profiles, "map_row_blocks", record)
    profiles._spacetime_argmax(f, ALPHA, t_scan)
    monkeypatch.undo()
    return len(calls)


def test_spacetime_argmax_refines_a_nearly_flat_band_in_chunks(monkeypatch):
    # 4 cells: all 257 x 32 coarse cells are kept, and their direct sums, 4 x 64
    # terms each, cost less than the full-width scan, so they are refined over
    # several chunks
    f = flat_band(4)
    assert full_width_scans(monkeypatch, f, 0.05) == 0
    assert argmax_indices(f, 0.05) == full_width_argmax(f, 0.05)[0]
    # 8 to 128 cells: the kept cells' direct sums would cost more than the
    # full-width scan, which is taken instead
    for size in (8, 128):
        f = flat_band(size)
        assert full_width_scans(monkeypatch, f, 0.05) == 1
        assert argmax_indices(f, 0.05) == full_width_argmax(f, 0.05)[0]


def test_spacetime_argmax_refinement_holds_no_table_of_the_band_squared(monkeypatch):
    # a wave packet of n/16 cells on 2^14 nodes: m = n/2 coarse nodes, refined
    # in chunks, holds less than one (SCAN_FRAMES, n) complex scan; a (m, B)
    # table of coarse phases takes 2^23 entries, and with its temporaries 4.3
    # times that scan
    n = 2 ** 14
    g = Grid(n, 2 * np.pi * 16, -np.pi * 16)
    size = n // 16
    vals = np.zeros(n, complex)
    cells = np.arange(size)
    vals[300:300 + size] = np.exp(-((cells - size / 2) / (size / 6)) ** 2 + 0.3j * cells)
    f = GridFunction(g, vals, FOURIER)
    assert full_width_scans(monkeypatch, f, 0.05) == 0
    tracemalloc.start()
    try:
        profiles._spacetime_argmax(f, ALPHA, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < profiles.SCAN_FRAMES * n * 16


def test_spacetime_argmax_breaks_exact_ties_as_np_argmax():
    # a band on the zero frequency alone, which |d/dx|^{1/(3a)} sends to 0:
    # every sample ties, and the first one is picked on the coarse path as well
    vals = np.zeros(PLANT_GRID.n, complex)
    vals[PLANT_GRID.n // 2] = 1.0
    f = GridFunction(PLANT_GRID, vals, FOURIER)
    assert full_width_argmax(f, 0.05)[0] == (0, 0)
    assert profiles._spacetime_argmax(f, ALPHA, 0.05) == (-0.05, PLANT_GRID.x0)


def test_spacetime_argmax_of_a_zero_band_is_the_first_sample():
    zero = GridFunction(PLANT_GRID, np.zeros(PLANT_GRID.n, complex), FOURIER)
    assert profiles._spacetime_argmax(zero, ALPHA, 0.05) == (-0.05, PLANT_GRID.x0)
    assert full_width_argmax(zero, 0.05)[0] == (0, 0)


@pytest.mark.parametrize("name", ["single", "pair", "conjugate"])
def test_spacetime_argmax_matches_full_width_scan_on_battery_bands(monkeypatch, name):
    # criterion 12's extractions; "pair" is also perfbench scan's profile_decompose
    scans = []
    coarse = profiles._spacetime_argmax

    def record(f, alpha, t_scan):
        scans.append((f, t_scan))
        return coarse(f, alpha, t_scan)

    monkeypatch.setattr(profiles, "_spacetime_argmax", record)
    inputs = criterion_12_inputs()[name]
    if name == "single":
        extract_profile(inputs, ALPHA, t_scan=0.05)
    else:
        profile_decompose(inputs, ALPHA, SIGMA, j_max=2, eps_stop=1e-4, t_scan=0.05)
    monkeypatch.undo()
    assert scans
    for f, t_scan in scans:
        assert argmax_indices(f, t_scan) == full_width_argmax(f, t_scan)[0]


def test_default_t_scan_is_symmetric_and_resolves_the_band_phase_spread():
    for j in range(-6, 4):
        w = 2.0 ** j
        for k in range(-40, 40):
            # the Airy phase spread over [k w, (k+1) w) is w^3 ((k+1)^3 - k^3)
            want = min(10.0, 0.25 * profiles.SCAN_FRAMES / (w ** 3 * (3 * k * k + 3 * k + 1)))
            assert profiles._default_t_scan(j, k) == pytest.approx(want, rel=1e-15, abs=0.0)
            # [k w, (k+1) w) mirrors to [(-k-1) w, -k w)
            assert profiles._default_t_scan(j, -k - 1) == profiles._default_t_scan(j, k)
    assert profiles._default_t_scan(0, -1) == 10.0
    assert profiles._default_t_scan(3, -3) == profiles._default_t_scan(3, 2)


def test_decompose_two_profiles_ordered():
    psi1 = bump(PLANT_GRID, 0.5, 1.0, amp=2.0)
    psi2 = bump(PLANT_GRID, 0.5, 1.0, amp=1.0)
    u = (apply(Deformation(0, xi=16.0), psi1, d_exponent=ALPHA)
         + apply(Deformation(0, xi=-16.0, s=0.02, y=3.0), psi2,
                 d_exponent=ALPHA))
    dec = profile_decompose([u], ALPHA, SIGMA, j_max=2, t_scan=0.05)
    assert len(dec.profiles) == 2
    sel = dec.diagnostics["selector_values"]
    assert sel[0] > sel[1]
    lead_signs = [np.sign(gammas[0].xi) for _, gammas in dec.profiles]
    assert sorted(lead_signs) == [-1.0, 1.0]
    d = dec.diagnostics
    assert d["ledger_sum"] >= 0.0
    assert d["orthogonality_gaps"].shape == (2, 2)
    assert d["ell_input"] > 0


def test_decompose_validation_and_stop():
    psi = bump(PLANT_GRID, 0.5, 1.0, amp=1e-6)
    u = apply(Deformation(0, xi=3.0), psi, d_exponent=ALPHA)
    with pytest.raises(ValueError, match="j_max"):
        profile_decompose([u], ALPHA, SIGMA, j_max=0)
    dec = profile_decompose([u], ALPHA, SIGMA, eps_stop=1.0)
    assert dec.profiles == []
    assert (dec.residuals[0] - u).l2_norm() == 0.0


def test_scan_references_hold_in_process():
    # perfbench's scan workload checks these values at seed 0; read here
    # (never written), a change that moves them fails in the test suite too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    refs = json.loads(path.read_text())["scan"]
    planted = scan_inputs(0)[:2]
    for n, f in zip((3, 8), planted):
        value, minimizer = norms.ell(f, ALPHA, SIGMA)
        assert value == pytest.approx(refs[f"ell_n{n}"]["ell"], rel=1e-12, abs=0.0)
        assert minimizer == pytest.approx(refs[f"ell_n{n}"]["minimizer"], rel=1e-12, abs=0.0)
    dec = profile_decompose(criterion_12_inputs()["pair"], ALPHA, SIGMA, j_max=2,
                            eps_stop=1e-4, t_scan=0.05)
    ells = [e["ell"] for e in dec.diagnostics["ledger_entries"]]
    assert len(ells) == 2
    for i, value in enumerate(ells):
        assert value == pytest.approx(refs["profile_decompose"][f"ell_{i}"], rel=1e-12, abs=0.0)
