import math

import numpy as np
import pytest

from dlab.deformations import Deformation, airy_flow, apply
from dlab.grid import FOURIER, ROW_BLOCK, Grid, GridFunction, fractional_derivative
from dlab.norms import morrey_norm
from dlab.profiles import (WhitneyPair, _whitney_related, airy_frames, decoupling_check,
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

def test_pairs_are_symmetric_and_off_diagonal():
    pairs = whitney_pairs(-2, 1, 8.0)
    assert pairs
    keys = {(p.j, p.k, p.k_prime) for p in pairs}
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


def test_partition_of_unity_on_samples():
    pairs = whitney_pairs(-3, 2, 16.0)
    rng = np.random.default_rng(1)
    samples = rng.uniform(-8.0, 8.0, size=(2000, 2))
    stats = partition_check(pairs, samples)
    assert stats["passed"]
    assert stats["bad"] == 0
    assert stats["counted"] > 100


def test_whitney_scale_consistency():
    pairs = whitney_pairs(-6, 6, 64.0)
    by_scale = {}
    for p in pairs:
        by_scale.setdefault(p.j, set()).add((p.k, p.k_prime))
    for xi, eta in ((3.3, -9.7), (0.4, 5.1), (-20.0, 11.5), (0.01, 0.06)):
        j = whitney_scale(xi, eta)
        w = 2.0 ** j
        assert (math.floor(xi / w), math.floor(eta / w)) in by_scale[j]


def whitney_pairs_brute_force(j_min: int, j_max: int, xi_max: float) -> list[WhitneyPair]:
    """The definition: test every (k, k') at every scale, O(K^2)."""
    pairs = []
    for j in range(j_min, j_max + 1):
        k_hi = int(math.ceil(xi_max / 2.0 ** j))
        ks = range(-k_hi, k_hi)
        for k in ks:
            for kp in ks:
                if _whitney_related(k, kp):
                    pairs.append(WhitneyPair(j, k, kp))
    return pairs


@pytest.mark.parametrize("args", [(-2, 1, 8.0), (-3, 2, 16.0), (-1, 1, 5.5), (-4, 0, 12.0)])
def test_whitney_pairs_equal_brute_force(args):
    # same list in the same order
    assert whitney_pairs(*args) == whitney_pairs_brute_force(*args)


@pytest.mark.parametrize("xi_max", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_whitney_pairs_rejects_bad_xi_max(xi_max):
    with pytest.raises(ValueError, match="xi_max must be finite and positive"):
        whitney_pairs(-1, 0, xi_max)


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
    with pytest.raises(ValueError, match="alpha"):
        stein_tomas_ratio(f, 2.5, SIGMA, 4.0)


def test_stein_tomas_flags_short_windows():
    # a single-cell density gives |free evolution| constant in time, so
    # the space-time integral never saturates and doubling must move it
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    xi = g.frequencies()
    vals = (np.abs(xi - 2.0) < g.dxi / 2.0).astype(complex)
    f = GridFunction(g, vals, FOURIER)
    with pytest.raises(ValueError, match="retry with window"):
        stein_tomas_ratio(f, ALPHA, SIGMA, 4.0)


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
