import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.deformations import (Deformation, airy_flow, apply, apply_inverse,
                               dilate, dyadic_log2, galilean_residual,
                               modulate, nonresonance_gap, orthogonality_gap,
                               relative, scale_invariance_ratio,
                               schrodinger_flow, translate)
from dlab.grid import FOURIER, Grid, GridFunction
from dlab.norms import lhat_norm, morrey_norm


def gaussian(grid: Grid, width: float = 1.0) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, np.exp(-(x / width) ** 2 / 2.0).astype(complex))


def chirp(grid: Grid) -> GridFunction:
    xi = grid.frequencies()
    vals = np.exp(-xi ** 2 / 8.0) * np.exp(0.3j * xi ** 2)
    return GridFunction(grid, vals, FOURIER)


BASE_GRID = Grid(512, 16 * np.pi, -8 * np.pi)


def rel_gap(a: GridFunction, b: GridFunction) -> float:
    return (a - b).l2_norm() / max(a.l2_norm(), 1e-300)


# ---------------------------------------------------------------------------
# elementary actions
# ---------------------------------------------------------------------------

def test_modulate_shifts_spectrum():
    f = gaussian(BASE_GRID)
    xi = BASE_GRID.frequencies()
    shifted = modulate(f, 2.0).to_fourier().values
    direct = np.exp(-(xi + 2.0) ** 2 / 2.0)
    assert np.max(np.abs(shifted - direct)) < 1e-12


def _multiply_modulate(f: GridFunction, xi: float) -> GridFunction:
    # P(xi) as the physical multiply, whatever side f is on
    fp = f.to_physical()
    return GridFunction(fp.grid, fp.values * np.exp(-1j * fp.grid.nodes() * xi)).to_fourier()


# dxi a power of two, so every m * dxi / dxi is the integer m
@pytest.mark.parametrize("grid", [Grid(16, 2 * np.pi * 8, -123.4), Grid(64, 2 * np.pi * 4, 1.3),
                                  Grid(128, np.pi, -np.pi / 2)])
def test_lattice_modulation_shift_matches_physical_multiply(grid):
    n = grid.n
    rng = np.random.default_rng(n)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals[::3] = 0.0
    f = GridFunction(grid, vals, FOURIER)
    for m in (0, 1, -1, 3, -5, n // 2, -n // 2, n // 2 - 1, n - 1, 1 - n, n + 3, -2 * n - 7):
        got = modulate(f, m * grid.dxi)
        assert got.side == FOURIER
        assert rel_gap(got, _multiply_modulate(f, m * grid.dxi)) < 1e-12
        # a shift by m cells: the zeros move with it and stay exact
        assert np.array_equal(got.values == 0, np.roll(vals, -m) == 0)
    # off the lattice the multiply itself is taken
    off = modulate(f, 0.5 * grid.dxi)
    assert np.array_equal(off.values, _multiply_modulate(f, 0.5 * grid.dxi).values)


def test_lattice_deformations_keep_exact_zeros_off_the_band():
    g = Grid(2048, 2.0 * np.pi * 16, -np.pi * 16)  # dxi = 1/16
    xi = g.frequencies()
    band = (xi >= 0.0) & (xi < 1.0)
    f = GridFunction(g, np.where(band, np.exp(-(xi - 0.5) ** 2 * 8.0), 0.0), FOURIER)
    gamma = Deformation(2, xi=3.0, s=0.1, y=-1.5)
    out = apply(gamma, f)
    # P(3) moves the band to [-3, -2) and D(4) to [-12, -8)
    xi_out = out.grid.frequencies()
    moved = (xi_out >= -12.0) & (xi_out < -8.0)
    assert np.all(out.values[moved] != 0) and np.all(out.values[~moved] == 0)
    back = apply_inverse(gamma, out)
    assert np.all(back.values[~band] == 0)
    assert rel_gap(back, f) < 1e-12


def test_translate_matches_shifted_samples():
    # translation by a whole number of cells permutes the samples exactly
    f = gaussian(BASE_GRID)
    y = 8 * BASE_GRID.dx
    got = translate(f, y).to_physical().values
    assert np.max(np.abs(got - np.roll(f.values, 8))) < 1e-10


def test_airy_and_schrodinger_are_unitary_groups():
    f = chirp(BASE_GRID)
    for flow in (airy_flow, schrodinger_flow):
        once = flow(flow(f, 0.3), 0.5)
        atonce = flow(f, 0.8)
        assert rel_gap(once, atonce) < 1e-12
        assert flow(f, 0.7).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)
        assert rel_gap(flow(flow(f, 0.4), -0.4), f) < 1e-12


def test_dilate_rescales_grid_and_mass():
    f = gaussian(BASE_GRID)
    out = dilate(f, 2.0, 2.0)
    assert out.grid.length == pytest.approx(BASE_GRID.length / 2.0)
    assert out.grid.x0 == pytest.approx(BASE_GRID.x0 / 2.0)
    assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)
    # physical values scale by h^{1/p}
    assert out.values[0] == pytest.approx(math.sqrt(2.0) * f.values[0])


def test_dyadic_log2():
    assert dyadic_log2(0.25) == -2
    assert dyadic_log2(8.0) == 3
    with pytest.raises(ValueError, match="power of two"):
        dyadic_log2(3.0)
    with pytest.raises(ValueError, match="positive"):
        dyadic_log2(-2.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^[a-z]+ is not a positive power of two$"):
            dyadic_log2(bad)


# ---------------------------------------------------------------------------
# the composed family
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-3, max_value=3),
       st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
       st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_apply_inverse_round_trip(m, xi, s, y):
    gamma = Deformation(m, xi=xi, s=s, y=y)
    f = chirp(BASE_GRID)
    back = apply_inverse(gamma, apply(gamma, f))
    assert back.grid.close_to(BASE_GRID)
    assert rel_gap(back, f) < 1e-10


def test_deformation_h_and_serialize():
    assert Deformation(-1, xi=1.0).h == 0.5
    gamma = Deformation(2, xi=-3.25, s=0.125, y=1.5)
    assert gamma.serialize() == "h=4,xi=-3.25,s=0.125,y=1.5"


def test_translation_modulation_commutator():
    # T(y) P(xi) = e^{i y xi} P(xi) T(y)
    f = chirp(BASE_GRID)
    y, xi = 1.3, 2.7
    lhs = translate(modulate(f, xi), y)
    rhs = modulate(translate(f, y), xi) * np.exp(1j * y * xi)
    assert rel_gap(lhs, rhs) < 1e-10


def test_apply_is_lhat_isometry():
    # phases never change the density magnitude and the D_p normalization
    # compensates the rescaling, so every lhat norm is preserved when the
    # modulation sits on the frequency lattice
    f = chirp(BASE_GRID)
    xi0 = 32 * BASE_GRID.dxi
    gamma = Deformation(1, xi=xi0, s=0.2, y=-1.0)
    for r in (1.5, 1.8, 2.0, 3.0):
        out = apply(gamma, f, d_exponent=r)
        assert lhat_norm(out, r) == pytest.approx(lhat_norm(f, r), rel=1e-10)


def test_galilean_identity():
    f = gaussian(BASE_GRID)
    xi0 = 24 * BASE_GRID.dxi
    assert galilean_residual(f, xi0, 0.15) < 1e-10
    with pytest.raises(ValueError, match="lattice"):
        galilean_residual(f, xi0 + 0.3 * BASE_GRID.dxi, 0.15)


# ---------------------------------------------------------------------------
# relative parameters
# ---------------------------------------------------------------------------

def test_relative_identity_pair():
    gamma = Deformation(1, xi=1.5, s=0.1, y=0.7)
    rel = relative(gamma, gamma)
    assert rel.h_rel == pytest.approx(1.0)
    assert rel.xi_rel == pytest.approx(0.0)
    assert rel.s_rel == pytest.approx(0.0)
    assert rel.y_rel == pytest.approx(0.0, abs=1e-12)


def test_relative_probe_residual_tight():
    gamma = Deformation(2, xi=1.7, s=0.05, y=0.9)
    gamma_t = Deformation(2, xi=0.5, s=0.01, y=0.1)
    probe = gaussian(BASE_GRID)
    rel = relative(gamma, gamma_t, probe=probe)
    assert rel.probe_residual < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-1, max_value=1),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-0.05, max_value=0.05, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_relative_probe_residual(m1, dm, xi, s, y):
    # adjacent scales and small Airy times keep the composite parameters
    # moderate; see the tolerance note below
    gamma = Deformation(m1, xi=xi, s=s, y=y)
    gamma_t = Deformation(m1 + dm, xi=-0.8 * xi, s=0.4 * s, y=0.3 * y)
    probe = gaussian(BASE_GRID)
    rel = relative(gamma, gamma_t, probe=probe)
    # non-lattice modulations and the algebraic Airy tails leak a little
    # mass across the periodic boundary, so the algebra closes only to
    # the localization accuracy of the probe
    assert rel.probe_residual < 1e-9


def test_gap_functionals():
    gamma = Deformation(0, xi=6.0, s=0.05, y=0.4)
    mirror = Deformation(0, xi=-6.0, s=0.05, y=0.4)
    assert orthogonality_gap(gamma, gamma) == pytest.approx(0.0, abs=1e-12)
    # a mirrored modulation diverges in the plain functional but is
    # resonant in the absolute-frequency variant
    assert orthogonality_gap(gamma, mirror) == pytest.approx(12.0, abs=1e-9)
    assert nonresonance_gap(gamma, mirror) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Morrey-norm behavior under the family
# ---------------------------------------------------------------------------

def test_scale_invariance_pure_dilation_exact():
    f = chirp(BASE_GRID)
    for m in (-2, 0, 3):
        ratio = scale_invariance_ratio(f, Deformation(m), 1.8, 2.0, 3.0)
        assert ratio == pytest.approx(1.0, rel=1e-12)


def test_scale_invariance_two_sided_bound():
    f = chirp(BASE_GRID)
    rng = np.random.default_rng(0)
    for _ in range(10):
        gamma = Deformation(int(rng.integers(-2, 3)),
                            xi=float(rng.integers(-64, 65)) * BASE_GRID.dxi,
                            s=float(rng.uniform(-0.3, 0.3)),
                            y=float(rng.uniform(-2, 2)))
        ratio = scale_invariance_ratio(f, gamma, 1.8, 2.0, 3.0)
        assert 0.5 <= ratio <= 2.0


def test_scale_invariance_zero_input():
    g = BASE_GRID
    zero = GridFunction(g, np.zeros(g.n, complex), FOURIER)
    with pytest.raises(ValueError, match="zero input"):
        scale_invariance_ratio(zero, Deformation(0), 1.8, 2.0, 3.0)
