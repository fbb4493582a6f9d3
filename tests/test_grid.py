import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.deformations import translate
from dlab.grid import (FOURIER, PHYSICAL, ROW_BLOCK, Grid, GridFunction,
                       SpaceTimeField, derivative_symbol, forward_transform,
                       fractional_derivative, inverse_transform, match_sides,
                       physical_rows, _uniform_step)


def gaussian(grid: Grid, width: float = 1.0) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, np.exp(-(x / width) ** 2 / 2.0).astype(complex))


def test_gaussian_transform_oracle():
    # e^{-x^2/2} is a fixed point of the unitary transform
    g = Grid(512, 16 * np.pi, -8 * np.pi)
    fh = forward_transform(gaussian(g))
    expected = np.exp(-g.frequencies() ** 2 / 2.0)
    assert np.max(np.abs(fh.values - expected)) < 5e-14


def test_round_trip_identity():
    g = Grid(256, 20.0, -10.0)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_transform_respects_x0_phase():
    # shifting the window start multiplies the transform by e^{-i x0 xi}
    n, L = 256, 16 * np.pi
    rng = np.random.default_rng(5)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = forward_transform(GridFunction(Grid(n, L, 0.0), vals))
    b = forward_transform(GridFunction(Grid(n, L, 2.5 * L / n), vals))
    phase = np.exp(-1j * (2.5 * L / n) * a.grid.frequencies())
    assert np.max(np.abs(b.values - a.values * phase)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_plancherel(seed):
    g = Grid(128, 12.0, -6.0)
    rng = np.random.default_rng(seed)
    f = GridFunction(g, rng.normal(size=128) + 1j * rng.normal(size=128))
    assert forward_transform(f).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


def test_fractional_derivative_even_order():
    # |xi|^2 agrees with -d^2/dx^2 on a Gaussian
    g = Grid(512, 16 * np.pi, -8 * np.pi)
    x = g.nodes()
    got = fractional_derivative(gaussian(g), 2.0).values.real
    expected = -(x ** 2 - 1.0) * np.exp(-x ** 2 / 2.0)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_fractional_derivative_zero_mode_removed():
    g = Grid(64, 8.0, -4.0)
    f = GridFunction(g, np.ones(64, dtype=complex))
    out = fractional_derivative(f, 0.5).to_fourier()
    assert np.max(np.abs(out.values)) < 1e-12


def test_fractional_derivative_order_validation():
    g = Grid(64, 8.0, -4.0)
    f = gaussian(g)
    with pytest.raises(ValueError):
        fractional_derivative(f, -1.0)
    same = fractional_derivative(f, 0.0)
    assert np.array_equal(same.values, f.values)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(100, 10.0)
    with pytest.raises(ValueError):
        Grid(128, -1.0)
    for length, x0 in ((np.inf, 0.0), (np.nan, 0.0), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            Grid(4, length, x0)
    # a finite length can still give dx = 0 and dxi = inf
    for n, length in ((8, 5e-324), (2 ** 63, 1e-307)):
        with pytest.raises(ValueError, match="dx or dxi"):
            Grid(n, length)
    assert Grid(8, 1e308).dxi > 0
    # each finite, but the end of the domain overflows
    with pytest.raises(ValueError, match="x0 \\+ length must be finite"):
        Grid(8, 1e308, 1.5e308)
    assert Grid(8, 1e308, -1.5e308).nodes()[-1] < 0


def test_l2_norm_does_not_overflow():
    g = Grid(8, 8.0)  # dx = 1
    big = GridFunction(g, np.full(8, 1e200, dtype=complex))
    assert big.l2_norm() == pytest.approx(np.sqrt(8.0) * 1e200, rel=1e-15)
    tiny = GridFunction(g, np.full(8, 1e-200, dtype=complex))
    assert tiny.l2_norm() == pytest.approx(np.sqrt(8.0) * 1e-200, rel=1e-15)
    # a norm beyond the float range is inf, not an error or a warning
    assert GridFunction(g, np.full(8, 1e308, dtype=complex)).l2_norm() == np.inf


def test_l2_norm_matches_scaled_blas_norm():
    import scipy.linalg

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = 2 ** int(rng.integers(1, 12))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        # one scale per array across the float range, and a spread within it
        v *= 10.0 ** rng.uniform(-300.0, 300.0) * 10.0 ** rng.uniform(-20.0, 0.0, size=n)
        got = GridFunction(Grid(n, float(n)), v).l2_norm()  # dx = 1
        assert got == pytest.approx(scipy.linalg.norm(v), rel=1e-14)


def test_l2_norm_zero_and_nan():
    g = Grid(8, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GridFunction(g, np.zeros(8, dtype=complex)).l2_norm() == 0.0
        assert GridFunction(g, np.full(8, 1e-320, dtype=complex)).l2_norm() > 0.0
        # among ordinary samples and among samples whose squares overflow
        for scale in (1.0, 1e300):
            vals = np.full(8, scale, dtype=complex)
            vals[3] = complex(np.nan, 1.0)
            assert math.isnan(GridFunction(g, vals).l2_norm())
        vals = np.ones(8, dtype=complex)
        vals[0] = np.inf
        assert GridFunction(g, vals).l2_norm() == np.inf


def test_lattice_index():
    g = Grid(128, 2 * np.pi * 16)  # dxi = 1/16
    assert g.lattice_index(2.0) == 32
    with pytest.raises(ValueError):
        g.lattice_index(2.01)
    with pytest.raises(ValueError):
        g.lattice_index(5.0)  # beyond the resolvable band


def test_grid_function_validation():
    g = Grid(64, 8.0)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(32))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(64), side="spectral")


def test_side_conversions_cache():
    g = Grid(64, 8.0, -4.0)
    f = gaussian(g)
    assert f.to_physical() is f
    fh = f.to_fourier()
    assert fh.to_fourier() is fh
    assert fh.side == FOURIER and f.side == PHYSICAL


def test_arithmetic_matches_sides():
    g = Grid(128, 16.0, -8.0)
    f = gaussian(g)
    total = f + f.to_fourier()
    assert total.side == PHYSICAL
    assert np.max(np.abs(total.values - 2 * f.values)) < 1e-12
    diff = f.to_fourier() - f
    assert diff.side == FOURIER
    assert np.max(np.abs(diff.values)) < 1e-12
    assert (2.0 * f).l2_norm() == pytest.approx(2.0 * f.l2_norm())


def test_match_sides_grid_mismatch():
    a = gaussian(Grid(64, 8.0))
    b = gaussian(Grid(64, 9.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        match_sides(a, b)


def test_space_time_field_validation():
    g = Grid(64, 8.0)
    f = gaussian(g)
    with pytest.raises(ValueError):
        SpaceTimeField(g, np.array([0.0, 0.0]), np.array([f.values, f.values]))
    with pytest.raises(ValueError, match="increasing"):
        SpaceTimeField(g, np.array([0.0, np.nan]), np.array([f.values, f.values]))
    # compared without differencing, so times whose gap overflows are fine
    huge = SpaceTimeField(g, np.array([-1.7e308, 1.7e308]), np.array([f.values, f.values]))
    assert len(huge) == 2
    field = SpaceTimeField(g, np.array([0.0, 0.5]), np.array([f.values, 2 * f.values]))
    assert len(field) == 2
    arr = field.physical_array()
    assert arr is field.values
    assert arr.shape == (2, 64)


def test_space_time_field_rejects_misshapen_values():
    g = Grid(64, 8.0)
    times = np.array([0.0, 0.5])
    for shape in ((1, 64), (3, 64), (2, 32), (128,), (2, 64, 1)):
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(g, times, np.zeros(shape))


def test_space_time_frames_are_row_views():
    g = Grid(64, 8.0, -4.0)
    f = gaussian(g)
    field = SpaceTimeField(g, np.array([0.0, 0.5]), np.array([f.values, 2 * f.values]))
    frames = field.frames
    assert [fr.side for fr in frames] == [PHYSICAL, PHYSICAL]
    assert field.physical_array() is field.values
    assert np.shares_memory(frames[1].values, field.values)
    assert np.array_equal(frames[1].values, 2 * f.values)


def test_physical_rows_symbol_matches_fractional_derivative():
    g = Grid(128, 16.0, -8.0)
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(ROW_BLOCK + 5, 128)) + 0j
    symbol = derivative_symbol(g.frequencies(), 0.7)
    got = physical_rows(g, rows, symbol=symbol)
    for row, out in zip(rows, got):
        want = fractional_derivative(GridFunction(g, row), 0.7).values
        assert np.max(np.abs(out - want)) < 1e-12 * np.max(np.abs(want))
    # in place, and with no symbol the physical rows come back untouched
    assert physical_rows(g, rows, symbol=symbol, out=rows) is rows
    assert np.array_equal(rows, got)
    assert physical_rows(g, rows) is rows


def test_physical_rows_phase_matches_per_row_translate():
    # row k times e^{i t_k 3 xi}: the translation by -3 t_k, across a block seam
    g = Grid(128, 16.0, -8.0)
    rng = np.random.default_rng(8)
    m = ROW_BLOCK + 5
    rows = np.exp(-g.nodes() ** 2) * (rng.normal(size=(m, 128)) + 1j * rng.normal(size=(m, 128)))
    times = np.linspace(-0.4, 0.7, m)
    got = physical_rows(g, rows, times=times, dispersion=3.0 * g.frequencies())
    for row, t, out in zip(rows, times, got):
        want = translate(GridFunction(g, row), -3.0 * t).values
        assert np.max(np.abs(out - want)) < 1e-12 * np.max(np.abs(want))


def test_physical_rows_non_uniform_times_match_per_row_translate():
    # one jittered interior time: the rows fall back to the per-entry exp
    g = Grid(128, 16.0, -8.0)
    rng = np.random.default_rng(9)
    m = 2 * ROW_BLOCK + 3
    rows = np.exp(-g.nodes() ** 2) * (rng.normal(size=(m, 128)) + 1j * rng.normal(size=(m, 128)))
    times = np.linspace(-0.4, 0.7, m)
    assert _uniform_step(times) is not None
    times[ROW_BLOCK + 10] += 1e-3
    assert _uniform_step(times) is None
    spectrum = forward_transform(GridFunction(g, rows[0])).values
    for values, inputs in ((rows, rows), (spectrum, [rows[0]] * m)):  # rows, shared spectrum
        got = physical_rows(g, values, times=times, dispersion=3.0 * g.frequencies())
        for row, t, out in zip(inputs, times, got):
            want = translate(GridFunction(g, row), -3.0 * t).values
            assert np.max(np.abs(out - want)) < 1e-12 * np.max(np.abs(want))


def test_uniform_step_tolerance():
    t = np.linspace(-64.0, 64.0, 2049)
    assert _uniform_step(t) == t[1] - t[0]
    assert _uniform_step(t[::-1]) == t[0] - t[1]
    nudged = t.copy()
    nudged[7] += 4 * np.spacing(64.0)
    assert _uniform_step(nudged) is not None
    nudged[7] += 4 * np.spacing(64.0)
    assert _uniform_step(nudged) is None
    for bad in (np.inf, np.nan):
        broken = t.copy()
        broken[-1] = bad
        assert _uniform_step(broken) is None
