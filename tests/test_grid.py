import math
import os
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab import grid as grid_module
from dlab.deformations import translate
from dlab.evolutions import energy, mass
from dlab.grid import (FOURIER, PHYSICAL, ROW_BLOCK, Grid, GridFunction,
                       SpaceTimeField, derivative_symbol, forward_transform,
                       fractional_derivative, inverse_transform, map_blocks,
                       map_row_blocks, match_sides, physical_rows, _uniform_step)
from dlab.norms import NormSpec, spacetime_norm
from dlab.profiles import stein_tomas_ratio


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
    # xi / dxi is NaN or overflows: no index, rather than round()'s errors
    for xi in (math.inf, -math.inf, math.nan, 1e308):
        message = re.escape(f"frequency {xi} gives no finite lattice index")
        with pytest.raises(ValueError, match=message):
            g.lattice_index(xi)


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
    assert field.values.shape == (2, 64)


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


def test_physical_rows_phase_table_matches_per_entry_exp():
    # criterion 10's grid and the last 2 ROW_BLOCK + 1 of its widest window's
    # times, where |t xi^3| is largest: the doubled table against blocks of at
    # most ROW_BLOCK rows, which take one exp per entry
    g = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    xi = g.frequencies()
    times = np.linspace(-64.0, 64.0, 2049)[-(2 * ROW_BLOCK + 1):]
    assert _uniform_step(times) is not None
    x = g.nodes()
    rows = np.exp(-x ** 2) * np.cos(3.0 * x) + 0j
    spectrum = forward_transform(GridFunction(g, rows)).values
    rows = np.tile(rows, (times.size, 1))
    for values in (spectrum, rows):  # shared spectrum, physical rows
        got = physical_rows(g, values, times=times, dispersion=xi ** 3)
        want = np.concatenate([
            physical_rows(g, values if values.ndim == 1 else values[lo:lo + ROW_BLOCK],
                          times=times[lo:lo + ROW_BLOCK], dispersion=xi ** 3)
            for lo in range(0, times.size, ROW_BLOCK)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


# ---------------------------------------------------------------------------
# the row-block executor
# ---------------------------------------------------------------------------

def _row_args(m):
    g = Grid(128, 16.0, -8.0)
    rng = np.random.default_rng(m)
    rows = np.exp(-g.nodes() ** 2) * (rng.normal(size=(m, g.n)) + 1j * rng.normal(size=(m, g.n)))
    return g, rows, np.linspace(-0.4, 0.7, m), 3.0 * g.frequencies()


@pytest.mark.parametrize("case, message", [
    ("spectrum_without_times", "a 1-D spectrum needs times"),
    ("times_without_dispersion", "times and dispersion go together"),
    ("times_for_other_rows", f"got {3 * ROW_BLOCK - 1} times for {3 * ROW_BLOCK} rows"),
    ("short_symbol", "symbol must have shape (128,)"),
    ("real_out", "out must be a complex128 array of shape"),
])
def test_bad_row_block_calls_fail_before_any_helper_starts(monkeypatch, case, message):
    g, rows, times, disp = _row_args(3 * ROW_BLOCK)
    kwargs = {
        "spectrum_without_times": dict(values=rows[0]),
        "times_without_dispersion": dict(times=times),
        "times_for_other_rows": dict(times=times[1:], dispersion=disp),
        "short_symbol": dict(symbol=np.ones(64)),
        "real_out": dict(symbol=np.ones(128), out=np.empty(rows.shape)),
    }[case]
    kwargs = {"values": rows, **kwargs}
    monkeypatch.setattr(grid_module, "HELPERS", 1)
    monkeypatch.setattr(grid_module, "_POOLS", {})
    blocks = []
    with pytest.raises(ValueError, match=re.escape(message)):
        map_row_blocks(lambda rows, block: blocks.append(rows), g, **kwargs)
    with pytest.raises(ValueError, match=re.escape(message)):
        physical_rows(g, **kwargs)
    assert blocks == [] and grid_module._POOLS == {}


class Boom(Exception):
    pass


def test_helper_block_error_reaches_the_caller_once_after_the_helpers_stop(on_helper):
    g, rows, times, disp = _row_args(8 * ROW_BLOCK)
    busy, made = [0], []

    def fail_first(rows, block):
        busy[0] += 1
        try:
            made.append(rows.start)
            time.sleep(0.002)
            if len(made) == 1:
                raise Boom(f"block at row {rows.start}")
        finally:
            busy[0] -= 1

    out = np.zeros_like(rows)
    with pytest.raises(Boom):
        map_row_blocks(on_helper(fail_first), g, rows, times=times, dispersion=disp, out=out)
    # no helper is still inside a block, and none takes another
    assert busy[0] == 0
    done, snapshot = len(made), out.copy()
    time.sleep(0.05)
    assert len(made) == done and np.array_equal(out, snapshot)
    # the pool is not left broken: the next call takes every block
    starts = map_row_blocks(lambda rows, block: rows.start, g, rows)
    assert starts == list(range(0, 8 * ROW_BLOCK, ROW_BLOCK))


def test_caller_block_error_waits_for_the_helpers(monkeypatch):
    g, rows, times, disp = _row_args(4 * ROW_BLOCK)
    monkeypatch.setattr(grid_module, "HELPERS", 1)
    started, finished = threading.Event(), []

    def reduce(rows, block):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(10.0), "no helper thread took a block"
            raise Boom("caller")
        started.set()
        time.sleep(0.05)
        finished.append(rows.start)

    with pytest.raises(Boom, match="caller"):
        map_row_blocks(reduce, g, rows, times=times, dispersion=disp)
    # the helper's block ended before the call returned, and it took no other
    assert finished == [ROW_BLOCK]
    time.sleep(0.1)
    assert finished == [ROW_BLOCK]


def test_helper_blocks_run_under_the_callers_errstate(on_helper):
    g, rows, times, disp = _row_args(4 * ROW_BLOCK)

    def overflow(rows, block):
        assert np.geterr()["over"] == "raise"
        return np.float64(1e300) * np.float64(1e300)

    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            map_row_blocks(on_helper(overflow), g, rows, times=times, dispersion=disp)


@pytest.mark.parametrize("m", [ROW_BLOCK + 7, 3 * ROW_BLOCK])
def test_row_block_outputs_do_not_depend_on_the_helper_count(monkeypatch, m):
    g, rows, times, disp = _row_args(m)
    field = SpaceTimeField(g, times, rows)

    def outputs():
        in_place = rows.copy()
        physical_rows(g, in_place, symbol=derivative_symbol(g.frequencies(), 0.3),
                      times=times, dispersion=disp, out=in_place)
        return [spacetime_norm(field, NormSpec(kind="spacetime_X", r=1.9, s=0.3)),
                spacetime_norm(field, NormSpec(kind="spacetime_X", r=2.0, s=-0.25)),  # q = inf
                in_place, mass(g, rows), energy(g, rows, 1.9, -1)]

    monkeypatch.setattr(grid_module, "HELPERS", 0)
    want = outputs()
    switch = sys.getswitchinterval()
    for helpers in (1, 3):  # 3 is more threads than this host may have cores
        monkeypatch.setattr(grid_module, "HELPERS", helpers)
        sys.setswitchinterval(1e-6)
        try:
            got = outputs()
        finally:
            sys.setswitchinterval(switch)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stein_tomas_ratio_does_not_depend_on_the_helper_count(monkeypatch):
    # criterion 10's grid, input and nt
    g = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    f0 = GridFunction(g, np.exp(-g.nodes() ** 2) + 0j)
    ratios = []
    for helpers in (0, 1, 3):
        monkeypatch.setattr(grid_module, "HELPERS", helpers)
        ratios.append(stein_tomas_ratio(f0, 1.8, 3.0, 16.0, nt=513))
    assert ratios[0] > 0 and ratios[1] == ratios[0] and ratios[2] == ratios[0]


@pytest.mark.parametrize("support", ["band", "wraps", "dense", "empty"])
def test_shared_spectrum_rows_match_per_row_inverse_transforms(monkeypatch, support):
    # the scan's grid and frames: a 16-cell band, two bands on either side of
    # xi = 0 (one run around the end in FFT order), every cell, and no cell
    g = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = g.frequencies()
    cells = {"band": (xi >= -12.0) & (xi < -11.0),
             "wraps": ((xi >= -8.0) & (xi < -7.0)) | ((xi >= 8.0) & (xi < 9.0)),
             "dense": np.ones(g.n, dtype=bool),
             "empty": np.zeros(g.n, dtype=bool)}[support]
    rng = np.random.default_rng(12)
    spectrum = np.where(cells, rng.normal(size=g.n) + 1j * rng.normal(size=g.n), 0.0)
    uniform = np.linspace(-0.05, 0.05, 257)
    jittered = np.linspace(-0.05, 0.05, 2 * ROW_BLOCK + 3)
    jittered[ROW_BLOCK + 10] += 1e-3  # one exp per entry, not the table

    def frames():
        return [physical_rows(g, spectrum, times=times, dispersion=xi ** 3)
                for times in (uniform, jittered)]

    monkeypatch.setattr(grid_module, "HELPERS", 0)
    want = frames()
    for times, got in zip((uniform, jittered), want):
        direct = np.array([inverse_transform(GridFunction(
            g, spectrum * np.exp(1j * t * xi ** 3), FOURIER)).values for t in times])
        # exact zeros for the empty spectrum
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
    for helpers in (1, 3):  # 3 is more threads than this host may have cores
        monkeypatch.setattr(grid_module, "HELPERS", helpers)
        assert all(np.array_equal(a, b) for a, b in zip(frames(), want))


def test_map_blocks_keeps_one_pool_per_process(monkeypatch):
    monkeypatch.setattr(grid_module, "HELPERS", 3)
    pools = {}
    monkeypatch.setattr(grid_module, "_POOLS", pools)
    before = set(threading.enumerate())

    def make(b):
        time.sleep(0.002)  # long enough for the helpers to take blocks
        return b

    try:
        for count in (2, 3, 4, 9):
            assert map_blocks(make, count) == list(range(count))
        started = [t for t in threading.enumerate()
                   if t not in before and t.name.startswith("dlab-rows")]
        assert [pid for pid, _ in pools] == [os.getpid()] and len(started) <= 3
    finally:
        for pool in pools.values():
            pool.shutdown()
