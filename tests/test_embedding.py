import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.deformations import airy_flow, modulate, translate
from dlab.embedding import (EmbeddingConfig, approx_field, build_approx_solution,
                            embedding_constants, embedding_experiment,
                            fourier_sin_coeff, residual_field, sharp_cutoff)
from dlab.evolutions import SolveConfig, nls_solve
from dlab.grid import FOURIER, PHYSICAL, ROW_BLOCK, Grid, GridFunction, SpaceTimeField


def gaussian(grid: Grid) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, np.exp(-x ** 2).astype(complex))


# ---------------------------------------------------------------------------
# coupling constants
# ---------------------------------------------------------------------------

def test_constants_alpha_one():
    c0, c1 = embedding_constants(1.0)
    assert c0 == pytest.approx(0.25, abs=1e-12)
    assert c1 == pytest.approx(0.25, abs=1e-12)


def test_constants_alpha_three_halves():
    # Gamma(3) = 2, Gamma(7/2) = 15 sqrt(pi) / 8
    c0, c1 = embedding_constants(1.5)
    assert c0 == pytest.approx(32.0 / (45.0 * math.pi), rel=1e-10)
    assert c1 == pytest.approx(8.0 / (15.0 * math.pi), rel=1e-10)


def test_sin_coeff_alpha_one_spectrum():
    # |cos t|^2 sin t = (sin t + sin 3t) / 4
    got = [fourier_sin_coeff(1.0, k) for k in range(1, 7)]
    expected = [0.25, 0.0, 0.25, 0.0, 0.0, 0.0]
    assert np.max(np.abs(np.array(got) - expected)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.8, max_value=2.2, allow_nan=False),
       st.integers(min_value=1, max_value=5))
def test_sin_coeff_even_harmonics_vanish(alpha, half_k):
    # the integrand is pi-antiperiodic, so even harmonics drop out
    assert abs(fourier_sin_coeff(alpha, 2 * half_k)) < 1e-12


def test_constants_validation():
    with pytest.raises(ValueError):
        embedding_constants(0.0)
    with pytest.raises(ValueError):
        fourier_sin_coeff(1.5, 0)


# ---------------------------------------------------------------------------
# cutoff and the approximate solution
# ---------------------------------------------------------------------------

def test_sharp_cutoff():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    f = gaussian(g)
    fh = f.to_fourier()
    cut = sharp_cutoff(fh, 2.0)
    xi = g.frequencies()
    assert np.all(cut.values[np.abs(xi) > 2.0] == 0)
    inside = np.abs(xi) <= 2.0
    assert np.array_equal(cut.values[inside], fh.values[inside])
    again = sharp_cutoff(cut, 2.0)
    assert np.array_equal(again.values, cut.values)
    assert sharp_cutoff(f, 2.0).side == PHYSICAL
    assert cut.side == FOURIER


def schrodinger_run(grid, v0, T, dt=2e-3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg_f = SolveConfig(alpha=1.9, coupling=0.0, t_end=T, dt=dt, store_every=5)
        cfg_b = SolveConfig(alpha=1.9, coupling=0.0, t_end=-T, dt=dt, store_every=5)
        fwd = nls_solve(v0, cfg_f)
        bwd = nls_solve(v0, cfg_b)
    times = np.concatenate([bwd.times[:-1], fwd.times])
    return SpaceTimeField(grid, times, np.concatenate([bwd.values[:-1], fwd.values]))


def test_build_approx_solution_at_time_zero():
    g = Grid(512, 8 * np.pi, -4 * np.pi)
    v0 = gaussian(g)
    v = schrodinger_run(g, v0, T=0.5)
    xi_n = 8.0
    u0 = build_approx_solution(v, xi_n, 0.5, 0.0)
    expected = modulate(v0, xi_n).to_physical().values.real
    assert np.max(np.abs(u0.values - expected)) < 1e-10
    assert np.max(np.abs(u0.values.imag)) == 0.0


def test_build_approx_solution_seam_continuity():
    g = Grid(512, 8 * np.pi, -4 * np.pi)
    v = schrodinger_run(g, gaussian(g), T=0.5)
    xi_n = 8.0
    seam = 0.5 / (3.0 * xi_n)
    eps = 1e-7
    inner = build_approx_solution(v, xi_n, 0.5, seam - eps)
    outer = build_approx_solution(v, xi_n, 0.5, seam + eps)
    assert (inner - outer).l2_norm() < 1e-3


def test_build_approx_solution_beyond_seam_is_free():
    g = Grid(512, 8 * np.pi, -4 * np.pi)
    v = schrodinger_run(g, gaussian(g), T=0.5)
    xi_n = 8.0
    seam = 0.5 / (3.0 * xi_n)
    at_seam = build_approx_solution(v, xi_n, 0.5, seam)
    later = build_approx_solution(v, xi_n, 0.5, seam + 0.2)
    assert (later - airy_flow(at_seam, 0.2)).l2_norm() < 1e-10


def test_build_approx_solution_validation():
    g = Grid(512, 8 * np.pi, -4 * np.pi)
    v = schrodinger_run(g, gaussian(g), T=0.5)
    with pytest.raises(ValueError, match="lattice"):
        build_approx_solution(v, 8.1, 0.5, 0.0)
    with pytest.raises(ValueError):
        build_approx_solution(v, 8.0, -1.0, 0.0)


def test_approx_field_matches_per_frame_composition():
    # reference: interpolate v, translate, put on the carrier, one frame at a time
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    v = schrodinger_run(g, gaussian(g), T=0.5)
    xi_n, seam = 8.0, 0.5 / 24.0
    times = np.linspace(-seam, seam, ROW_BLOCK + 7)  # crosses a block seam
    got = approx_field(v, xi_n, times)
    assert np.array_equal(got.times, times) and got.side == PHYSICAL
    for t, row in zip(times, got.values):
        s = -3.0 * xi_n * t
        i = min(max(int(np.searchsorted(v.times, s)) - 1, 0), len(v) - 2)
        w = (s - v.times[i]) / (v.times[i + 1] - v.times[i])
        interp = GridFunction(g, (1.0 - w) * v.values[i] + w * v.values[i + 1])
        frame = modulate(translate(interp, -3.0 * xi_n ** 2 * t), xi_n)
        want = (frame * np.exp(-1j * t * xi_n ** 3)).values.real
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(row.imag)) == 0.0
    # build_approx_solution is the same evaluator at one time
    one = build_approx_solution(v, xi_n, 0.5, float(times[3]))
    assert np.max(np.abs(one.values - got.values[3])) <= 1e-12 * np.max(np.abs(one.values))


def test_approx_field_outside_stored_range_raises():
    g = Grid(128, 8 * np.pi, -4 * np.pi)
    v = schrodinger_run(g, gaussian(g), T=0.1)  # Schrodinger times [-0.1, 0.1]
    with pytest.raises(ValueError, match="outside stored range"):
        approx_field(v, 8.0, np.array([0.0, 0.1 / 24.0 + 1e-3]))
    # inside the seams of T = 0.5, but beyond what v holds
    with pytest.raises(ValueError, match="outside stored range"):
        build_approx_solution(v, 8.0, 0.5, -0.01)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_vanishes_on_free_solutions():
    g = Grid(256, 16 * np.pi, -8 * np.pi)
    xi = g.frequencies()
    u0 = GridFunction(g, np.exp(-xi ** 2 / 2.0) * (np.abs(xi) <= 2.0), FOURIER)
    u0 = GridFunction(g, u0.to_physical().values.real, PHYSICAL)
    times = np.linspace(-0.2, 0.2, 201)
    values = np.array([airy_flow(u0, float(t)).values for t in times])
    field = SpaceTimeField(g, times, values)
    res = residual_field(field, alpha=1.9, mu=-1, coupling=0.0)
    sup_res = float(np.max(np.abs(res.values)))
    uxxx_scale = float(np.max(np.abs(
        GridFunction(g, (1j * xi) ** 3 * u0.to_fourier().values,
                     FOURIER).to_physical().values)))
    assert sup_res / uxxx_scale < 1e-3
    assert len(res) == len(field) - 2


def test_residual_matches_per_frame_loop():
    # reference: the per-frame spectral derivatives, one FFT pair per frame
    g = Grid(128, 8 * np.pi, -4 * np.pi)
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 0.1, 70)  # more interior frames than one block
    values = np.exp(-g.nodes() ** 2) * (1.0 + 0.1 * rng.normal(size=(70, 128)))
    res = residual_field(SpaceTimeField(g, times, values), alpha=1.9, mu=-1, coupling=0.7)
    dudt = np.gradient(values, times, axis=0, edge_order=2)
    xi = np.fft.ifftshift(g.frequencies())
    for i in range(1, 69):
        u = values[i]
        uxxx = np.fft.ifft((1j * xi) ** 3 * np.fft.fft(u))
        nlx = np.fft.ifft(1j * xi * np.fft.fft(np.abs(u) ** 3.8 * u))
        want = dudt[i] + uxxx + 0.7 * nlx
        assert np.max(np.abs(res.values[i - 1] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(res.times, times[1:-1])


def test_residual_needs_three_frames():
    g = Grid(64, 8.0, -4.0)
    f = gaussian(g)
    field = SpaceTimeField(g, np.array([0.0, 1.0]), np.array([f.values, f.values]))
    with pytest.raises(ValueError, match="at least 3 frames"):
        residual_field(field, 1.9, -1)


# ---------------------------------------------------------------------------
# experiment configuration and a miniature sweep
# ---------------------------------------------------------------------------

def test_embedding_config_validation():
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    phi = gaussian(g)
    with pytest.raises(ValueError, match="ascending"):
        EmbeddingConfig(alpha=1.9, phi=phi, xi_list=(16.0, 8.0))
    with pytest.raises(ValueError, match="positive"):
        EmbeddingConfig(alpha=1.9, phi=phi, xi_list=(4.0,), T=0.0)
    with pytest.raises(ValueError, match="lattice"):
        EmbeddingConfig(alpha=1.9, phi=phi, xi_list=(4.3,))


def test_embedding_experiment_small_sweep():
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    cfg = EmbeddingConfig(alpha=1.9, phi=gaussian(g), xi_list=(4.0,),
                          T=0.25, nls_dt=5e-3)
    rows = embedding_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"xi", "seam_time", "err_lhat_alpha", "norm_S",
                        "norm_L", "residual_Y"}
    assert row["xi"] == 4.0
    assert row["seam_time"] == pytest.approx(0.25 / 12.0)
    for key in ("err_lhat_alpha", "norm_S", "norm_L", "residual_Y"):
        assert math.isfinite(row[key]) and row[key] > 0


def test_embedding_experiment_reports_solver_range_warning():
    # alpha = 1.5 lies outside the range of the nonlinear estimates
    g = Grid(64, 8 * np.pi, -4 * np.pi)
    cfg = EmbeddingConfig(alpha=1.5, phi=gaussian(g), xi_list=(4.0,),
                          T=0.1, nls_dt=1e-2)
    with pytest.warns(UserWarning, match="outside the range"):
        rows = embedding_experiment(cfg)
    assert len(rows) == 1
