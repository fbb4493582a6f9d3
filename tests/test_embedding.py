import json
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab import embedding
from dlab import grid as grid_module
from dlab.deformations import airy_flow, modulate, translate
from dlab.embedding import (MU, RESIDUAL_FRAMES, EmbeddingConfig, approx_field,
                            build_approx_solution, embedding_constants, embedding_experiment,
                            fourier_sin_coeff, residual_field, sharp_cutoff)
from dlab.evolutions import SolveConfig, _nonlinear_power, nls_solve
from dlab.grid import (FOURIER, PHYSICAL, ROW_BLOCK, Grid, GridFunction, SpaceTimeField,
                       map_row_blocks, physical_rows)


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
    # NaN passes `alpha <= 0`, and gamma(inf) / gamma(inf) is NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            embedding_constants(bad)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            fourier_sin_coeff(bad, 1)
    with pytest.raises(ValueError, match="too large"):
        embedding_constants(300.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=1, max_value=8))
def test_sin_coeff_matches_closed_form(alpha, k):
    from scipy.special import rgamma

    # |cos t|^nu sin t sin kt = |cos t|^nu (cos (k-1)t - cos (k+1)t) / 2 with
    # nu = 2 alpha, and I(m) = int_{-pi}^{pi} |cos t|^nu cos mt dt
    #   = 2 (1 + (-1)^m) pi Gamma(nu + 1) / (2^{nu+1} Gamma(1 + (nu+m)/2) Gamma(1 + (nu-m)/2))
    # (Gradshteyn-Ryzhik 3.631.9); rgamma is 0 at the poles of Gamma
    nu = 2.0 * alpha

    def integral(m):
        return (2.0 * (1 + (-1) ** m) * math.pi * math.gamma(nu + 1.0) / 2.0 ** (nu + 1.0)
                * rgamma(1.0 + (nu + m) / 2.0) * rgamma(1.0 + (nu - m) / 2.0))

    want = 0.5 * (integral(k - 1) - integral(k + 1)) / math.pi
    assert abs(fourier_sin_coeff(alpha, k) - want) < 1e-13


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
    assert np.array_equal(got.times, times)
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

def direct_residual(u_tilde: SpaceTimeField, alpha: float, mu: int):
    """(d/dt + d^3/dx^3) u and (d/dt + d^3/dx^3) u - mu d/dx(|u|^{2a} u) on
    interior frames: np.gradient in time, spectral d^3/dx^3, the power padded
    as in the solver."""
    g, u = u_tilde.grid, u_tilde.values.real
    k = np.fft.ifftshift(g.frequencies())
    modes = g.n // 2
    lin = np.gradient(u, u_tilde.times, axis=0, edge_order=2)
    lin += np.fft.ifft((1j * k) ** 3 * np.fft.fft(u)).real
    nl = mu * 1j * k[:modes] * _nonlinear_power(np.fft.rfft(u)[:, :modes], g.n, alpha)
    return lin[1:-1], lin[1:-1] - np.fft.irfft(nl, g.n)[1:-1]


@pytest.mark.parametrize("dt, tol", [(1e-3, 2e-2), (1e-4, 2e-3)])
def test_residual_envelope_form_matches_time_differencing(dt, tol):
    # times much shorter than 1/xi^3 inside one stored step of v, where
    # np.gradient resolves the carrier; the gap is the linear interpolation
    # of v between stored rows, first order in the stored spacing
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    alpha, mu, xi_n = 1.9, -1, 4.0
    c0, _ = embedding_constants(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = nls_solve(gaussian(g), SolveConfig(alpha=alpha, mu=mu, coupling=c0, t_end=0.01,
                                               dt=dt, store_every=1, both_ways=True))
    times = np.linspace(0.1, 0.9, 41) * dt / (3.0 * xi_n)
    u_tilde = approx_field(v, xi_n, times)
    res = residual_field(u_tilde, v, xi_n, c0, alpha)
    assert np.array_equal(res.times, times)
    assert np.max(np.abs(res.values.imag)) == 0.0
    lin, want = direct_residual(u_tilde, alpha, mu)
    gap = np.max(np.abs(res.values[1:-1] - want)) / np.max(np.abs(lin))
    assert gap < tol


def residual_one_shot(u_tilde: SpaceTimeField, v: SpaceTimeField, xi_n: float, c0: float,
                      alpha: float) -> np.ndarray:
    """residual_field with its nonlinear term formed for all rows at once."""
    grid = v.grid
    xi = grid.frequencies()
    w = physical_rows(grid, v.values, symbol=(1j * xi) ** 3)
    w -= (3j * xi_n * MU * c0) * np.abs(v.values) ** (2.0 * alpha) * v.values
    res = approx_field(SpaceTimeField(grid, v.times, w), xi_n, u_tilde.times).values
    n = grid.n
    modes = (n + 1) // 2
    nl = _nonlinear_power(np.fft.rfft(u_tilde.values.real)[:, :modes], n, alpha)
    nl *= MU * 1j * np.fft.ifftshift(xi)[:modes]
    res -= np.fft.irfft(nl, n)
    return res


def residual_case(m: int):
    """Arguments of residual_field at m times inside the seams of T = 0.05."""
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    alpha, xi_n, T = 1.9, 4.0, 0.05
    c0, _ = embedding_constants(alpha)
    v = nls_solve(gaussian(g), SolveConfig(alpha=alpha, mu=MU, coupling=c0, t_end=T,
                                           dt=1e-3, store_every=5, both_ways=True))
    seam = T / (3.0 * xi_n)
    u_tilde = approx_field(v, xi_n, np.linspace(-0.9 * seam, 0.9 * seam, m))
    return u_tilde, v, xi_n, c0, alpha


@pytest.mark.parametrize("m", [RESIDUAL_FRAMES, ROW_BLOCK + 7, 1])
def test_streamed_residual_equals_the_one_shot_form(m):
    args = residual_case(m)
    got = residual_field(*args)
    assert np.array_equal(got.values, residual_one_shot(*args))


def test_streamed_residual_rows_from_a_helper_equal_the_one_shot_form(monkeypatch, on_helper):
    # on_helper runs only the helper's blocks, so only their rows are compared
    helper_rows = []

    def on_helper_blocks(reduce, *args, **kwargs):
        def record(rows, block):
            helper_rows.append(rows)
            return reduce(rows, block)

        return map_row_blocks(on_helper(record), *args, **kwargs)

    monkeypatch.setattr(embedding, "map_row_blocks", on_helper_blocks)
    args = residual_case(RESIDUAL_FRAMES)
    got = residual_field(*args).values
    want = residual_one_shot(*args)
    assert helper_rows
    for rows in helper_rows:
        assert np.array_equal(got[rows], want[rows])


def test_residual_Y_is_stable_under_frame_refinement(monkeypatch):
    # criterion 11's input: doubling the residual times moves residual_Y by < 1 %
    g = Grid(1024, 8.0 * math.pi, -4.0 * math.pi)
    cfg = EmbeddingConfig(alpha=1.9, phi=gaussian(g), xi_list=(16.0, 32.0), T=1.0,
                          nls_dt=1e-3)
    coarse = [r["residual_Y"] for r in embedding_experiment(cfg)]
    monkeypatch.setattr(embedding, "RESIDUAL_FRAMES", 2 * embedding.RESIDUAL_FRAMES - 1)
    fine = [r["residual_Y"] for r in embedding_experiment(cfg)]
    for a, b in zip(coarse, fine):
        assert abs(b - a) < 0.01 * a


# ---------------------------------------------------------------------------
# experiment configuration and a miniature sweep
# ---------------------------------------------------------------------------

def test_embedding_config_validation():
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    phi = gaussian(g)

    def config(xi_list=(4.0,), T=1.0, nls_dt=1e-3):
        return EmbeddingConfig(alpha=1.9, phi=phi, xi_list=xi_list, T=T, nls_dt=nls_dt)

    with pytest.raises(ValueError, match="ascending"):
        config(xi_list=(16.0, 8.0))
    with pytest.raises(ValueError, match="positive"):
        config(T=0.0)
    with pytest.raises(ValueError, match="lattice"):
        config(xi_list=(4.3,))
    for bad in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="gives no finite lattice index"):
            config(xi_list=(bad,))
    for bad in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="nls_dt must be positive and finite"):
            config(nls_dt=bad)
        with pytest.raises(ValueError, match="T must be positive and finite"):
            config(T=bad)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            EmbeddingConfig(alpha=bad, phi=phi, xi_list=(4.0,), T=1.0, nls_dt=1e-3)


def test_embedding_experiment_small_sweep():
    g = Grid(256, 8 * np.pi, -4 * np.pi)
    cfg = EmbeddingConfig(alpha=1.9, phi=gaussian(g), xi_list=(4.0,),
                          T=0.25, nls_dt=5e-3)
    rows = embedding_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"xi", "seam_time", "err_lhat_alpha", "norm_S",
                        "norm_L", "residual_Y", "harmonics_resolved"}
    assert row["harmonics_resolved"] is True  # 3 (4 + 4^{1/4}) < 31.75
    assert row["xi"] == 4.0
    assert row["seam_time"] == pytest.approx(0.25 / 12.0)
    for key in ("err_lhat_alpha", "norm_S", "norm_L", "residual_Y"):
        assert math.isfinite(row[key]) and row[key] > 0


def test_embedding_experiment_reports_solver_range_warning():
    # alpha = 1.5 lies outside the range of the nonlinear estimates
    g = Grid(64, 8 * np.pi, -4 * np.pi)
    cfg = EmbeddingConfig(alpha=1.5, phi=gaussian(g), xi_list=(4.0,),
                          T=0.1, nls_dt=1e-2)
    with pytest.warns(UserWarning) as record:
        rows = embedding_experiment(cfg)
    assert len(rows) == 1
    # the solver warnings point at the module that builds the SolveConfigs
    solver = [w for w in record if "outside the range" in str(w.message)]
    assert solver
    assert all(os.path.basename(w.filename) == "embedding.py" for w in solver)
    # 3 (4 + 4^{1/4}) lies above this grid's top frequency 7.75: the row says
    # so, and the warning points at the caller of embedding_experiment
    assert rows[0]["harmonics_resolved"] is False
    harmonic = [w for w in record if "third harmonic" in str(w.message)]
    assert len(harmonic) == 1 and harmonic[0].filename == __file__
    assert len(solver) + len(harmonic) == len(record)


# ---------------------------------------------------------------------------
# the sweep on the calling thread
# ---------------------------------------------------------------------------

def sweep_config(alpha: float) -> EmbeddingConfig:
    # top frequency 31.5: the third harmonic 3 (10 + 10^{1/4}) = 35.3 of the
    # last carrier lies above it
    g = Grid(128, 4 * np.pi, -2 * np.pi)
    return EmbeddingConfig(alpha=alpha, phi=gaussian(g), xi_list=(4.0, 8.0, 10.0), T=1.0,
                           nls_dt=1e-2)


def test_sweep_rows_and_warnings_do_not_depend_on_the_helper_count(monkeypatch):
    # alpha = 1.5 is outside the estimates' range, so every SolveConfig warns
    cfg = sweep_config(1.5)
    real = {name: getattr(embedding, name) for name in ("gkdv_solve", "nls_solve")}
    on_main = []

    def spy(name):
        def solve(u0, solve_cfg):
            on_main.append(threading.current_thread() is threading.main_thread())
            return real[name](u0, solve_cfg)

        return solve

    for name in real:
        monkeypatch.setattr(embedding, name, spy(name))
    runs = []
    for helpers in (0, 1, 3):  # 3 is more threads than this host may have cores
        monkeypatch.setattr(grid_module, "HELPERS", helpers)
        on_main.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = embedding_experiment(cfg)
        assert on_main == [True] * 6
        runs.append((rows, [(w.category, str(w.message), w.filename, w.lineno)
                            for w in caught]))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    rows, caught = runs[0]
    assert [r["harmonics_resolved"] for r in rows] == [True, True, False]
    harmonic = [w for w in caught if "third harmonic" in w[1]]
    assert len(harmonic) == 1 and harmonic[0][2] == __file__
    solver = [w for w in caught if "outside the range" in w[1]]
    assert len(solver) == 6 and all(os.path.basename(w[2]) == "embedding.py" for w in solver)
    assert len(solver) + len(harmonic) == len(caught)


def test_embedding_references_hold_in_process():
    # perfbench's embedding workload checks these values at seed 0; read here
    # (never written), a change that moves them fails in the test suite too
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    refs = json.loads(path.read_text())["embedding"]["sweep"]
    grid = Grid(1024, 8.0 * np.pi, -4.0 * np.pi)
    x = grid.nodes()
    rng = np.random.default_rng(0)
    amp, center = rng.uniform(0.95, 1.05), rng.uniform(-0.5, 0.5)
    phi = GridFunction(grid, (amp * np.exp(-(x - center) ** 2)).astype(complex), PHYSICAL)
    rows = embedding_experiment(EmbeddingConfig(alpha=1.9, phi=phi, xi_list=(16.0, 32.0),
                                                T=1.0, nls_dt=1e-3))
    got = {f"{key}@{row['xi']:g}": value for row in rows for key, value in row.items()}
    assert len(refs) == 8
    for key, want in refs.items():
        assert got[key] == pytest.approx(want, rel=1e-9, abs=0.0), key

