import math
import warnings

import numpy as np
import pytest

from dlab.deformations import airy_flow, schrodinger_flow
from dlab.evolutions import (BLOWUP_SUP, DEALIAS_PAD, MAX_STEPS, BlowupError, SolveConfig,
                             _nonlinear_power, _record, _stored, c_alpha, drift, energy,
                             gkdv_solve, mass, nls_solve, soliton_exact, soliton_profile,
                             soliton_Q, suggest_dt)
from dlab.grid import FOURIER, ROW_BLOCK, Grid, GridFunction


def gaussian(grid: Grid, amp: float = 1.0) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, amp * np.exp(-x ** 2).astype(complex))


def quiet_config(**kw) -> SolveConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SolveConfig(**kw)


GRID = Grid(256, 16 * np.pi, -8 * np.pi)


def gkdv_solve_reference(u0: GridFunction, cfg: SolveConfig):
    """The direct integrating-factor RK4 in w = e^{-i t xi^3} uhat: complex
    FFTs of length n, the phases e^{+-i t xi^3} taken afresh in every stage
    and the Nyquist mode kept.  gkdv_solve must reproduce it on data whose
    Nyquist coefficient is negligible."""
    up = u0.to_physical()
    n = up.grid.n
    xi = np.fft.ifftshift(up.grid.frequencies())
    factor = cfg.mu * cfg.coupling * 1j * xi

    def nonlinear_power(u):
        m = DEALIAS_PAD * n
        big = np.zeros(m, dtype=np.complex128)
        uh = np.fft.fft(u)
        big[: n // 2], big[m - n // 2:] = uh[: n // 2], uh[n // 2:]
        ubig = np.fft.ifft(big) * DEALIAS_PAD
        wh = np.fft.fft(np.abs(ubig) ** (2.0 * cfg.alpha) * ubig) / DEALIAS_PAD
        return np.fft.ifft(np.concatenate([wh[: n // 2], wh[m - n // 2:]]))

    def rhs(t, w):
        u = np.fft.ifft(np.exp(1j * t * xi ** 3) * w)
        return np.exp(-1j * t * xi ** 3) * factor * np.fft.fft(nonlinear_power(u))

    def steps(dt, n_steps, store_every):
        w = np.fft.fft(up.values)
        for step in range(1, n_steps + 1):
            t = (step - 1) * dt
            k1 = rhs(t, w)
            k2 = rhs(t + dt / 2, w + dt / 2 * k1)
            k3 = rhs(t + dt / 2, w + dt / 2 * k2)
            k4 = rhs(t + dt, w + dt * k3)
            w = w + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if _stored(step, n_steps, store_every):
                yield step * dt, np.fft.ifft(np.exp(1j * step * dt * xi ** 3) * w)

    return _record(up.grid, up.values, steps, cfg)


def nls_solve_reference(v0: GridFunction, cfg: SolveConfig):
    """The unmerged Strang step: half linear step, nonlinear rotation, half
    linear step, each step starting and ending on physical samples.
    nls_solve, which merges adjacent half steps, must reproduce it."""
    vp = v0.to_physical()
    xi = np.fft.ifftshift(vp.grid.frequencies())
    rate = cfg.mu * cfg.coupling

    def steps(dt, n_steps, store_every):
        half_linear = np.exp(1j * (dt / 2.0) * xi ** 2)
        v = vp.values
        for step in range(1, n_steps + 1):
            v = np.fft.ifft(half_linear * np.fft.fft(v))
            v = v * np.exp(1j * rate * np.abs(v) ** (2.0 * cfg.alpha) * dt)
            v = np.fft.ifft(half_linear * np.fft.fft(v))
            if _stored(step, n_steps, store_every):
                yield step * dt, v

    return _record(vp.grid, vp.values, steps, cfg)


def mass_reference(u: GridFunction) -> float:
    """M[u] = 1/2 ||u||^2 of one frame, by its GridFunction norm."""
    return 0.5 * u.l2_norm() ** 2


def energy_reference(u: GridFunction, alpha: float, mu: float = -1) -> float:
    """E[u] of one frame, with the kinetic term on the unitary Fourier side."""
    fh = u.to_fourier()
    xi = fh.grid.frequencies()
    kinetic = 0.5 * float(np.sum(np.abs(1j * xi * fh.values) ** 2) * fh.grid.dxi)
    up = u.to_physical()
    potential = float(np.sum(np.abs(up.values) ** (2 * alpha + 2)) * up.grid.dx)
    return kinetic + mu / (2.0 * alpha + 2.0) * potential


def gaussian_plus_noise(grid: Grid) -> GridFunction:
    """A bump plus noise band-limited to |xi| <= 4, real-valued."""
    rng = np.random.default_rng(0)
    x, xi = grid.nodes(), grid.frequencies()
    coef = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)) * (np.abs(xi) <= 4.0)
    noise = GridFunction(grid, coef, FOURIER).to_physical().values.real
    return GridFunction(grid, 0.8 * np.exp(-(x / 2.0) ** 2)
                        + 0.05 * noise / np.max(np.abs(noise)))


def test_config_validation():
    with pytest.raises(ValueError):
        quiet_config(alpha=-1.0)
    with pytest.raises(ValueError):
        quiet_config(alpha=1.8, mu=0)
    with pytest.raises(ValueError):
        quiet_config(alpha=1.8, dt=0.0)
    with pytest.raises(ValueError):
        quiet_config(alpha=1.8, coupling=-0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            quiet_config(alpha=1.8, dt=bad)
        with pytest.raises(ValueError, match="t_end must be finite and nonzero"):
            quiet_config(alpha=1.8, t_end=bad)
    with pytest.raises(ValueError, match="t_end must be finite and nonzero"):
        quiet_config(alpha=1.8, t_end=0.0)
    with pytest.raises(ValueError, match="overflows"):
        quiet_config(alpha=1.8, t_end=1e300, dt=1e-300)
    # 1e16 steps: refused before any step is taken
    with pytest.raises(ValueError, match=r"^\|t_end\| / dt = 1e\+16 steps, more than MAX_STEPS"):
        quiet_config(alpha=1.8, t_end=1e13, dt=1e-3)
    assert quiet_config(alpha=1.8, t_end=MAX_STEPS * 1e-3, dt=1e-3).n_steps == MAX_STEPS
    # 1.6e7 frames of 2^20 points, past any address space: refused before any step
    big = Grid(2 ** 20, 16 * np.pi, -8 * np.pi)
    with pytest.raises(ValueError, match=r"^1.6e\+07 frames of 1048576 points need 2.68e\+14 bytes"):
        nls_solve(gaussian(big), quiet_config(alpha=1.8, t_end=16000.0, dt=1e-3))
    with pytest.warns(UserWarning, match="outside the range"):
        SolveConfig(alpha=1.0)


@pytest.mark.parametrize("field, bad", [("alpha", math.nan), ("alpha", math.inf),
                                        ("coupling", math.nan), ("coupling", math.inf)])
def test_config_rejects_non_finite_alpha_and_coupling(field, bad):
    kw = {"alpha": 1.8, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be .* and finite, got {bad}$"):
        quiet_config(**kw)


def test_alpha_range_warning_names_the_calling_line():
    with pytest.warns(UserWarning, match="outside the range") as record:
        SolveConfig(alpha=1.0)
    assert record[0].filename == __file__


@pytest.mark.parametrize("t_end, dt, warns", [
    (1e-4, 1e-3, True),     # one step, ten times t_end
    (-1e-4, 1e-3, True),
    (0.01, 9.346e-4, False),  # 11 steps end at 0.0102806, within dt / 2
    (0.5, 1e-3, False),
])
def test_end_time_warning_when_the_last_step_overshoots(t_end, dt, warns):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        cfg = SolveConfig(alpha=1.8, t_end=t_end, dt=dt)
    lines = [str(w.message) for w in record]
    assert lines == ([f"the solve ends at |t|={cfg.n_steps * dt:g}, not |t_end|={abs(t_end):g}: "
                      f"{cfg.n_steps} step(s) of dt={dt:g}"] if warns else [])
    assert all(w.filename == __file__ for w in record)


def test_suggest_dt_rule():
    assert suggest_dt(GRID, xi_active=4.0) == pytest.approx(0.7 * 2.8 / 64.0)
    full_band = float(np.max(np.abs(GRID.frequencies())))
    assert suggest_dt(GRID) == pytest.approx(0.7 * 2.8 / full_band ** 3)


def test_soliton_satisfies_the_profile_ode():
    # -Q'' + Q = Q^{2a+1}, checked spectrally
    alpha = 1.8
    g = Grid(1024, 40 * np.pi, -20 * np.pi)
    q = soliton_Q(alpha, g)
    xi = np.fft.ifftshift(g.frequencies())
    qh = np.fft.fft(q.values)
    qxx = np.fft.ifft((1j * xi) ** 2 * qh)
    resid = -qxx + q.values - q.values ** (2 * alpha + 1)
    assert np.max(np.abs(resid)) < 1e-6


def test_soliton_exact_translates():
    alpha, c = 1.8, 0.9
    g = Grid(512, 40 * np.pi, -20 * np.pi)
    q0 = soliton_exact(alpha, g, c, 0.0)
    assert (q0 - soliton_Q(alpha, g, c)).l2_norm() < 1e-14
    moved = soliton_exact(alpha, g, c, 0.5)
    x = g.nodes()
    direct = c ** (1 / alpha) * soliton_profile(alpha, c * (x - c * c * 0.5))
    assert np.max(np.abs(moved.values - direct)) < 1e-12


def test_soliton_propagates_under_gkdv():
    alpha = 1.8
    g = Grid(512, 40 * np.pi, -20 * np.pi)
    u0 = soliton_Q(alpha, g)
    cfg = quiet_config(alpha=alpha, mu=-1, t_end=0.1, dt=1e-3,
                       store_every=1000)
    run = gkdv_solve(u0, cfg)
    t_final = float(run.times[-1])
    last = GridFunction(g, run.values[-1])
    gap = (last - soliton_exact(alpha, g, 1.0, t_final)).l2_norm()
    assert gap / u0.l2_norm() < 1e-5


def test_c_alpha_value_and_energy():
    assert c_alpha(1.0) == pytest.approx(math.sqrt(0.5), abs=1e-8)
    alpha = 1.5
    c = c_alpha(alpha)
    assert c < 1.0
    g = Grid(2048, 80.0, -40.0)
    scaled = c * soliton_profile(alpha, g.nodes())
    assert abs(energy(g, scaled, alpha, mu=-1)) < 1e-8
    assert mass(g, soliton_Q(alpha, g).values) > 0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.85, 1.95])
def test_c_alpha_matches_adaptive_quadrature(alpha):
    from scipy.integrate import quad

    def q(x):
        return float(soliton_profile(alpha, np.asarray(x)))

    num = quad(lambda x: (q(x) * math.tanh(alpha * x)) ** 2, -60, 60, limit=200)[0]
    den = quad(lambda x: q(x) ** (2 * alpha + 2), -60, 60, limit=200)[0]
    want = ((alpha + 1.0) * num / den) ** (1.0 / (2.0 * alpha))
    assert abs(c_alpha(alpha) - want) < 1e-12


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_alpha_must_be_positive_and_finite(bad):
    g = Grid(64, 8.0, -4.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        c_alpha(bad)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        soliton_Q(bad, g)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        SolveConfig(alpha=bad)


@pytest.mark.parametrize("mu", [-1, 0.7])
def test_batched_mass_and_energy_match_per_frame_formulas(mu):
    # ROW_BLOCK + 7 complex rows cross a block seam of the batched FFTs
    g = Grid(128, 16.0, -8.0)
    rng = np.random.default_rng(12)
    rows = np.exp(-g.nodes() ** 2) * (rng.normal(size=(ROW_BLOCK + 7, 128))
                                      + 1j * rng.normal(size=(ROW_BLOCK + 7, 128)))
    m, e = mass(g, rows), energy(g, rows, 1.9, mu)
    assert m.shape == e.shape == (ROW_BLOCK + 7,)
    for row, got_m, got_e in zip(rows, m, e):
        frame = GridFunction(g, row)
        assert abs(got_m - mass_reference(frame)) <= 1e-13 * mass_reference(frame)
        want_e = energy_reference(frame, 1.9, mu)
        assert abs(got_e - want_e) <= 1e-13 * abs(want_e)
    # a single frame gives a scalar, a stack of frames one value per frame
    assert np.ndim(mass(g, rows[0])) == 0 and mass(g, rows[0]) == m[0]
    assert energy(g, rows[0], 1.9, mu) == pytest.approx(e[0], rel=1e-15)
    stacked = energy(g, rows[:12].reshape(3, 4, 128), 1.9, mu)
    np.testing.assert_allclose(stacked, e[:12].reshape(3, 4), rtol=1e-15)


def test_drift_is_the_largest_relative_change():
    assert drift(np.array([2.0, 2.5, 1.0, 2.0])) == pytest.approx(0.5)
    assert drift(np.array([-4.0, -4.0])) == 0.0


@pytest.mark.parametrize("t_end", [0.2, -0.2])
def test_gkdv_matches_the_direct_integrating_factor_form(t_end):
    # |u|^{3.8} u is not smooth where u changes sign, so its spectrum decays
    # only algebraically; this grid keeps its Nyquist content, which the two
    # forms treat differently, below the tolerance
    u0 = gaussian_plus_noise(Grid(512, 20 * np.pi, -10 * np.pi))
    cfg = quiet_config(alpha=1.9, t_end=t_end, dt=1e-3, store_every=1)
    run = gkdv_solve(u0, cfg)
    ref = gkdv_solve_reference(u0, cfg)
    assert len(run) == len(ref) == 201
    np.testing.assert_array_equal(run.times, ref.times)
    assert np.all(run.values.imag == 0.0)
    gap = np.max(np.abs(run.values - ref.values)) / np.max(np.abs(ref.values))
    assert gap <= 1e-12


def test_nonlinear_power_of_rows_matches_row_by_row_calls():
    # a 2-D call pads and truncates along the last axis, one row at a time
    n = 128
    rng = np.random.default_rng(5)
    uh = np.fft.rfft(rng.normal(size=(5, n)))[:, : n // 2]
    rows = _nonlinear_power(uh, n, 1.9)
    assert rows.shape == uh.shape
    for k in range(len(uh)):
        np.testing.assert_array_equal(rows[k], _nonlinear_power(uh[k], n, 1.9))


def test_nonlinear_power_rescales_once_like_the_two_scale_form():
    # the power of the unscaled padded samples, rescaled by DEALIAS_PAD^{2 alpha},
    # against samples scaled up by DEALIAS_PAD and a spectrum scaled down by it
    n, alpha = 256, 1.9
    rng = np.random.default_rng(7)
    uh = np.fft.rfft(rng.normal(size=(3, n)))[:, : n // 2]
    ubig = np.fft.irfft(uh, DEALIAS_PAD * n) * DEALIAS_PAD
    direct = np.fft.rfft(np.abs(ubig) ** (2.0 * alpha) * ubig)[:, : n // 2] / DEALIAS_PAD
    folded = _nonlinear_power(uh, n, alpha)
    assert np.max(np.abs(folded - direct)) <= 1e-15 * np.max(np.abs(direct))


def test_nonlinear_power_blowup_bound_is_on_the_true_samples():
    # the constant state u = BLOWUP_SUP passes, twice it stops the stage
    uh = np.zeros(8, dtype=complex)
    uh[0] = 16 * BLOWUP_SUP
    _nonlinear_power(uh, 16, 0.01)
    with pytest.raises(FloatingPointError):
        _nonlinear_power(2.0 * uh, 16, 0.01)


@pytest.mark.parametrize("solver, u0, store_every", [
    (gkdv_solve, gaussian_plus_noise(GRID), 3),
    (nls_solve, gaussian(GRID, amp=1.5), 7),
])
def test_both_ways_solve_is_the_two_one_sided_solves_joined(solver, u0, store_every):
    kw = {"alpha": 1.9, "t_end": 0.05, "dt": 1e-3, "store_every": store_every}
    run = solver(u0, quiet_config(**kw, both_ways=True))
    fwd = solver(u0, quiet_config(**kw))
    bwd = solver(u0, quiet_config(**{**kw, "t_end": -0.05}))
    assert len(run) == len(fwd) + len(bwd) - 1
    np.testing.assert_array_equal(run.times, np.concatenate([bwd.times[:-1], fwd.times]))
    joined = np.concatenate([bwd.values[:-1], fwd.values])
    assert np.max(np.abs(run.values - joined)) <= 1e-15 * np.max(np.abs(joined))


@pytest.mark.parametrize("t_end", [0.1, -0.1])
@pytest.mark.parametrize("store_every", [1, 7, 1000])
def test_nls_merged_step_matches_the_unmerged_strang_step(t_end, store_every):
    # 100 steps: store_every = 7 leaves a partial last stride, 1000 stores
    # only u0 and the last frame
    v0 = gaussian(GRID, amp=1.5)
    cfg = quiet_config(alpha=2.0, mu=-1, t_end=t_end, dt=1e-3, store_every=store_every)
    run = nls_solve(v0, cfg)
    ref = nls_solve_reference(v0, cfg)
    assert len(run) == len(ref) == 1 + -(-100 // store_every)
    np.testing.assert_array_equal(run.times, ref.times)
    gap = np.max(np.abs(run.values - ref.values)) / np.max(np.abs(ref.values))
    assert gap <= 1e-12


def test_solvers_transform_back_only_at_stored_frames(monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kw):
            calls.append((_name, kw.get("n", args[1] if len(args) > 1 else None)))
            return _fn(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    cfg = quiet_config(alpha=2.0, t_end=0.1, dt=1e-3, store_every=7)  # 100 steps
    run = nls_solve(gaussian(GRID), cfg)
    assert len(run) == 16
    # an opening half step, two transforms a step, one per stored frame
    assert len(calls) == 2 * 100 + 15 + 1
    calls.clear()
    gkdv_solve(gaussian(GRID), cfg)
    assert calls.count(("irfft", GRID.n)) == 15


def test_gkdv_zero_coupling_is_airy():
    u0 = gaussian(GRID)
    cfg = quiet_config(alpha=1.8, coupling=0.0, t_end=0.1, dt=1e-3,
                       store_every=100)
    run = gkdv_solve(u0, cfg)
    exact = airy_flow(u0, float(run.times[-1]))
    assert (GridFunction(run.grid, run.values[-1]) - exact).l2_norm() / u0.l2_norm() < 1e-10


def test_nls_zero_coupling_is_schrodinger():
    v0 = gaussian(GRID)
    cfg = quiet_config(alpha=2.0, coupling=0.0, t_end=0.1, dt=1e-3,
                       store_every=100)
    run = nls_solve(v0, cfg)
    # the linear part is i v_t - v_xx = 0, the time-reverse of the free
    # Schrodinger group e^{i t d^2/dx^2}
    exact = schrodinger_flow(v0, -float(run.times[-1]))
    assert (GridFunction(run.grid, run.values[-1]) - exact).l2_norm() / v0.l2_norm() < 1e-10


def test_nls_conserves_mass():
    v0 = gaussian(GRID)
    cfg = quiet_config(alpha=2.0, t_end=0.5, dt=1e-3, store_every=100)
    run = nls_solve(v0, cfg)
    assert drift(mass(GRID, run.values)) < 1e-12


def test_gkdv_rejects_complex_data():
    g = GRID
    v = GridFunction(g, (1.0 + 0.5j) * np.exp(-g.nodes() ** 2))
    with pytest.raises(ValueError, match="real-valued"):
        gkdv_solve(v, quiet_config(alpha=1.8))


def test_backward_solve_matches_free_flow():
    u0 = gaussian(GRID)
    cfg = quiet_config(alpha=1.8, coupling=0.0, t_end=-0.1, dt=1e-3,
                       store_every=100)
    run = gkdv_solve(u0, cfg)
    assert run.times[0] == pytest.approx(-0.1)
    assert run.times[-1] == pytest.approx(0.0)
    assert (GridFunction(run.grid, run.values[-1]) - u0).l2_norm() < 1e-12
    exact = airy_flow(u0, -0.1)
    assert (GridFunction(run.grid, run.values[0]) - exact).l2_norm() / u0.l2_norm() < 1e-10


def test_blowup_detection():
    u0 = gaussian(GRID, amp=4.0)
    cfg = quiet_config(alpha=3.0, mu=1, t_end=100.0, dt=10.0)
    # stopped before |u|^{2 alpha} overflows: no numpy RuntimeWarning
    with warnings.catch_warnings(), pytest.raises(BlowupError) as info:
        warnings.simplefilter("error")
        gkdv_solve(u0, cfg)
    err = info.value
    assert err.t_last >= 0.0
    assert len(err.partial) >= 1
    assert err.partial.times[0] == 0.0
    # the |v| of the NLS phase rotation is checked in every step, stored or not
    with warnings.catch_warnings(), pytest.raises(BlowupError) as info:
        warnings.simplefilter("error")
        nls_solve(gaussian(GRID, amp=2e8), quiet_config(alpha=2.0, t_end=0.01, store_every=5))
    assert info.value.t_last == 0.0
    np.testing.assert_array_equal(info.value.partial.times, [0.0])


@pytest.mark.parametrize("solver, u0, cfg, frames", [
    # dt far above the accuracy rule: the RK4 stages grow for a few steps
    (gkdv_solve, gaussian(GRID, amp=2.0),
     quiet_config(alpha=2.0, t_end=0.4, dt=2e-3, both_ways=True), 23),
    (nls_solve, gaussian(GRID, amp=2e8),
     quiet_config(alpha=2.0, t_end=0.01, store_every=5, both_ways=True), 1),
])
def test_blowup_in_a_both_ways_solve_keeps_the_frames_around_t0(solver, u0, cfg, frames):
    with warnings.catch_warnings(), pytest.raises(BlowupError) as info:
        warnings.simplefilter("error")
        solver(u0, cfg)
    partial = info.value.partial
    assert len(partial) == frames
    # as many frames on each side of t = 0, times ascending
    np.testing.assert_array_equal(partial.times, -partial.times[::-1])
    assert partial.times[len(partial) // 2] == 0.0
    np.testing.assert_array_equal(partial.values[len(partial) // 2], u0.to_physical().values)
    assert np.all(np.diff(partial.times) > 0)
    assert np.all(np.isfinite(partial.values))
    assert info.value.t_last == partial.times[-1]
