"""Linear propagators and nonlinear solvers.

gKdV   d/dt u + d^3/dx^3 u = mu * d/dx(|u|^{2a} u)
NLS    i d/dt v - d^2/dx^2 v = -mu * coupling * |v|^{2a} v

The gKdV solver is an integrating-factor RK4 in Fourier variables
w = e^{-i t xi^3} uhat, which removes the stiff dispersive term exactly;
the NLS solver is Strang splitting with the exact pointwise phase
rotation for the nonlinear flow.  Nonlinear products are dealiased by
zero padding (fractional powers |u|^{2a} cannot be dealiased exactly).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import PHYSICAL, Grid, GridFunction, SpaceTimeField

BLOWUP_SUP = 1e8
ESTIMATE_ALPHA_RANGE = (8.0 / 5.0, 10.0 / 3.0)
DEALIAS_PAD = 2  # nonlinear products are formed on a grid this many times finer


@dataclass
class SolveConfig:
    alpha: float
    mu: int = -1
    coupling: float = 1.0
    t_end: float = 1.0
    dt: float = 1e-3
    store_every: int = 1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.mu not in (-1, 1):
            raise ValueError(f"mu must be +1 or -1, got {self.mu}")
        if self.coupling < 0:
            raise ValueError("coupling must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        lo, hi = ESTIMATE_ALPHA_RANGE
        if not (lo < self.alpha < hi):
            warnings.warn(
                f"alpha={self.alpha} is outside the range ({lo:g}, {hi:g}) "
                "covered by the nonlinear estimates; solver runs anyway",
                stacklevel=3,  # past the generated __init__ to the caller
            )


class BlowupError(RuntimeError):
    """Solution left the resolvable regime; carries the last good time."""

    def __init__(self, t_last: float, partial: SpaceTimeField):
        super().__init__(f"blow-up or instability detected after t={t_last:g}")
        self.t_last = t_last
        self.partial = partial


def suggest_dt(grid: Grid, xi_active: float | None = None, safety: float = 0.7) -> float:
    """Time step resolving e^{i t xi^3} on the dynamically active band.

    The integrating factor removes the stiff linear term exactly, so this
    is an accuracy rule, not a CFL bound: the RK4 stage phases must stay
    below O(1) on frequencies where the nonlinearity has content.
    """
    if xi_active is None:
        xi_active = float(np.max(np.abs(grid.frequencies())))
    return safety * 2.8 / max(xi_active, 1.0) ** 3


def _nonlinear_power(u: np.ndarray, alpha: float) -> np.ndarray:
    """|u|^{2 alpha} u evaluated on a zero-padded grid, truncated back."""
    n = u.size
    m = DEALIAS_PAD * n
    uh = np.fft.fft(u)
    big = np.zeros(m, dtype=np.complex128)
    big[: n // 2] = uh[: n // 2]
    big[m - n // 2 :] = uh[n // 2 :]
    ubig = np.fft.ifft(big) * DEALIAS_PAD
    wbig = np.abs(ubig) ** (2.0 * alpha) * ubig
    wh = np.fft.fft(wbig) / DEALIAS_PAD
    out = np.empty(n, dtype=np.complex128)
    out[: n // 2] = wh[: n // 2]
    out[n // 2 :] = wh[m - n // 2 :]
    return np.fft.ifft(out)


def _record(grid: Grid, u0: np.ndarray, steps, cfg: SolveConfig) -> SpaceTimeField:
    """u0 and every store_every-th and the last (t, u) of steps(dt, n_steps).

    The frames go into one array, which a backward solve fills from the end
    so that times ascend.  A non-finite or huge state raises BlowupError
    with the frames stored so far.
    """
    backward = cfg.t_end < 0
    n_steps = max(1, round(abs(cfg.t_end) / cfg.dt))
    n_store = 1 + -(-n_steps // cfg.store_every)
    times = np.empty(n_store)
    values = np.empty((n_store, grid.n), dtype=np.complex128)
    i = n_store - 1 if backward else 0
    times[i], values[i] = 0.0, u0
    for step, (t, u) in enumerate(steps(-cfg.dt if backward else cfg.dt, n_steps), start=1):
        sup = float(np.max(np.abs(u)))
        if not math.isfinite(sup) or sup > BLOWUP_SUP:
            kept = slice(i, None) if backward else slice(0, i + 1)
            raise BlowupError(float(times[i]),
                              SpaceTimeField(grid, times[kept], values[kept]))
        if step % cfg.store_every == 0 or step == n_steps:
            i += -1 if backward else 1
            times[i], values[i] = t, u
    return SpaceTimeField(grid, times, values)


def gkdv_solve(u0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Integrating-factor RK4 for gKdV; returns physical frames at cadence.

    cfg.t_end may be negative (backward solve); frames are returned in
    increasing time order either way.
    """
    up = u0.to_physical()
    if float(np.max(np.abs(up.values.imag))) > 1e-12:
        raise ValueError("gKdV data must be real-valued")
    xi = np.fft.ifftshift(up.grid.frequencies())  # fft ordering
    factor = cfg.mu * cfg.coupling * 1j * xi

    def rhs(t: float, w: np.ndarray) -> np.ndarray:
        u = np.fft.ifft(np.exp(1j * t * xi**3) * w)
        nl = _nonlinear_power(u, cfg.alpha)
        return np.exp(-1j * t * xi**3) * factor * np.fft.fft(nl)

    def steps(dt, n_steps):
        w = np.fft.fft(up.values)
        t = 0.0
        for step in range(1, n_steps + 1):
            k1 = rhs(t, w)
            k2 = rhs(t + dt / 2, w + dt / 2 * k1)
            k3 = rhs(t + dt / 2, w + dt / 2 * k2)
            k4 = rhs(t + dt, w + dt * k3)
            w = w + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = step * dt
            yield t, np.fft.ifft(np.exp(1j * t * xi**3) * w)

    return _record(up.grid, up.values, steps, cfg)


def nls_solve(v0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Strang split-step for i v_t - v_xx = -mu*coupling*|v|^{2a} v.

    The linear flow is e^{-i t d^2/dx^2} (Fourier phase e^{+i t xi^2});
    the nonlinear flow rotates pointwise by e^{+i mu coupling |v|^{2a} dt}.
    Mass is conserved exactly up to FFT roundoff.
    """
    vp = v0.to_physical()
    xi = np.fft.ifftshift(vp.grid.frequencies())
    rate = cfg.mu * cfg.coupling

    def steps(dt, n_steps):
        half_linear = np.exp(1j * (dt / 2.0) * xi**2)
        v = vp.values
        for step in range(1, n_steps + 1):
            v = np.fft.ifft(half_linear * np.fft.fft(v))
            v = v * np.exp(1j * rate * np.abs(v) ** (2.0 * cfg.alpha) * dt)
            v = np.fft.ifft(half_linear * np.fft.fft(v))
            yield step * dt, v

    return _record(vp.grid, vp.values, steps, cfg)


# ---------------------------------------------------------------------------
# soliton family
# ---------------------------------------------------------------------------

def soliton_profile(alpha: float, x: np.ndarray) -> np.ndarray:
    """Ground state Q of -Q'' + Q = Q^{2 alpha + 1}."""
    return (alpha + 1.0) ** (1.0 / (2.0 * alpha)) * np.cosh(alpha * x) ** (-1.0 / alpha)


def soliton_Q(alpha: float, grid: Grid, c: float = 1.0, shift: float = 0.0) -> GridFunction:
    """Traveling-wave initial state c^{1/alpha} Q(c (x - shift))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = grid.nodes()
    vals = c ** (1.0 / alpha) * soliton_profile(alpha, c * (x - shift))
    return GridFunction(grid, vals.astype(np.complex128), PHYSICAL)


def soliton_exact(alpha: float, grid: Grid, c: float, t: float,
                  shift: float = 0.0) -> GridFunction:
    """Closed-form soliton Q_c(t, x) = c^{1/alpha} Q(c (x - c^2 t - shift))."""
    return soliton_Q(alpha, grid, c, shift + c * c * t)


def c_alpha(alpha: float) -> float:
    """Zero-energy speed: ((alpha+1) ||Q'||^2 / ||Q||^{2a+2}_{L^{2a+2}})^{1/(2a)}."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def q(x):
        return soliton_profile(alpha, np.asarray([x]))[0]

    num = quad(lambda x: (q(x) * np.tanh(alpha * x)) ** 2, -60, 60, limit=200)[0]
    den = quad(lambda x: q(x) ** (2 * alpha + 2), -60, 60, limit=200)[0]
    c = ((alpha + 1.0) * num / den) ** (1.0 / (2.0 * alpha))
    if not c < 1.0:
        raise AssertionError(f"zero-energy speed must be < 1, got {c}")
    return c


def mass(u: GridFunction) -> float:
    """M[u] = 1/2 ||u||_{L^2}^2 by grid quadrature."""
    return 0.5 * u.l2_norm() ** 2


def energy(u: GridFunction, alpha: float, mu: int = -1) -> float:
    """E[u] = 1/2 ||u_x||^2 + mu/(2a+2) ||u||^{2a+2}_{L^{2a+2}}."""
    fh = u.to_fourier()
    xi = fh.grid.frequencies()
    kinetic = 0.5 * float(np.sum(np.abs(1j * xi * fh.values) ** 2) * fh.grid.dxi)
    up = u.to_physical()
    potential = float(np.sum(np.abs(up.values) ** (2 * alpha + 2)) * up.grid.dx)
    return kinetic + mu / (2.0 * alpha + 2.0) * potential


def stability_compare(run_a: SpaceTimeField, run_b: SpaceTimeField,
                      alpha: float) -> dict:
    """Norm gaps between two runs on their common grid and times."""
    from .norms import NormSpec, lhat_norm, spacetime_norm

    if not run_a.grid.close_to(run_b.grid):
        raise ValueError("grid mismatch between runs")
    if len(run_a) != len(run_b) or not np.allclose(run_a.times, run_b.times):
        raise ValueError("time stamps mismatch between runs")
    diff = SpaceTimeField(run_a.grid, run_a.times,
                          run_a.physical_array() - run_b.physical_array())
    sup_lhat = max(lhat_norm(GridFunction(diff.grid, row), alpha) for row in diff.values)
    return {
        "gap_S": spacetime_norm(diff, NormSpec.from_preset("S", alpha)),
        "gap_L": spacetime_norm(diff, NormSpec.from_preset("L", alpha)),
        "gap_sup_lhat_alpha": sup_lhat,
        "window": (float(run_a.times[0]), float(run_a.times[-1])),
    }
