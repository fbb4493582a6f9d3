"""Linear propagators and nonlinear solvers.

gKdV   d/dt u + d^3/dx^3 u = mu * d/dx(|u|^{2a} u)
NLS    i d/dt v - d^2/dx^2 v = -mu * coupling * |v|^{2a} v

The gKdV solver is the integrating-factor RK4 of Trefethen, *Spectral
Methods in MATLAB* (SIAM 2000), Program 27 `kdv.m`, stepping the rfft of
the real solution with E = e^{i dt xi^3 / 2} and E^2 built once per solve.
It drops the Nyquist mode, which e^{i t xi^3} and i xi would turn
non-real, so frames after u0 are exactly real with no Nyquist content.
The NLS solver is Strang splitting with the exact pointwise phase
rotation for the nonlinear flow.  Nonlinear products are dealiased by
zero padding (fractional powers |u|^{2a} cannot be dealiased exactly);
a padded sample above BLOWUP_SUP stops the solve before |u|^{2a} overflows.
mass and energy take physical samples (..., n), such as a SpaceTimeField's
values, and return one value per row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import PHYSICAL, ROW_BLOCK, Grid, GridFunction, SpaceTimeField

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

    @property
    def n_steps(self) -> int:
        """Time steps of a solve: |t_end| / dt rounded, at least one."""
        return max(1, round(abs(self.t_end) / self.dt))


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


def _nonlinear_power(uh: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """rfft coefficients of |u|^{2 alpha} u for u = irfft(uh, n), formed on a
    zero-padded grid and truncated back to the len(uh) modes of uh; raises
    FloatingPointError if a padded sample exceeds BLOWUP_SUP or is not finite."""
    m = DEALIAS_PAD * n
    ubig = np.fft.irfft(uh, m) * DEALIAS_PAD
    mag = np.abs(ubig)
    if not mag.max() <= BLOWUP_SUP:
        raise FloatingPointError(f"|u| exceeds {BLOWUP_SUP:g} in a nonlinear stage")
    return np.fft.rfft(mag ** (2.0 * alpha) * ubig)[: uh.size] / DEALIAS_PAD


def _record(grid: Grid, u0: np.ndarray, steps, cfg: SolveConfig) -> SpaceTimeField:
    """u0 and every store_every-th and the last (t, u) of steps(dt, n_steps).

    The frames go into one array, which a backward solve fills from the end
    so that times ascend.  A non-finite or huge state, or a step's
    FloatingPointError, raises BlowupError with the frames stored so far.
    """
    backward = cfg.t_end < 0
    n_steps = cfg.n_steps
    n_store = 1 + -(-n_steps // cfg.store_every)
    times = np.empty(n_store)
    values = np.empty((n_store, grid.n), dtype=np.complex128)
    i = n_store - 1 if backward else 0
    times[i], values[i] = 0.0, u0
    try:
        for step, (t, u) in enumerate(steps(-cfg.dt if backward else cfg.dt, n_steps), start=1):
            if not np.max(np.abs(u)) <= BLOWUP_SUP:
                raise FloatingPointError(f"|u| exceeds {BLOWUP_SUP:g} at t={t:g}")
            if step % cfg.store_every == 0 or step == n_steps:
                i += -1 if backward else 1
                times[i], values[i] = t, u
    except FloatingPointError:
        kept = slice(i, None) if backward else slice(0, i + 1)
        raise BlowupError(float(times[i]),
                          SpaceTimeField(grid, times[kept], values[kept])) from None
    return SpaceTimeField(grid, times, values)


def gkdv_solve(u0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Integrating-factor RK4 for gKdV; returns physical frames at cadence.

    cfg.t_end may be negative (backward solve); frames are returned in
    increasing time order either way.
    """
    up = u0.to_physical()
    if float(np.max(np.abs(up.values.imag))) > 1e-12:
        raise ValueError("gKdV data must be real-valued")
    n = up.grid.n
    modes = (n + 1) // 2  # the rfft modes below Nyquist
    xi = np.fft.ifftshift(up.grid.frequencies())[:modes]

    def steps(dt, n_steps):
        e = np.exp(0.5j * dt * xi**3)
        e2 = e * e
        g = cfg.mu * cfg.coupling * 1j * dt * xi
        v = np.fft.rfft(up.values.real)[:modes]
        for step in range(1, n_steps + 1):
            a = g * _nonlinear_power(v, n, cfg.alpha)
            b = g * _nonlinear_power(e * (v + a / 2), n, cfg.alpha)
            c = g * _nonlinear_power(e * v + b / 2, n, cfg.alpha)
            d = g * _nonlinear_power(e2 * v + e * c, n, cfg.alpha)
            v = e2 * v + (e2 * a + 2 * e * (b + c) + d) / 6
            yield step * dt, np.fft.irfft(v, n)

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


def _per_row(values: np.ndarray, reduce) -> np.ndarray | np.floating:
    """reduce(rows) over ROW_BLOCK rows of a (..., n) array at a time: one
    value per row, a scalar for shape (n,)."""
    rows = values.reshape(-1, values.shape[-1])
    out = np.empty(len(rows))
    for lo in range(0, len(rows), ROW_BLOCK):
        out[lo:lo + ROW_BLOCK] = reduce(rows[lo:lo + ROW_BLOCK])
    return out.reshape(values.shape[:-1])[()]


def mass(grid: Grid, values: np.ndarray) -> np.ndarray | np.floating:
    """M[u] = 1/2 ||u||_{L^2}^2 by grid quadrature, for each row of the
    physical samples `values` (shape (..., n))."""
    return _per_row(values, lambda u: 0.5 * np.sum(np.abs(u) ** 2, axis=-1) * grid.dx)


def energy(grid: Grid, values: np.ndarray, alpha: float,
           mu: float = -1) -> np.ndarray | np.floating:
    """E[u] = 1/2 ||u_x||^2 + mu/(2a+2) ||u||^{2a+2}_{L^{2a+2}} for each row
    of the physical samples `values` (shape (..., n)); by Parseval,
    ||u_x||^2 = (dx/n) sum_k |xi_k DFT(u)_k|^2."""
    xi = np.fft.ifftshift(grid.frequencies())

    def rows(u):
        uh = np.fft.fft(u, axis=-1)
        kinetic = 0.5 * np.sum(np.abs(xi * uh) ** 2, axis=-1) * (grid.dx / grid.n)
        potential = np.sum(np.abs(u) ** (2 * alpha + 2), axis=-1) * grid.dx
        return kinetic + mu / (2.0 * alpha + 2.0) * potential

    return _per_row(values, rows)


def drift(values: np.ndarray) -> float:
    """max_k |values[k] - values[0]| / |values[0]|."""
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))
