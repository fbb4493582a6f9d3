"""Linear propagators and nonlinear solvers.

gKdV   d/dt u + d^3/dx^3 u = mu * d/dx(|u|^{2a} u)
NLS    i d/dt v - d^2/dx^2 v = -mu * coupling * |v|^{2a} v

The gKdV solver is the integrating-factor RK4 of Trefethen, *Spectral
Methods in MATLAB* (SIAM 2000), Program 27 `kdv.m`, stepping the rfft of
the real solution with E = e^{i dt xi^3 / 2} and E^2 built once per solve.
It drops the Nyquist mode, which e^{i t xi^3} and i xi would turn
non-real, so frames after u0 are exactly real with no Nyquist content.
The NLS solver is Strang splitting with the exact pointwise phase
rotation for the nonlinear flow; the closing half linear step of one step
and the opening half step of the next are merged into one full step
(Strang, SIAM J. Numer. Anal. 5, 1968), so a step is one ifft, the phase
rotation and one fft, and the closing half step runs only at stored frames.
Both solvers transform their state back to physical samples only at stored
frames.  Each steps a (k, modes) stack of Fourier rows with a per-row signed
step: k = 1 for a one-sided solve, and k = 2 for a SolveConfig with
both_ways, whose forward and backward rows advance together in every step
and are recorded from t = 0 outwards into one array with times
-|t_end| .. |t_end|.  Nonlinear products are dealiased by zero padding
(fractional powers |u|^{2a} cannot be dealiased exactly): the power is
formed on the padded samples irfft(uh, DEALIAS_PAD n), which are u /
DEALIAS_PAD, and the truncated spectrum is rescaled once by
DEALIAS_PAD^{2a}.  A sample above BLOWUP_SUP in a gKdV stage or an NLS phase
rotation stops the solve before |u|^{2a} overflows.
mass and energy take physical samples (..., n), such as a SpaceTimeField's
values, and return one value per row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import PHYSICAL, Grid, GridFunction, SpaceTimeField, map_row_blocks

BLOWUP_SUP = 1e8
ESTIMATE_ALPHA_RANGE = (8.0 / 5.0, 10.0 / 3.0)
DEALIAS_PAD = 2  # nonlinear products are formed on a grid this many times finer
# Most steps a solve may take each way: about 4000 times criterion 13's
# 4000-step reference, the largest step count in the batteries and the
# benchmark workloads.  A longer solve cannot finish in useful time, and
# with a sparse store_every its frame array is small enough to allocate.
MAX_STEPS = 2 ** 24
# c_alpha's trapezoid nodes: Q and Q' are below roundoff past |x| = 60
C_ALPHA_NODES = np.linspace(-60.0, 60.0, 24001)


def check_alpha(alpha: float) -> None:
    """The one check of the nonlinearity exponent: finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


@dataclass
class SolveConfig:
    alpha: float
    mu: int = -1
    coupling: float = 1.0
    t_end: float = 1.0
    dt: float = 1e-3
    store_every: int = 1
    both_ways: bool = False  # also solve back to -|t_end|, in the same march

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.mu not in (-1, 1):
            raise ValueError(f"mu must be +1 or -1, got {self.mu}")
        if not (math.isfinite(self.coupling) and self.coupling >= 0):
            raise ValueError(f"coupling must be nonnegative and finite, got {self.coupling}")
        if not (math.isfinite(self.t_end) and self.t_end != 0):
            raise ValueError(f"t_end must be finite and nonzero, got {self.t_end}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(abs(self.t_end) / self.dt):
            raise ValueError(f"t_end / dt overflows: t_end={self.t_end}, dt={self.dt}")
        if self.n_steps > MAX_STEPS:
            raise ValueError(f"|t_end| / dt = {self.n_steps:.3g} steps, more than MAX_STEPS = "
                             f"{MAX_STEPS}: t_end={self.t_end}, dt={self.dt}")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        lo, hi = ESTIMATE_ALPHA_RANGE
        if not (lo < self.alpha < hi):
            warnings.warn(
                f"alpha={self.alpha} is outside the range ({lo:g}, {hi:g}) "
                "covered by the nonlinear estimates; solver runs anyway",
                stacklevel=3,  # past the generated __init__ to the caller
            )
        reach = self.n_steps * self.dt
        if abs(reach - abs(self.t_end)) > self.dt / 2:
            warnings.warn(f"the solve ends at |t|={reach:g}, not |t_end|={abs(self.t_end):g}: "
                          f"{self.n_steps} step(s) of dt={self.dt:g}", stacklevel=3)

    @property
    def n_steps(self) -> int:
        """Time steps of a solve in each direction: |t_end| / dt rounded, at
        least one."""
        return max(1, round(abs(self.t_end) / self.dt))


class BlowupError(RuntimeError):
    """Solution left the resolvable regime; carries the last good time."""

    def __init__(self, t_last: float, partial: SpaceTimeField):
        super().__init__(f"blow-up or instability detected after t={t_last:g}")
        self.t_last = t_last
        self.partial = partial


def suggest_dt(grid: Grid, xi_active: float | None = None) -> float:
    """Time step resolving e^{i t xi^3} on the dynamically active band.

    The integrating factor removes the stiff linear term exactly, so this
    is an accuracy rule, not a CFL bound: the RK4 stage phases must stay
    below O(1) on frequencies where the nonlinearity has content:
    dt * xi_active^3 = 0.7 * 2.8.
    """
    if xi_active is None:
        xi_active = float(np.max(np.abs(grid.frequencies())))
    return 0.7 * 2.8 / max(xi_active, 1.0) ** 3


def _nonlinear_power(uh: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """rfft coefficients of |u|^{2 alpha} u for u = irfft(uh, n), formed on a
    zero-padded grid and truncated back to the uh.shape[-1] modes of uh, row
    by row along the last axis; raises FloatingPointError if a padded sample
    exceeds BLOWUP_SUP or is not finite.

    The padded samples irfft(uh, P n) are u / P, so the power is formed from
    them unscaled and the truncated spectrum is multiplied once by P^{2 alpha}
    (P = DEALIAS_PAD); the bound BLOWUP_SUP / P is exact for P = 2."""
    ubig = np.fft.irfft(uh, DEALIAS_PAD * n)
    mag = np.abs(ubig)
    if not mag.max() <= BLOWUP_SUP / DEALIAS_PAD:
        raise FloatingPointError(f"|u| exceeds {BLOWUP_SUP:g} in a nonlinear stage")
    mag **= 2.0 * alpha
    mag *= ubig
    out = np.fft.rfft(mag)[..., :uh.shape[-1]]
    out *= DEALIAS_PAD ** (2.0 * alpha)
    return out


def _stored(step: int, n_steps: int, store_every: int) -> bool:
    """Whether a solve of n_steps steps stores its frame after `step`."""
    return step % store_every == 0 or step == n_steps


def _record(grid: Grid, u0: np.ndarray, steps, cfg: SolveConfig) -> SpaceTimeField:
    """u0 and the frames of steps(dts, n_steps, store_every), which advances
    one row per direction of the solve, row r by the signed step dts[r], and
    yields the times step * dts and the (k, n) rows after every step for
    which _stored holds and no other.

    The frames go into one array, n_side of them per direction around u0,
    written from t = 0 outwards so that times ascend: a backward row fills
    the array below u0, a forward row above it.  An array too large to
    allocate is a ValueError.  A non-finite or huge stored frame, or a
    step's FloatingPointError, raises BlowupError with the frames stored so
    far, which always include t = 0.
    """
    signs = np.array([-1, 1] if cfg.both_ways else [-1 if cfg.t_end < 0 else 1])
    n_side = -(-cfg.n_steps // cfg.store_every)
    n_store = 1 + len(signs) * n_side
    try:
        values = np.empty((n_store, grid.n), dtype=np.complex128)
    except (MemoryError, ValueError):
        raise ValueError(f"{n_store:.4g} frames of {grid.n} points need "
                         f"{16.0 * n_store * grid.n:.3g} bytes, more than can be "
                         "allocated; raise store_every or shorten t_end") from None
    times = np.empty(n_store)
    centre = n_side if signs[0] < 0 else 0
    times[centre], values[centre] = 0.0, u0
    k = 0  # frames stored per direction
    try:
        for t, u in steps(signs * cfg.dt, cfg.n_steps, cfg.store_every):
            if not np.max(np.abs(u)) <= BLOWUP_SUP:
                raise FloatingPointError(f"|u| exceeds {BLOWUP_SUP:g} in a stored frame")
            k += 1
            rows = centre + k * signs
            times[rows], values[rows] = t, u
    except FloatingPointError:
        kept = slice(centre - k * (signs[0] < 0), centre + k * (signs[-1] > 0) + 1)
        raise BlowupError(float(times[centre + k * signs[-1]]),
                          SpaceTimeField(grid, times[kept], values[kept])) from None
    return SpaceTimeField(grid, times, values)


def gkdv_solve(u0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Integrating-factor RK4 for gKdV; returns physical frames at cadence.

    cfg.t_end may be negative (backward solve), and cfg.both_ways solves
    both ways in one march; frames are returned in increasing time order.
    """
    up = u0.to_physical()
    if float(np.max(np.abs(up.values.imag))) > 1e-12:
        raise ValueError("gKdV data must be real-valued")
    n = up.grid.n
    modes = (n + 1) // 2  # the rfft modes below Nyquist
    xi = np.fft.ifftshift(up.grid.frequencies())[:modes]

    def steps(dts, n_steps, store_every):
        dt = dts[:, None]
        e = np.exp(0.5j * dt * xi**3)
        e2 = e * e
        g = cfg.mu * cfg.coupling * 1j * dt * xi
        v = np.fft.rfft(up.values.real)[:modes]  # one row, broadcast by the first step
        for step in range(1, n_steps + 1):
            a = g * _nonlinear_power(v, n, cfg.alpha)
            b = g * _nonlinear_power(e * (v + a / 2), n, cfg.alpha)
            c = g * _nonlinear_power(e * v + b / 2, n, cfg.alpha)
            d = g * _nonlinear_power(e2 * v + e * c, n, cfg.alpha)
            v = e2 * v + (e2 * a + 2 * e * (b + c) + d) / 6
            if _stored(step, n_steps, store_every):
                yield step * dts, np.fft.irfft(v, n)

    return _record(up.grid, up.values, steps, cfg)


def nls_solve(v0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Strang split-step for i v_t - v_xx = -mu*coupling*|v|^{2a} v.

    The linear flow is e^{-i t d^2/dx^2} (Fourier phase e^{+i t xi^2});
    the nonlinear flow rotates pointwise by e^{+i mu coupling |v|^{2a} dt}.
    Each step's closing half linear step is merged with the next step's
    opening one: the state stays on the Fourier side between steps, a step
    is one ifft, the rotation and one fft followed by a full linear step,
    and the closing half step is taken only for a stored frame.  The |v| of
    the rotation is the per-step blow-up check.  Mass is conserved exactly
    up to FFT roundoff.  cfg.both_ways solves both ways in one march.
    """
    vp = v0.to_physical()
    xi = np.fft.ifftshift(vp.grid.frequencies())
    rate = cfg.mu * cfg.coupling

    def steps(dts, n_steps, store_every):
        dt = dts[:, None]
        half = np.exp(0.5j * dt * xi**2)
        full = np.exp(1j * dt * xi**2)
        phase = 1j * rate * dt
        vh = half * np.fft.fft(vp.values)
        v = np.empty_like(vh)
        for step in range(1, n_steps + 1):
            np.fft.ifft(vh, out=v)
            mag = np.abs(v)
            if not mag.max() <= BLOWUP_SUP:
                raise FloatingPointError(f"|v| exceeds {BLOWUP_SUP:g} in a nonlinear step")
            v *= np.exp(phase * mag ** (2.0 * cfg.alpha))
            np.fft.fft(v, out=vh)
            if _stored(step, n_steps, store_every):
                yield step * dts, np.fft.ifft(half * vh)
            vh *= full

    return _record(vp.grid, vp.values, steps, cfg)


# ---------------------------------------------------------------------------
# soliton family
# ---------------------------------------------------------------------------

def soliton_profile(alpha: float, x: np.ndarray) -> np.ndarray:
    """Ground state Q of -Q'' + Q = Q^{2 alpha + 1}."""
    return (alpha + 1.0) ** (1.0 / (2.0 * alpha)) * np.cosh(alpha * x) ** (-1.0 / alpha)


def soliton_Q(alpha: float, grid: Grid, c: float = 1.0, shift: float = 0.0) -> GridFunction:
    """Traveling-wave initial state c^{1/alpha} Q(c (x - shift))."""
    check_alpha(alpha)
    x = grid.nodes()
    vals = c ** (1.0 / alpha) * soliton_profile(alpha, c * (x - shift))
    return GridFunction(grid, vals.astype(np.complex128), PHYSICAL)


def soliton_exact(alpha: float, grid: Grid, c: float, t: float,
                  shift: float = 0.0) -> GridFunction:
    """Closed-form soliton Q_c(t, x) = c^{1/alpha} Q(c (x - c^2 t - shift))."""
    return soliton_Q(alpha, grid, c, shift + c * c * t)


def c_alpha(alpha: float) -> float:
    """Zero-energy speed: ((alpha+1) ||Q'||^2 / ||Q||^{2a+2}_{L^{2a+2}})^{1/(2a)}.

    Both integrals are one trapezoid sum on C_ALPHA_NODES, which converges
    geometrically for these analytic integrands that decay to roundoff
    (Trefethen & Weideman, SIAM Review 56, 2014).
    """
    check_alpha(alpha)
    # the node spacing cancels in num / den, and both integrands vanish at the ends
    q = soliton_profile(alpha, C_ALPHA_NODES)
    num = np.sum((q * np.tanh(alpha * C_ALPHA_NODES)) ** 2)
    den = np.sum(q ** (2 * alpha + 2))
    c = float(((alpha + 1.0) * num / den) ** (1.0 / (2.0 * alpha)))
    if not c < 1.0:
        raise AssertionError(f"zero-energy speed must be < 1, got {c}")
    return c


def _per_row(grid: Grid, values: np.ndarray, reduce) -> np.ndarray | np.floating:
    """reduce(block) over the map_row_blocks blocks of the rows of a (..., n)
    array: one value per row, a scalar for shape (n,)."""
    rows = values.reshape(-1, values.shape[-1])
    parts = map_row_blocks(lambda _, block: reduce(block), grid, rows)
    return np.concatenate(parts or [np.empty(0)]).reshape(values.shape[:-1])[()]


def mass(grid: Grid, values: np.ndarray) -> np.ndarray | np.floating:
    """M[u] = 1/2 ||u||_{L^2}^2 by grid quadrature, for each row of the
    physical samples `values` (shape (..., n))."""
    return _per_row(grid, values, lambda u: 0.5 * np.sum(np.abs(u) ** 2, axis=-1) * grid.dx)


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

    return _per_row(grid, values, rows)


def drift(values: np.ndarray) -> float:
    """max_k |values[k] - values[0]| / |values[0]|."""
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))
