"""Riding a Schrodinger solution on a fast carrier wave.

For data Re[e^{-i x xi_n} phi] the gKdV dynamics up to |t| <= T/(3 xi_n)
is approximated by

    u~(t, x) = Re[e^{-i x xi_n - i t xi_n^3} v(-3 xi_n t, x + 3 xi_n^2 t)]

where v solves i v_s - v_zz = -mu C0 |v|^{2a} v with the coupling C0
coming from the first Fourier-sine coefficient C1 = 3 C0 / (2a + 1) of
|cos|^{2a} sin.  C0 and C1 have Gamma-function closed forms, which
embedding_constants cross-checks against fourier_sin_coeff, a fixed
tanh-sinh rule on the three panels between the kinks at +-pi/2; beyond
the seam times +-T/(3 xi_n) the seam states continue by the free Airy
flow.  approx_field evaluates u~ at many times as one array: v's rows are
interpolated in time, translated by the per-row Fourier phase of
grid.physical_rows, and put on the carrier; build_approx_solution is the
same evaluator at one time.  residual_field measures how far u~ is from
solving gKdV through the envelope identity

    (d/dt + d^3/dx^3) u~ = Re[e^{i theta} (v_zzz - 3 i xi_n mu C0 |v|^{2a} v)],
    theta = -x xi_n - t xi_n^3,

so the fast carrier e^{-i t xi_n^3} is never differenced in time and a
fixed RESIDUAL_FRAMES times resolve the residual at every carrier; its
nonlinear term is formed one grid.map_row_blocks block at a time.  The
experiment sweeps the carrier frequency and records how the gap to the
true gKdV solution closes; per carrier it makes one NLS and one gKdV solve,
each a SolveConfig with both_ways that marches t > 0 and t < 0 together,
on the calling thread, and then builds the carrier's row.  A row whose
third harmonic 3(xi_n + xi_n^{1/4}) lies above the grid's top frequency
says so and warns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (PHYSICAL, ROW_BLOCK, GridFunction, SpaceTimeField, fourier_multiply,
                   map_row_blocks, physical_rows)
from .deformations import airy_flow, modulate
from .evolutions import (SolveConfig, _nonlinear_power, check_alpha, gkdv_solve, nls_solve,
                         suggest_dt)
from .norms import NormSpec, lhat_norm, spacetime_norm


def _tanh_sinh_panels(edges: tuple[float, ...], h: float, t_max: float):
    """Nodes and weights of the tanh-sinh rule (Takahasi & Mori, 1974) with step
    h on |t| <= t_max, on each panel between consecutive edges."""
    n = round(t_max / h)
    t = h * np.arange(-n, n + 1)
    u = 0.5 * np.pi * np.sinh(t)
    x, w = np.tanh(u), h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    mid = [0.5 * (b + a) for a, b in zip(edges, edges[1:])]
    rad = [0.5 * (b - a) for a, b in zip(edges, edges[1:])]
    return (np.concatenate([c + r * x for c, r in zip(mid, rad)]),
            np.concatenate([r * w for r in rad]))


# |cos t|^{2 alpha} has kinks at +-pi/2, so the rule runs on the three panels
# between them, where the double-exponential clustering absorbs the endpoint
# behaviour; 513 nodes per panel
_THETA, _THETA_W = _tanh_sinh_panels((-np.pi, -np.pi / 2, np.pi / 2, np.pi), 1.0 / 64.0, 4.0)
_ABS_COS = np.abs(np.cos(_THETA))
_SIN_W = np.sin(_THETA) * _THETA_W / np.pi


def fourier_sin_coeff(alpha: float, k: int) -> float:
    """k-th Fourier-sine coefficient of |cos t|^{2 alpha} sin t on (-pi, pi),
    by the fixed tanh-sinh rule above."""
    check_alpha(alpha)
    if k < 1:
        raise ValueError("k must be a positive integer")
    return float(np.dot(_SIN_W * _ABS_COS ** (2.0 * alpha), np.sin(k * _THETA)))


def embedding_constants(alpha: float) -> tuple[float, float]:
    """(C0, C1) from the Gamma-function closed forms, cross-checked against
    fourier_sin_coeff(alpha, 1)."""
    check_alpha(alpha)
    try:
        c0 = 2.0 * math.gamma(alpha + 1.5) / (3.0 * math.sqrt(math.pi) * math.gamma(alpha + 2.0))
    except OverflowError:
        raise ValueError(f"alpha={alpha} is too large: Gamma(alpha + 2) overflows") from None
    c1 = 3.0 * c0 / (2.0 * alpha + 1.0)
    quadrature = fourier_sin_coeff(alpha, 1)
    if abs(c1 - quadrature) > 1e-10:
        raise AssertionError(
            f"closed form C1={c1} disagrees with quadrature {quadrature}")
    return c0, c1


def sharp_cutoff(f: GridFunction, xi_max: float) -> GridFunction:
    """Sharp Fourier projection onto |xi| <= xi_max."""
    return fourier_multiply(f, np.abs(f.grid.frequencies()) <= xi_max)


def approx_field(v: SpaceTimeField, xi_n: float, times: np.ndarray) -> SpaceTimeField:
    """The carrier-wave approximation u~ at gKdV times inside the seams.

    Row k is Re[e^{-i x xi_n - i t_k xi_n^3} v(-3 xi_n t_k, x + 3 xi_n^2 t_k)]
    with v interpolated linearly between its stored times; xi_n must sit on
    the grid's frequency lattice so the carrier e^{-i x xi_n} is exactly
    periodic.  The rows are built in one preallocated array.
    """
    grid = v.grid
    grid.lattice_index(xi_n)
    times = np.asarray(times, dtype=np.float64)
    s = -3.0 * xi_n * times
    if s.min() < v.times[0] - 1e-12 or s.max() > v.times[-1] + 1e-12:
        raise ValueError(f"times [{s.min()}, {s.max()}] outside stored range "
                         f"[{v.times[0]}, {v.times[-1]}]")
    i = np.clip(np.searchsorted(v.times, s) - 1, 0, len(v) - 2)
    w = ((s - v.times[i]) / (v.times[i + 1] - v.times[i]))[:, None]
    out = np.empty((times.size, grid.n), dtype=np.complex128)
    for lo in range(0, times.size, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        out[rows] = (1.0 - w[rows]) * v.values[i[rows]] + w[rows] * v.values[i[rows] + 1]
    # spatial argument x + 3 xi_n^2 t == translation by -3 xi_n^2 t
    physical_rows(grid, out, out=out, times=times,
                  dispersion=3.0 * xi_n ** 2 * grid.frequencies())
    out *= np.exp(-1j * grid.nodes() * xi_n)
    out *= np.exp(-1j * times * xi_n ** 3)[:, None]
    out.imag = 0.0
    return SpaceTimeField(grid, times, out)


def build_approx_solution(v: SpaceTimeField, xi_n: float, T: float,
                          t_query: float) -> GridFunction:
    """Evaluate the carrier-wave approximation at gKdV time t_query.

    v must cover Schrodinger times [-T, T]; inside the seams +-T/(3 xi_n)
    this is approx_field at one time, beyond them the free Airy flow of the
    seam state.
    """
    if T <= 0 or xi_n <= 0:
        raise ValueError("need T > 0 and xi_n > 0")
    seam = T / (3.0 * xi_n)
    edge = min(max(t_query, -seam), seam)
    u = GridFunction(v.grid, approx_field(v, xi_n, np.array([edge])).values[0])
    return u if edge == t_query else airy_flow(u, t_query - edge)


def residual_field(u_tilde: SpaceTimeField, v: SpaceTimeField, xi_n: float, c0: float,
                   alpha: float) -> SpaceTimeField:
    """(d/dt + d^3/dx^3) u~ - mu d/dx(|u~|^{2a} u~) at the times of u_tilde, mu = MU.

    u_tilde must be approx_field(v, xi_n, times), with v the NLS solution of
    sign MU and coupling c0.  The linear part is approx_field of
    w = v_zzz - 3 i xi_n mu c0 |v|^{2a} v on v's stored rows, by the envelope
    identity of the module docstring, which is exact when v solves the NLS;
    no time derivative is formed.  The power |u~|^{2a} u~ is formed on the
    DEALIAS_PAD grid and truncated back, as in gkdv_solve, one map_row_blocks
    block of u_tilde's rows at a time: each block subtracts its term from its
    own rows of the result, so a thread holds one block's padded temporaries,
    and since FFT rows are independent the bits do not depend on the blocks
    or the number of threads.
    """
    grid = v.grid
    xi = grid.frequencies()
    w = physical_rows(grid, v.values, symbol=(1j * xi) ** 3)
    w -= (3j * xi_n * MU * c0) * np.abs(v.values) ** (2.0 * alpha) * v.values
    res = approx_field(SpaceTimeField(grid, v.times, w), xi_n, u_tilde.times).values
    # rfft modes below Nyquist, as in gkdv_solve
    n = grid.n
    modes = (n + 1) // 2
    deriv = MU * 1j * np.fft.ifftshift(xi)[:modes]

    def subtract_power(rows, block):
        nl = _nonlinear_power(np.fft.rfft(block.real)[:, :modes], n, alpha)
        nl *= deriv
        res[rows] -= np.fft.irfft(nl, n)

    map_row_blocks(subtract_power, grid, u_tilde.values)
    return SpaceTimeField(grid, u_tilde.times, res)


# gKdV frames kept per time direction
GKDV_FRAMES = 33
# residual times, uniform in +-0.9 of the seam time
RESIDUAL_FRAMES = 257
# sign of the gKdV nonlinearity in the sweep: the focusing equation
MU = -1


@dataclass
class EmbeddingConfig:
    alpha: float
    phi: GridFunction
    xi_list: tuple[float, ...]
    T: float
    nls_dt: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if not (math.isfinite(self.nls_dt) and self.nls_dt > 0):
            raise ValueError(f"nls_dt must be positive and finite, got {self.nls_dt}")
        xs = tuple(self.xi_list)
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(x <= 0 for x in xs):
            raise ValueError("xi_list must be ascending and positive")
        for x in xs:
            self.phi.grid.lattice_index(x)


def _solve_nls(phi: GridFunction, xi_n: float, cfg: SolveConfig) -> SpaceTimeField:
    """The envelope of carrier xi_n: NLS on the slow scale, from frequency-cut data."""
    return nls_solve(sharp_cutoff(phi, xi_n ** 0.25), cfg)


def _solve_gkdv(phi: GridFunction, xi_n: float, cfg: SolveConfig) -> SpaceTimeField:
    """gKdV from the full (uncut) profile on the carrier xi_n."""
    u0 = modulate(phi, xi_n).to_physical().values.real
    return gkdv_solve(GridFunction(phi.grid, u0, PHYSICAL), cfg)


def embedding_experiment(cfg: EmbeddingConfig) -> list[dict]:
    """Sweep the carrier frequencies; one result row per xi_n.

    Each carrier in ascending xi_n builds its two SolveConfigs, warns if
    the grid cannot hold its third harmonic, runs its NLS and gKdV solves
    and builds its row (seam errors, residual, the S, L and N norms), so
    one carrier's fields are held at a time.  The solves run on the calling
    thread; the row-block calls of the row use the helpers.
    """
    c0, _ = embedding_constants(cfg.alpha)
    grid = cfg.phi.grid
    spec_s = NormSpec.from_preset("S", cfg.alpha)
    spec_l = NormSpec.from_preset("L", cfg.alpha)
    spec_n = NormSpec.from_preset("N", cfg.alpha)
    top = float(np.max(grid.frequencies()))

    rows = []
    for xi_n in cfg.xi_list:
        seam = cfg.T / (3.0 * xi_n)
        # NLS with coupling C0
        store = max(1, int(math.floor((cfg.T / 64.0) / cfg.nls_dt)))
        nls_cfg = SolveConfig(alpha=cfg.alpha, mu=MU, coupling=c0, t_end=cfg.T,
                              dt=cfg.nls_dt, store_every=store, both_ways=True)
        # gKdV; the step follows the per-carrier accuracy rule
        dt = min(suggest_dt(grid, xi_n + 8.0), seam / 64.0)
        g_store = max(1, round(seam / dt / (GKDV_FRAMES - 1)))
        gkdv_cfg = SolveConfig(alpha=cfg.alpha, mu=MU, coupling=1.0, t_end=seam, dt=dt,
                               store_every=g_store, both_ways=True)
        # beyond the grid's top frequency the third harmonic of the carrier
        # is cut from the residual
        harmonic = 3.0 * (xi_n + xi_n ** 0.25)
        if harmonic > top:
            warnings.warn(f"xi={xi_n:g}: the third harmonic band edge 3(xi + xi^(1/4)) = "
                          f"{harmonic:.4g} exceeds the grid's top frequency {top:g}; "
                          "residual_Y omits it", stacklevel=2)
        v_field = _solve_nls(cfg.phi, xi_n, nls_cfg)
        u_field = _solve_gkdv(cfg.phi, xi_n, gkdv_cfg)

        # seam-time gap in the critical data norm
        errs = []
        for t_seam in (-seam, seam):
            i = int(np.argmin(np.abs(u_field.times - t_seam)))
            u_t = GridFunction(grid, u_field.values[i])
            ut_t = build_approx_solution(v_field, xi_n, cfg.T, float(u_field.times[i]))
            errs.append(lhat_norm(u_t - ut_t, cfg.alpha))

        # residual of the approximation measured in the Y-type norm
        t_res = np.linspace(-0.9 * seam, 0.9 * seam, RESIDUAL_FRAMES)
        resid = residual_field(approx_field(v_field, xi_n, t_res), v_field, xi_n, c0,
                               cfg.alpha)
        rows.append({
            "xi": float(xi_n),
            "seam_time": float(seam),
            "err_lhat_alpha": float(max(errs)),
            "norm_S": float(spacetime_norm(u_field, spec_s)),
            "norm_L": float(spacetime_norm(u_field, spec_l)),
            "residual_Y": float(spacetime_norm(resid, spec_n)),
            "harmonics_resolved": bool(harmonic <= top),
        })
    return rows
