"""Riding a Schrodinger solution on a fast carrier wave.

For data Re[e^{-i x xi_n} phi] the gKdV dynamics up to |t| <= T/(3 xi_n)
is approximated by

    u~(t, x) = Re[e^{-i x xi_n - i t xi_n^3} v(-3 xi_n t, x + 3 xi_n^2 t)]

where v solves i v_s - v_zz = -mu C0 |v|^{2a} v with the coupling C0
coming from the first Fourier-sine coefficient of |cos|^{2a} sin; beyond
the seam times +-T/(3 xi_n) the seam states continue by the free Airy
flow.  approx_field evaluates u~ at many times as one array: v's rows are
interpolated in time, translated by the per-row Fourier phase of
grid.physical_rows, and put on the carrier; build_approx_solution is the
same evaluator at one time.  The experiment sweeps the carrier frequency
and records how the gap to the true gKdV solution closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .grid import (PHYSICAL, ROW_BLOCK, GridFunction, SpaceTimeField, fourier_multiply,
                   physical_rows)
from .deformations import airy_flow, modulate
from .evolutions import SolveConfig, gkdv_solve, nls_solve, suggest_dt
from .norms import NormSpec, lhat_norm, spacetime_norm


def fourier_sin_coeff(alpha: float, k: int) -> float:
    """k-th Fourier-sine coefficient of |cos t|^{2 alpha} sin t on (-pi, pi)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")

    def integrand(theta):
        return np.abs(np.cos(theta)) ** (2.0 * alpha) * np.sin(theta) * np.sin(k * theta)

    val, _ = quad(integrand, -np.pi, np.pi, points=[-np.pi / 2, np.pi / 2],
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return val / np.pi


def embedding_constants(alpha: float) -> tuple[float, float]:
    """(C0, C1) from the Gamma-function closed forms, cross-checked."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    c0 = 2.0 * gamma_fn(alpha + 1.5) / (3.0 * math.sqrt(math.pi) * gamma_fn(alpha + 2.0))
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


def residual_field(u_tilde: SpaceTimeField, alpha: float, mu: int,
                   coupling: float = 1.0) -> SpaceTimeField:
    """(d/dt + d^3/dx^3) u - mu * coupling * d/dx(|u|^{2a} u) on interior frames."""
    if len(u_tilde) < 3:
        raise ValueError("need at least 3 frames for centered time differencing")
    grid = u_tilde.grid
    arr = u_tilde.values
    xi = grid.frequencies()
    res = np.gradient(arr, u_tilde.times, axis=0, edge_order=2)[1:-1]
    u = arr[1:-1]
    res += physical_rows(grid, u, symbol=(1j * xi) ** 3)
    nl = np.abs(u) ** (2.0 * alpha) * u
    res -= physical_rows(grid, nl, symbol=mu * coupling * 1j * xi, out=nl)
    return SpaceTimeField(grid, u_tilde.times[1:-1], res)


# gKdV frames kept per time direction
GKDV_FRAMES = 33


@dataclass
class EmbeddingConfig:
    alpha: float
    phi: GridFunction
    xi_list: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    T: float = 1.0
    mu: int = -1
    nls_dt: float = 1e-3

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        xs = tuple(self.xi_list)
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(x <= 0 for x in xs):
            raise ValueError("xi_list must be ascending and positive")
        for x in xs:
            self.phi.grid.lattice_index(x)


def _solve_both_ways(solver, v0: GridFunction, cfg: SolveConfig) -> SpaceTimeField:
    """Solve from t=0 to cfg.t_end and to -cfg.t_end; merge into one field."""
    run_f = solver(v0, cfg)
    run_b = solver(v0, replace(cfg, t_end=-cfg.t_end))
    times = np.concatenate([run_b.times[:-1], run_f.times])
    values = np.concatenate([run_b.values[:-1], run_f.values])
    return SpaceTimeField(run_f.grid, times, values)


def embedding_experiment(cfg: EmbeddingConfig) -> list[dict]:
    """Sweep the carrier frequencies; one result row per xi_n."""
    c0, _ = embedding_constants(cfg.alpha)
    grid = cfg.phi.grid
    spec_s = NormSpec.from_preset("S", cfg.alpha)
    spec_l = NormSpec.from_preset("L", cfg.alpha)
    spec_n = NormSpec.from_preset("N", cfg.alpha)

    rows = []
    for xi_n in cfg.xi_list:
        seam = cfg.T / (3.0 * xi_n)

        # NLS on the slow scale, frequency-cut data, coupling C0
        v0 = sharp_cutoff(cfg.phi, xi_n ** 0.25)
        store = max(1, int(math.floor((cfg.T / 64.0) / cfg.nls_dt)))
        v_field = _solve_both_ways(nls_solve, v0, SolveConfig(
            alpha=cfg.alpha, mu=cfg.mu, coupling=c0, t_end=cfg.T, dt=cfg.nls_dt,
            store_every=store))

        # gKdV with the full (uncut) profile on the carrier; the step follows
        # the per-carrier accuracy rule
        u0_c = modulate(cfg.phi, xi_n)
        u0 = GridFunction(grid, u0_c.to_physical().values.real, PHYSICAL)
        xi_active = xi_n + 8.0
        dt = min(suggest_dt(grid, xi_active), seam / 64.0)
        g_store = max(1, round(seam / dt / (GKDV_FRAMES - 1)))
        u_field = _solve_both_ways(gkdv_solve, u0, SolveConfig(
            alpha=cfg.alpha, mu=cfg.mu, coupling=1.0, t_end=seam, dt=dt,
            store_every=g_store))

        # seam-time gap in the critical data norm
        errs = []
        for t_seam in (-seam, seam):
            i = int(np.argmin(np.abs(u_field.times - t_seam)))
            u_t = GridFunction(grid, u_field.values[i])
            ut_t = build_approx_solution(v_field, xi_n, cfg.T, float(u_field.times[i]))
            errs.append(lhat_norm(u_t - ut_t, cfg.alpha))

        # residual of the approximation measured in the Y-type norm; the
        # frame spacing must resolve the carrier oscillation e^{-i t xi_n^3}
        n_res = int(np.clip(math.ceil(1.8 * seam * xi_n ** 3 / 0.05), 33, 4097))
        t_res = np.linspace(-0.9 * seam, 0.9 * seam, n_res)
        resid = residual_field(approx_field(v_field, xi_n, t_res), cfg.alpha, cfg.mu)
        rows.append({
            "xi": float(xi_n),
            "seam_time": float(seam),
            "err_lhat_alpha": float(max(errs)),
            "norm_S": float(spacetime_norm(u_field, spec_s)),
            "norm_L": float(spacetime_norm(u_field, spec_l)),
            "residual_Y": float(spacetime_norm(resid, spec_n)),
        })
    return rows
