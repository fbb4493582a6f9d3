"""Riding a Schrodinger solution on a fast carrier wave.

For data Re[e^{-i x xi_n} phi] the gKdV dynamics up to |t| <= T/(3 xi_n)
is approximated by

    u~(t, x) = Re[e^{-i x xi_n - i t xi_n^3} v(-3 xi_n t, x + 3 xi_n^2 t)]

where v solves i v_s - v_zz = -mu C0 |v|^{2a} v with the coupling C0
coming from the first Fourier-sine coefficient of |cos|^{2a} sin; beyond
the seam times +-T/(3 xi_n) the seam states continue by the free Airy
flow.  The experiment sweeps the carrier frequency and records how the
gap to the true gKdV solution closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .grid import FOURIER, PHYSICAL, GridFunction, SpaceTimeField, physical_rows
from .deformations import airy_flow, modulate, translate
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
    fh = f.to_fourier()
    xi = fh.grid.frequencies()
    vals = np.where(np.abs(xi) <= xi_max, fh.values, 0.0)
    out = GridFunction(fh.grid, vals, FOURIER)
    return out.to_physical() if f.side == PHYSICAL else out


def _interp_frame(v: SpaceTimeField, s: float) -> GridFunction:
    """Linear interpolation of the stored frames at time s."""
    times = v.times
    if s < times[0] - 1e-12 or s > times[-1] + 1e-12:
        raise ValueError(f"time {s} outside stored range [{times[0]}, {times[-1]}]")
    i = int(np.clip(np.searchsorted(times, s) - 1, 0, len(times) - 2))
    t0, t1 = times[i], times[i + 1]
    w = (s - t0) / (t1 - t0)
    return GridFunction(v.grid, (1.0 - w) * v.values[i] + w * v.values[i + 1], v.side)


def build_approx_solution(v: SpaceTimeField, xi_n: float, T: float,
                          t_query: float) -> GridFunction:
    """Evaluate the carrier-wave approximation at gKdV time t_query.

    v must cover Schrodinger times [-T, T]; xi_n must sit on the grid's
    frequency lattice so the carrier e^{-i x xi_n} is exactly periodic.
    """
    grid = v.grid
    grid.lattice_index(xi_n)
    if T <= 0 or xi_n <= 0:
        raise ValueError("need T > 0 and xi_n > 0")
    seam = T / (3.0 * xi_n)

    def middle(t: float) -> GridFunction:
        s = -3.0 * xi_n * t
        frame = _interp_frame(v, s)
        # spatial argument x + 3 xi_n^2 t == translation by -3 xi_n^2 t
        frame = translate(frame, -3.0 * xi_n ** 2 * t)
        carrier = modulate(frame, xi_n) * np.exp(-1j * t * xi_n ** 3)
        return GridFunction(grid, carrier.to_physical().values.real, PHYSICAL)

    if abs(t_query) <= seam:
        return middle(t_query)
    edge = math.copysign(seam, t_query)
    return airy_flow(middle(edge), t_query - edge)


def residual_field(u_tilde: SpaceTimeField, alpha: float, mu: int,
                   coupling: float = 1.0) -> SpaceTimeField:
    """(d/dt + d^3/dx^3) u - mu * coupling * d/dx(|u|^{2a} u) on interior frames."""
    if len(u_tilde) < 3:
        raise ValueError("need at least 3 frames for centered time differencing")
    grid = u_tilde.grid
    arr = u_tilde.physical_array()
    xi = grid.frequencies()
    res = np.gradient(arr, u_tilde.times, axis=0, edge_order=2)[1:-1]
    u = arr[1:-1]
    res += physical_rows(grid, u, symbol=(1j * xi) ** 3)
    nl = np.abs(u) ** (2.0 * alpha) * u
    res -= physical_rows(grid, nl, symbol=mu * coupling * 1j * xi, out=nl)
    return SpaceTimeField(grid, u_tilde.times[1:-1], res)


@dataclass
class EmbeddingConfig:
    alpha: float
    phi: GridFunction
    xi_list: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    T: float = 1.0
    t_n: float = 0.0
    mu: int = -1
    nls_dt: float = 1e-3
    gkdv_dt: float | None = None  # None: per-carrier accuracy rule
    n_store: int = 33             # gKdV frames kept per time direction

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        xs = tuple(self.xi_list)
        if any(b <= a for a, b in zip(xs, xs[1:])) or any(x <= 0 for x in xs):
            raise ValueError("xi_list must be ascending and positive")
        if self.t_n != 0.0:
            raise ValueError("only the t_n = 0 (finite handoff) branch is implemented")
        for x in xs:
            self.phi.grid.lattice_index(x)


def _solve_both_ways(v0: GridFunction, make_cfg) -> SpaceTimeField:
    """Solve forward and backward from t=0 and merge into one field."""
    fwd = make_cfg(+1.0)
    bwd = make_cfg(-1.0)
    run_f = fwd[0](v0, fwd[1])
    run_b = bwd[0](v0, bwd[1])
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

        def nls_cfg(sign):
            c = SolveConfig(alpha=cfg.alpha, mu=cfg.mu, coupling=c0,
                            t_end=sign * cfg.T, dt=cfg.nls_dt, store_every=store)
            return nls_solve, c

        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v_field = _solve_both_ways(v0, nls_cfg)

            # gKdV with the full (uncut) profile on the carrier
            u0_c = modulate(cfg.phi, xi_n)
            u0 = GridFunction(grid, u0_c.to_physical().values.real, PHYSICAL)
            xi_active = xi_n + 8.0
            dt = cfg.gkdv_dt or min(suggest_dt(grid, xi_active), seam / 64.0)
            g_store = max(1, round(seam / dt / (cfg.n_store - 1)))

            def gkdv_cfg(sign):
                c = SolveConfig(alpha=cfg.alpha, mu=cfg.mu, coupling=1.0,
                                t_end=sign * seam, dt=dt, store_every=g_store)
                return gkdv_solve, c

            u_field = _solve_both_ways(u0, gkdv_cfg)

        # seam-time gap in the critical data norm
        errs = []
        for t_seam in (-seam, seam):
            i = int(np.argmin(np.abs(u_field.times - t_seam)))
            u_t = GridFunction(grid, u_field.values[i], u_field.side)
            ut_t = build_approx_solution(v_field, xi_n, cfg.T, float(u_field.times[i]))
            errs.append(lhat_norm(u_t - ut_t, cfg.alpha))

        # residual of the approximation measured in the Y-type norm; the
        # frame spacing must resolve the carrier oscillation e^{-i t xi_n^3}
        n_res = int(np.clip(math.ceil(1.8 * seam * xi_n ** 3 / 0.05), 33, 4097))
        t_res = np.linspace(-0.9 * seam, 0.9 * seam, n_res)
        approx = np.empty((n_res, grid.n), dtype=np.complex128)
        for i, t in enumerate(t_res):
            approx[i] = build_approx_solution(v_field, xi_n, cfg.T, float(t)).values
        u_tilde = SpaceTimeField(grid, t_res, approx)
        resid = residual_field(u_tilde, cfg.alpha, cfg.mu)
        rows.append({
            "xi": float(xi_n),
            "seam_time": float(seam),
            "err_lhat_alpha": float(max(errs)),
            "norm_S": float(spacetime_norm(u_field, spec_s)),
            "norm_L": float(spacetime_norm(u_field, spec_l)),
            "residual_Y": float(spacetime_norm(resid, spec_n)),
        })
    return rows
