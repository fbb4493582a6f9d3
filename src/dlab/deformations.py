"""The four-parameter deformation family D(h) A(s) T(y) P(xi).

Elementary actions (all exact on the grid model):
  * modulation   (P(xi) f)(x) = e^{-i x xi} f(x)      -- shift by xi/dxi cells
  * translation  (T(y) f)(x) = f(x - y)               -- phase e^{-i y xi}
  * Airy flow    A(s) = e^{-s d^3/dx^3}               -- phase e^{i s xi^3}
  * Schrodinger  S(t) = e^{i t d^2/dx^2}              -- phase e^{-i t xi^2}
  * dilation     (D_p(h) f)(x) = h^{1/p} f(h x)       -- grid rescale

The cell shift serves Fourier data and a lattice frequency xi; physical
data and an off-lattice xi take the physical multiply.  So on Fourier data
every action but an off-lattice modulation keeps the zero cells exactly
zero: a band-limited profile stays band-limited through apply and
apply_inverse, and the norms and space-time scans see only its band.

Dilation is restricted to dyadic h and implemented by reinterpreting the
samples on a grid of length L/h: the Fourier density moves to h*xi_k with
an h^{-1/p'} factor.  No resampling occurs, so every deformation is an
exact isometry in the quadrature norms, matching the continuum algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FOURIER, Grid, GridFunction, fourier_multiply
from .norms import morrey_norm


def modulate(f: GridFunction, xi: float) -> GridFunction:
    """P(xi): multiply by e^{-i x xi} in physical space.

    On Fourier data and a lattice frequency xi = m dxi this is the shift
    fhat(xi_k) -> fhat(xi_k + xi) of the coefficients by m cells, where a
    coefficient that wraps q times around the n cells picks up the phase
    e^{-i q x0 n dxi}: the same discrete operator as the multiply, with no
    FFT round trip, so the cells that were zero stay exactly zero.  Other
    xi, and physical data, take the multiply.
    """
    g = f.grid
    m = float(xi) / g.dxi
    if f.side == FOURIER and m.is_integer():
        # out[k] = values[(k + m) mod n]: wrapped q times for k < n - s, else q + 1
        q, s = divmod(int(m), g.n)
        out = np.roll(f.values, -s)
        turn = g.x0 * g.n * g.dxi
        if q != 0:
            out[:g.n - s] *= np.exp(-1j * q * turn)
        if s != 0:
            out[g.n - s:] *= np.exp(-1j * (q + 1) * turn)
        return GridFunction(g, out, FOURIER)
    fp = f.to_physical()
    x = fp.grid.nodes()
    out = GridFunction(fp.grid, fp.values * np.exp(-1j * x * xi), fp.side)
    return out.to_fourier() if f.side == FOURIER else out


def translate(f: GridFunction, y: float) -> GridFunction:
    """T(y): f(x - y), exact via the Fourier phase e^{-i y xi}."""
    xi = f.grid.frequencies()
    return fourier_multiply(f, np.exp(-1j * y * xi))


def airy_flow(f: GridFunction, s: float) -> GridFunction:
    """A(s) = e^{-s d^3/dx^3}: Fourier symbol e^{i s xi^3}."""
    xi = f.grid.frequencies()
    return fourier_multiply(f, np.exp(1j * s * xi**3))


def schrodinger_flow(f: GridFunction, t: float) -> GridFunction:
    """S(t) = e^{i t d^2/dx^2}: Fourier symbol e^{-i t xi^2}."""
    xi = f.grid.frequencies()
    return fourier_multiply(f, np.exp(-1j * t * xi**2))


def dyadic_log2(h: float) -> int:
    """m with h == 2^m (to 1e-12 in m), or raise if h is not a power of two."""
    if not (0 < h < math.inf):
        raise ValueError(f"{h} is not a positive power of two")
    m = math.log2(h)
    m_round = round(m)
    if abs(m - m_round) > 1e-12:
        raise ValueError(f"{h} is not a power of two")
    return int(m_round)


def dilate(f: GridFunction, h: float, p: float) -> GridFunction:
    """D_p(h) f = h^{1/p} f(h x) for dyadic h, by grid rescaling."""
    m = dyadic_log2(h)
    h = 2.0 ** m
    g = f.grid
    new_grid = Grid(g.n, g.length / h, g.x0 / h)
    if f.side == FOURIER:
        return GridFunction(new_grid, f.values * h ** (1.0 / p - 1.0), FOURIER)
    return GridFunction(new_grid, f.values * h ** (1.0 / p), f.side)


@dataclass(frozen=True)
class Deformation:
    """Parameters of the group element D(h) A(s) T(y) P(xi)."""

    log2_h: int
    xi: float = 0.0
    s: float = 0.0
    y: float = 0.0

    @property
    def h(self) -> float:
        return 2.0 ** self.log2_h

    def serialize(self) -> str:
        return f"h={self.h:g},xi={self.xi:g},s={self.s:g},y={self.y:g}"


def apply(gamma: Deformation, f: GridFunction, d_exponent: float = 2.0) -> GridFunction:
    """Apply D(h) A(s) T(y) P(xi); d_exponent is the p of the D_p normalization."""
    out = modulate(f, gamma.xi)
    out = translate(out, gamma.y)
    out = airy_flow(out, gamma.s)
    return dilate(out, gamma.h, d_exponent)


def apply_inverse(gamma: Deformation, f: GridFunction, d_exponent: float = 2.0) -> GridFunction:
    """Apply P(-xi) T(-y) A(-s) D(1/h), the exact inverse of apply."""
    out = dilate(f, 1.0 / gamma.h, d_exponent)
    out = airy_flow(out, -gamma.s)
    out = translate(out, -gamma.y)
    return modulate(out, -gamma.xi)


@dataclass(frozen=True)
class RelativeParameters:
    """Parameters of (G~)^{-1} G = e^{i gamma} D(h') P(xi') A(s') S(schro) T(y')."""

    h_rel: float
    xi_rel: float
    s_rel: float
    schro: float
    y_rel: float
    phase: float
    probe_residual: float

    def apply(self, f: GridFunction) -> GridFunction:
        """D(h') P(xi') A(s') S(schro) T(y') f, without the phase e^{i gamma}."""
        out = translate(f, self.y_rel)
        out = schrodinger_flow(out, self.schro)
        out = airy_flow(out, self.s_rel)
        out = modulate(out, self.xi_rel)
        return dilate(out, self.h_rel, 2.0)


def relative(gamma: Deformation, gamma_t: Deformation,
             probe: GridFunction | None = None) -> RelativeParameters:
    """Relative parameters of the pair, with the phase measured on a probe.

    The commutation algebra gives the composite exactly up to a scalar
    phase; the phase is recovered numerically from a probe function since
    it has no influence on any norm.
    """
    lam = gamma_t.h / gamma.h            # h~ / h
    h_rel = gamma.h / gamma_t.h
    xi_rel = gamma.xi - lam * gamma_t.xi
    s_rel = gamma.s - (h_rel ** 3) * gamma_t.s
    schro = 3.0 * s_rel * gamma.xi
    y_rel = gamma.y - h_rel * gamma_t.y - 3.0 * s_rel * gamma.xi ** 2

    phase = 0.0
    residual = 0.0
    if probe is not None:
        lhs = apply_inverse(gamma_t, apply(gamma, probe))
        raw = RelativeParameters(h_rel, xi_rel, s_rel, schro, y_rel, 0.0, 0.0)
        rhs = raw.apply(probe)
        a = lhs.to_fourier().values
        b = rhs.to_fourier().values
        inner = np.vdot(b, a)
        if abs(inner) > 0:
            phase = float(np.angle(inner))
        diff = a - np.exp(1j * phase) * b
        denom = np.linalg.norm(a)
        residual = float(np.linalg.norm(diff) / denom) if denom > 0 else 0.0
    return RelativeParameters(h_rel, xi_rel, s_rel, schro, y_rel, phase, residual)


def orthogonality_gap(gamma: Deformation, gamma_t: Deformation) -> float:
    """Divergence functional whose blow-up defines orthogonal pairs."""
    rel = relative(gamma, gamma_t)
    return (
        abs(math.log(rel.h_rel))
        + abs(rel.xi_rel)
        + abs(rel.s_rel) * (1.0 + abs(gamma.xi))
        + abs(rel.y_rel)
    )


def nonresonance_gap(gamma: Deformation, gamma_t: Deformation) -> float:
    """Space-time variant: modulations compare in absolute value."""
    rel = relative(gamma, gamma_t)
    lam = gamma_t.h / gamma.h
    return (
        abs(math.log(rel.h_rel))
        + abs(abs(gamma.xi) - lam * abs(gamma_t.xi))
        + abs(rel.s_rel) * (1.0 + abs(gamma.xi))
        + abs(rel.y_rel)
    )


def galilean_residual(f: GridFunction, xi0: float, t: float) -> float:
    """Sup-norm residual of A(t) P(xi0) = e^{-i t xi0^3} P(xi0) T(-3 xi0^2 t) S(3 xi0 t) A(t)."""
    f.grid.lattice_index(xi0)  # both sides must be exactly representable
    lhs = airy_flow(modulate(f, xi0), t)
    rhs = airy_flow(f, t)
    rhs = schrodinger_flow(rhs, 3.0 * xi0 * t)
    rhs = translate(rhs, -3.0 * xi0 ** 2 * t)
    rhs = modulate(rhs, xi0) * np.exp(-1j * t * xi0 ** 3)
    diff = lhs.to_physical().values - rhs.to_physical().values
    return float(np.max(np.abs(diff)))


def scale_invariance_ratio(f: GridFunction, gamma: Deformation,
                           p: float, q: float, r: float) -> float:
    """Morrey-norm ratio of the deformed function to the original.

    Uses the D_p dilation normalization so that the pure-dilation case is
    an exact invariance (ratio 1); general deformations stay within the
    two-sided factor-2 bound.
    """
    denom = morrey_norm(f, p, q, r)
    if denom == 0.0:
        raise ValueError("zero input function")
    num = morrey_norm(apply(gamma, f, d_exponent=p), p, q, r)
    return num / denom
