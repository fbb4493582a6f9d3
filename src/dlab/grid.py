"""Uniform periodic grids and unitary Fourier transforms.

The spatial domain is a torus of length L sampled at n equispaced nodes
x_j = x0 + j*L/n.  Fourier data lives on the symmetric frequency lattice
xi_k = 2*pi*k/L for k in {-n/2, ..., n/2 - 1} (ascending order in storage).

The transform convention is unitary with a 1/sqrt(2*pi) prefactor:

    fhat(xi) = (1/sqrt(2*pi)) * integral e^{-i x xi} f(x) dx

approximated by the scaled DFT (L/(n*sqrt(2*pi))) * sum_j e^{-i x_j xi_k} f_j,
so Fourier-side values are samples of a spectral *density* with quadrature
weight dxi = 2*pi/L.

Fourier multipliers go through this module, except in the solvers'
time-stepping loops, which multiply raw DFT coefficients by step factors
built once per solve (gKdV's e^{i dt xi^3 / 2} on an rfft, NLS's
e^{i dt xi^2 / 2} on an fft): fourier_multiply multiplies one
GridFunction's Fourier side by a symbol and returns to the input's side;
physical_rows gives the physical samples of the rows of an (m, n) array
of either side, ROW_BLOCK rows at a time, optionally with a per-row phase
e^{i t_k p(xi)} (the Airy flow for p = xi^3, a translation for p linear
in xi), and can spread one shared spectrum over all rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SQRT_2PI = np.sqrt(2.0 * np.pi)

PHYSICAL = "physical"
FOURIER = "fourier"

# rows per batched FFT: bounds the temporaries of row-wise transforms
ROW_BLOCK = 64


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with n nodes on [x0, x0 + length)."""

    n: int
    length: float
    x0: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)):
            raise ValueError(f"grid size must be a power of two, got {self.n}")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"grid length must be positive and finite, got {self.length}")
        if not (0 < self.dx < np.inf and 0 < self.dxi < np.inf):
            raise ValueError(f"grid length {self.length} gives a zero or non-finite dx or dxi")
        if not np.isfinite(self.x0):
            raise ValueError(f"grid anchor x0 must be finite, got {self.x0}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def frequencies(self) -> np.ndarray:
        """Frequency lattice in ascending order, k = -n/2 .. n/2 - 1."""
        return self.dxi * np.arange(-self.n // 2, self.n // 2)

    def lattice_index(self, xi: float, tol: float = 1e-9) -> int:
        """Index k with xi_k == xi, or raise if xi is off the lattice."""
        k = xi / self.dxi
        k_round = round(k)
        if abs(k - k_round) > tol:
            raise ValueError(f"frequency {xi} is not on the lattice (spacing {self.dxi})")
        if not (-self.n // 2 <= k_round < self.n // 2):
            raise ValueError(f"frequency {xi} outside the resolvable band")
        return int(k_round)

    def close_to(self, other: "Grid", tol: float = 1e-12) -> bool:
        return (
            self.n == other.n
            and abs(self.length - other.length) <= tol * max(1.0, abs(self.length))
            and abs(self.x0 - other.x0) <= tol * max(1.0, abs(self.x0))
        )


class GridFunction:
    """Complex samples on a Grid, tagged as physical- or Fourier-side."""

    def __init__(self, grid: Grid, values: np.ndarray, side: str = PHYSICAL):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
        if side not in (PHYSICAL, FOURIER):
            raise ValueError(f"unknown side {side!r}")
        self.grid = grid
        self.values = values
        self.side = side

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy(), self.side)

    def to_fourier(self) -> "GridFunction":
        if self.side == FOURIER:
            return self
        return forward_transform(self)

    def to_physical(self) -> "GridFunction":
        if self.side == PHYSICAL:
            return self
        return inverse_transform(self)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        a, b = match_sides(self, other)
        return GridFunction(a.grid, a.values + b.values, a.side)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        a, b = match_sides(self, other)
        return GridFunction(a.grid, a.values - b.values, a.side)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * c, self.side)

    __rmul__ = __mul__

    def l2_norm(self) -> float:
        """Quadrature L2 norm (same on either side, by Plancherel), free of overflow."""
        w = self.grid.dx if self.side == PHYSICAL else self.grid.dxi
        return math.sqrt(w) * float(scipy.linalg.norm(self.values, check_finite=False))


def match_sides(a: GridFunction, b: GridFunction) -> tuple[GridFunction, GridFunction]:
    if not a.grid.close_to(b.grid):
        raise ValueError("grid mismatch")
    if a.side == b.side:
        return a, b
    return a, (b.to_physical() if a.side == PHYSICAL else b.to_fourier())


def forward_transform(f: GridFunction) -> GridFunction:
    """Physical samples -> Fourier density samples (unitary convention)."""
    if f.side != PHYSICAL:
        raise ValueError("forward_transform expects a physical-side function")
    g = f.grid
    xi = g.frequencies()
    # DFT with k reordered to ascending frequency, then the x0 phase and
    # the density normalization L/(n*sqrt(2*pi)).
    coeff = np.fft.fftshift(np.fft.fft(f.values))
    coeff *= (g.length / (g.n * SQRT_2PI)) * np.exp(-1j * g.x0 * xi)
    return GridFunction(g, coeff, FOURIER)


def _from_density(grid: Grid, values: np.ndarray | None) -> np.ndarray:
    """DFT coefficients (ascending order) of Fourier density samples; None is all ones."""
    phase = np.exp(1j * grid.x0 * grid.frequencies())
    return (phase if values is None else values * phase) * (grid.n * SQRT_2PI / grid.length)


def inverse_transform(f: GridFunction) -> GridFunction:
    """Exact inverse of forward_transform."""
    if f.side != FOURIER:
        raise ValueError("inverse_transform expects a fourier-side function")
    values = np.fft.ifft(np.fft.ifftshift(_from_density(f.grid, f.values)))
    return GridFunction(f.grid, values, PHYSICAL)


def fourier_multiply(f: GridFunction, symbol: np.ndarray) -> GridFunction:
    """f with its Fourier side times `symbol` (sampled on grid.frequencies()),
    returned on f's side."""
    fh = f.to_fourier()
    out = GridFunction(fh.grid, fh.values * symbol, FOURIER)
    return out.to_physical() if f.side == PHYSICAL else out


def derivative_symbol(xi: np.ndarray, s: float) -> np.ndarray:
    """Symbol |xi|^s of |d/dx|^s; the zero mode is 0 whenever s != 0."""
    if s <= -1:
        raise ValueError(f"order must satisfy s > -1 (symbol non-integrable at 0), got {s}")
    if s == 0:
        return np.ones_like(xi)
    mult = np.zeros_like(xi)
    nz = xi != 0
    mult[nz] = np.abs(xi[nz]) ** s
    return mult


def fractional_derivative(f: GridFunction, s: float) -> GridFunction:
    """Fourier multiplier |xi|^s; the zero mode is set to 0 whenever s != 0."""
    if s == 0:
        return f.copy()
    return fourier_multiply(f, derivative_symbol(f.grid.frequencies(), s))


def _dft(values: np.ndarray, side: str) -> np.ndarray:
    """Physical rows -> DFT coefficients; Fourier-side rows are only put into
    FFT order (their density scale goes into physical_rows' multiplier)."""
    return np.fft.fft(values, axis=-1) if side == PHYSICAL else np.fft.ifftshift(values, axes=-1)


def physical_rows(grid: Grid, values: np.ndarray, side: str = PHYSICAL,
                  symbol: np.ndarray | None = None,
                  out: np.ndarray | None = None,
                  times: np.ndarray | None = None,
                  dispersion: np.ndarray | None = None) -> np.ndarray:
    """Physical samples of each row of an (m, n) array of `side`-side samples,
    times `symbol` on the Fourier side and, given `times`, row k also times
    e^{i times[k] dispersion}; symbol and dispersion are sampled on
    grid.frequencies().

    A 1-D `values` is one spectrum shared by all len(times) rows: it is
    transformed, weighted and put into FFT order once.  Physical rows
    without a symbol or phase come back as they are; otherwise batched FFTs
    run ROW_BLOCK rows at a time into `out` (new, or `values` itself).
    """
    if side == PHYSICAL and symbol is None and times is None:
        return values
    mult = _from_density(grid, symbol) if side == FOURIER else symbol
    mult = 1.0 if mult is None else np.fft.ifftshift(mult)
    shared = values.ndim == 1
    if shared:
        mult = mult * _dft(values, side)
    rate = None if times is None else np.fft.ifftshift(dispersion)
    m = len(times) if shared else len(values)
    out = np.empty((m, grid.n), dtype=np.complex128) if out is None else out
    for lo in range(0, m, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        spec = mult if shared else _dft(values[rows], side) * mult
        if rate is not None:
            phase = np.exp(1j * np.outer(times[rows], rate))
            # into the phase block: a new product array per block ran ~20 % slower
            spec = np.multiply(phase, spec, out=phase)
        out[rows] = np.fft.ifft(spec, axis=1)
    return out


class SpaceTimeField:
    """Physical samples of F(t_i, .) on a common grid, one row per time, in one array."""

    def __init__(self, grid: Grid, times: np.ndarray, values: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.complex128)
        if times.ndim != 1 or values.shape != (times.size, grid.n):
            raise ValueError(f"expected 1-D times and values of shape (len(times), "
                             f"{grid.n}), got {times.shape} and {values.shape}")
        # compared, not differenced: a difference of huge times can overflow
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        self.grid = grid
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return self.times.size

    @property
    def frames(self) -> list[GridFunction]:
        """Per-time GridFunction views of the rows."""
        return [GridFunction(self.grid, row) for row in self.values]

    def physical_array(self) -> np.ndarray:
        """The (n_t, n) physical samples: the field's own array."""
        return self.values
