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
map_row_blocks makes the physical samples of the rows of an (m, n)
physical array, ROW_BLOCK rows at a time, optionally with a per-row phase
e^{i t_k p(xi)} (the Airy flow for p = xi^3, a translation for p linear
in xi), or spreads one Fourier density spectrum over all rows, and hands
each block to a caller's reduce(rows, block), which runs before the
block's memory is reused; it returns the reductions in row order.  A
caller that reduces each block to a few numbers (the space-time norms and
the restriction ratio's, mass and energy) never holds all rows at once;
physical_rows writes the blocks into one (m, n) array, and the embedding
residual subtracts each block's nonlinear term from its own rows.  The
blocks are fixed slices of ROW_BLOCK rows, taken in turn from one
counter by the calling thread and one helper thread per other usable
core (numpy's FFT and ufunc loops release the GIL), so every thread
holds one block's temporaries; since every combine runs in row order
over the same blocks, the results do not depend on the number of
threads.  The helpers' pool, one per process with HELPERS threads, is
started by the first call with more than one block, and a one-core host
starts none.  map_blocks is the executor under map_row_blocks.  When the
times are uniform (every t_k within 4 ulps of max|t| of t_0 + k dt) and
there are more than ROW_BLOCK of them, the phases of a block starting at
row lo are e^{i t_lo p}, one direct exp per block, times a table e^{i j dt p},
j < ROW_BLOCK, built once per call by doubling: from the log2(ROW_BLOCK)
= 5 rows e^{i 2^l dt p}, table[s:2s] = table[:s] * e^{i s dt p} for
s = 1, 2, 4, ..., so each entry is a product of at most 5 correctly
rounded exps, and n * log2(ROW_BLOCK) exps replace ROW_BLOCK * n.  The
table is the same for every block, so no rounding error accumulates
across blocks.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)

PHYSICAL = "physical"
FOURIER = "fourier"

# rows per batched FFT: bounds the temporaries of row-wise transforms, of
# which every thread that takes row blocks holds its own
ROW_BLOCK = 32
# threads that take row blocks beside the calling one: one per other usable core
HELPERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1) - 1
# the helpers' ThreadPoolExecutor by (process id, HELPERS), built by the first call
# that uses it: a forked child inherits this dict but none of the threads
_POOLS: dict = {}
# l2_norm sums squares directly when the sum lies in this range; outside it the
# squares may have over- or underflowed, and it rescales by the largest sample
NORM_SAFE = (1e-280, 1e280)


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
        # as Python floats: a numpy sum would warn on overflow
        if not math.isfinite(float(self.x0) + float(self.length)):
            raise ValueError(f"grid end x0 + length must be finite, got "
                             f"x0={self.x0}, length={self.length}")

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

    def lattice_index(self, xi: float) -> int:
        """Index k with xi_k == xi (to 1e-9 cells), or raise if xi is off the lattice."""
        k = xi / self.dxi
        if not math.isfinite(k):
            raise ValueError(f"frequency {xi} gives no finite lattice index (spacing {self.dxi})")
        k_round = round(k)
        if abs(k - k_round) > 1e-9:
            raise ValueError(f"frequency {xi} is not on the lattice (spacing {self.dxi})")
        if not (-self.n // 2 <= k_round < self.n // 2):
            raise ValueError(f"frequency {xi} outside the resolvable band")
        return int(k_round)

    def close_to(self, other: "Grid") -> bool:
        """Same n, and length and x0 equal to 1e-12 relative (absolute below 1)."""
        return (
            self.n == other.n
            and abs(self.length - other.length) <= 1e-12 * max(1.0, abs(self.length))
            and abs(self.x0 - other.x0) <= 1e-12 * max(1.0, abs(self.x0))
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
        """Quadrature L2 norm (same on either side, by Plancherel), free of overflow.

        Zeros give 0.0, a norm past the float range inf and a NaN sample NaN,
        all without a warning.
        """
        w = self.grid.dx if self.side == PHYSICAL else self.grid.dxi
        v = self.values
        s = float(np.vdot(v, v).real)
        if NORM_SAFE[0] < s < NORM_SAFE[1]:
            return math.sqrt(w) * math.sqrt(s)
        # the sum of squares left the safe range (or is 0, inf or NaN): scale by the
        # largest magnitude, so no square over- or underflows
        a = np.abs(v)
        m = float(np.max(a))
        if not 0.0 < m < math.inf:
            return math.sqrt(w) * m
        a /= m
        return math.sqrt(w) * m * math.sqrt(float(np.dot(a, a)))


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


def _row_count(grid: Grid, values: np.ndarray, symbol: np.ndarray | None,
               times: np.ndarray | None, dispersion: np.ndarray | None,
               out: np.ndarray | None) -> int:
    """Rows of a map_row_blocks call, after a check of its arguments that
    raises a one-line ValueError."""
    n = grid.n
    if values.ndim not in (1, 2) or values.shape[-1] != n:
        raise ValueError(f"values must have shape ({n},) or (m, {n}), got {values.shape}")
    if (times is None) != (dispersion is None):
        raise ValueError("times and dispersion go together: give both or neither")
    if times is None:
        if values.ndim == 1:
            raise ValueError("a 1-D spectrum needs times: it is spread over one row per time")
        m = len(values)
    else:
        if np.ndim(times) != 1:
            raise ValueError(f"times must be 1-D, got shape {np.shape(times)}")
        m = len(times)
        if values.ndim == 2 and len(values) != m:
            raise ValueError(f"got {m} times for {len(values)} rows of values")
    for name, arr in (("symbol", symbol), ("dispersion", dispersion)):
        if arr is not None and np.shape(arr) != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {np.shape(arr)}")
    if out is not None and (out.shape != (m, n) or out.dtype != np.complex128):
        raise ValueError(f"out must be a complex128 array of shape ({m}, {n}), "
                         f"got {out.dtype} {out.shape}")
    return m


def map_blocks(make, count: int) -> list:
    """[make(b) for b in range(count)]: the calling thread and up to HELPERS
    threads of the process's one pool take the indices in turn from one
    counter, each helper in a copy of the caller's context (numpy's
    errstate lives there).  After the first error no index is taken; it is
    raised once every helper has stopped.  map_row_blocks runs its blocks
    through it."""
    helpers = min(HELPERS, count - 1)
    if helpers <= 0:
        return [make(b) for b in range(count)]
    results = [None] * count
    errors: list[BaseException] = []
    lock = threading.Lock()
    taken = 0

    def work():
        nonlocal taken
        while True:
            with lock:
                if errors or taken == count:
                    return
                b = taken
                taken += 1
            try:
                results[b] = make(b)
            except BaseException as exc:  # re-raised in the caller below
                with lock:
                    errors.append(exc)
                return

    key = (os.getpid(), HELPERS)
    if key not in _POOLS:
        # imported here, not with the module: concurrent.futures loads logging,
        # about 8 ms that every `import dlab` would pay
        from concurrent.futures import ThreadPoolExecutor
        _POOLS.setdefault(key, ThreadPoolExecutor(HELPERS, thread_name_prefix="dlab-rows"))
    futures = [_POOLS[key].submit(contextvars.copy_context().run, work)
               for _ in range(helpers)]
    work()
    # a helper that has not started would find no block left (and a call made
    # from a pool thread would wait for itself): cancel it instead of waiting
    for future in futures:
        if not future.cancel():
            future.result()
    if errors:
        raise errors[0]
    return results


def map_row_blocks(reduce, grid: Grid, values: np.ndarray,
                   symbol: np.ndarray | None = None,
                   times: np.ndarray | None = None,
                   dispersion: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> list:
    """[reduce(rows, block) for consecutive slices `rows` of ROW_BLOCK rows],
    in row order: block holds the physical samples of those rows of
    `values` times `symbol` on the Fourier side and, given `times`, row k
    also times e^{i times[k] dispersion}; symbol and dispersion are sampled
    on grid.frequencies().

    A 2-D `values` holds physical rows; without a symbol or phase the
    blocks are views of its rows.  A 1-D `values` is one Fourier density
    spectrum shared by all len(times) rows: it is weighted and put into
    FFT order once, and each block's rows are that product times the
    rows' phases.  Each block's batched ifft writes into out[rows] (out
    may be `values` itself) or, without `out`, into the block's own
    spectrum array, which is valid only inside its reduce call.  More than
    ROW_BLOCK uniform times (see _uniform_step) take their phases from a
    once-per-call table e^{i j dt p}, j < ROW_BLOCK, built by doubling from
    log2(ROW_BLOCK) row exps, times one row factor e^{i times[lo] p} per
    block, folded into the symbol and spectrum first; other times get one
    exp per entry.

    The blocks are made and reduced by the calling thread and HELPERS
    helper threads at once (see map_blocks), so reduce may write only to
    its own rows.  The partition is fixed, so a caller that combines the
    results in row order gets the same bits for any number of helpers.
    """
    m = _row_count(grid, values, symbol, times, dispersion, out)
    count = -(-m // ROW_BLOCK)
    shared = values.ndim == 1
    if not shared and symbol is None and times is None:
        def view(b):
            rows = slice(b * ROW_BLOCK, (b + 1) * ROW_BLOCK)
            return reduce(rows, values[rows])

        return map_blocks(view, count)
    rate = None if times is None else np.fft.ifftshift(dispersion)
    if shared:
        mult = np.fft.ifftshift(_from_density(grid, symbol)) * np.fft.ifftshift(values)
    else:
        mult = 1.0 if symbol is None else np.fft.ifftshift(symbol)
    step = _uniform_step(times) if rate is not None and m > ROW_BLOCK else None
    if step is not None:
        # table[k] = e^{i k step p}: row lo + k is e^{i times[lo] p} table[k]; built
        # by doubling (ROW_BLOCK is a power of two), rows [s, 2s) = rows [0, s)
        # times e^{i s step p} for s = 1, 2, 4, ...
        table = np.empty((ROW_BLOCK, rate.size), dtype=np.complex128)
        table[0] = 1.0
        s = 1
        while s < ROW_BLOCK:
            np.multiply(table[:s], np.exp(1j * (s * step) * rate), out=table[s:2 * s])
            s *= 2

    def make(b):
        lo = b * ROW_BLOCK
        rows = slice(lo, lo + ROW_BLOCK)
        if step is not None:
            # the row factor goes into the 1-D multiplier: one exp per block row
            row = np.exp(1j * times[lo] * rate) * mult
            block = table[:min(ROW_BLOCK, m - lo)]
            if shared:
                spec = block * row
            else:
                spec = np.fft.fft(values[rows], axis=1)
                spec *= row
                spec *= block
        else:
            if shared:
                spec = mult
            else:
                spec = np.fft.fft(values[rows], axis=1)
                spec *= mult
            if rate is not None:
                phase = np.exp(1j * np.outer(times[rows], rate))
                # into the phase block: a new product array per block ran ~20 % slower
                spec = np.multiply(phase, spec, out=phase)
        # spec is this block's own array, so without `out` the ifft overwrites it
        return reduce(rows, np.fft.ifft(spec, axis=1, out=spec if out is None else out[rows]))

    return map_blocks(make, count)


def physical_rows(grid: Grid, values: np.ndarray,
                  symbol: np.ndarray | None = None,
                  times: np.ndarray | None = None,
                  dispersion: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """All blocks of map_row_blocks collected into `out` (new, or `values`
    itself), which is returned; 2-D `values` without a symbol or phase
    come back as they are."""
    m = _row_count(grid, values, symbol, times, dispersion, out)
    if values.ndim == 2 and symbol is None and times is None:
        return values
    if out is None:
        out = np.empty((m, grid.n), dtype=np.complex128)
    map_row_blocks(lambda rows, block: None, grid, values, symbol, times, dispersion, out)
    return out


def _uniform_step(times: np.ndarray) -> float | None:
    """Spacing dt of `times` if every time is within 4 ulps of max|t| of
    times[0] + k dt, else None: a phase table of multiples of dt is then
    as exact as the direct product t p."""
    with np.errstate(all="ignore"):  # inf or nan times fail the test below
        step = (times[-1] - times[0]) / (len(times) - 1)
        lattice = times[0] + step * np.arange(len(times))
        tol = 4.0 * np.spacing(np.max(np.abs(times)))
        uniform = bool(np.all(np.abs(times - lattice) <= tol))
    return float(step) if uniform else None


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
