import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.grid import (FOURIER, ROW_BLOCK, Grid, GridFunction, SpaceTimeField, derivative_symbol,
                       physical_rows)
from dlab import norms
from dlab.norms import (SPEC_KEYS, NormSpec, _dyadic_aggregate, _fourier_cells, _physical_cells,
                        _prepare_density, conjugate_exponent, ell, exponents_X,
                        exponents_Y, is_acceptable, is_conjugate_acceptable,
                        lhat_norm, morrey_interpolation_check, morrey_norm,
                        morrey_physical, preset_s, sigma_range, spacetime_norm)
from dlab.deformations import Deformation, apply, dilate


def gaussian(grid: Grid) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, np.exp(-x ** 2 / 2.0).astype(complex))


def random_band(grid: Grid, seed: int, band: float = 4.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    vals = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    vals *= np.exp(-xi ** 2 / 32.0) * (np.abs(xi) <= band)
    return GridFunction(grid, vals, FOURIER)


ALPHA, SIGMA = 1.8, 3.0
ELL_KW = dict(r=SIGMA, a=0.5 - 1.0 / ALPHA, b=2.0)


def planted_grid() -> Grid:
    return Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)


def bump(grid: Grid, amp: float) -> GridFunction:
    # the criterion-12 profile: exact zeros off [0, 1)
    xi = grid.frequencies()
    v = np.where((xi >= -1e-12) & (xi < 1.0 - 1e-12), amp * np.exp(-(xi - 0.5) ** 2 * 8.0), 0.0)
    return GridFunction(grid, v.astype(complex), FOURIER)


def pair_state(n: int) -> GridFunction:
    # criterion 12's two nonresonant profiles at modulations +-n
    g = planted_grid()
    return (apply(Deformation(0, xi=float(n)), bump(g, 2.0), d_exponent=ALPHA)
            + apply(Deformation(0, xi=-float(n), s=0.02, y=3.0), bump(g, 1.0), d_exponent=ALPHA))


def planted_state(seed: int, n: int) -> GridFunction:
    # the scan workload's planted profile, at its seeded Airy time and translation
    rng = np.random.default_rng(seed)
    params = {m: (rng.uniform(-0.2, 0.2), rng.uniform(-2.0, 2.0)) for m in (3, 8)}
    s, y = params[n]
    return apply(Deformation(2, xi=float(n), s=float(s), y=float(y)), bump(planted_grid(), 1.0),
                 d_exponent=ALPHA)


def runs_state(runs, amps=None) -> GridFunction:
    # random moduli on the given (start, stop, step) cell ranges of the
    # planted grid, exact zeros elsewhere; amps scales each range
    g = planted_grid()
    rng = np.random.default_rng(len(runs))
    vals = np.zeros(g.n, complex)
    for i, (start, stop, step) in enumerate(runs):
        cells = np.arange(start, stop, step)
        vals[cells] = (1.0 if amps is None else amps[i]) * rng.uniform(0.5, 1.0, cells.size)
    return GridFunction(g, vals, FOURIER)


def two_runs_second_peaks() -> GridFunction:
    # two 16-cell runs 1184 cells apart; the second is three times the first
    return runs_state([(100, 116, 1), (1300, 1316, 1)], amps=[1.0, 3.0])


# ---------------------------------------------------------------------------
# lhat
# ---------------------------------------------------------------------------

def test_lhat_r2_is_plancherel():
    f = gaussian(Grid(512, 16 * np.pi, -8 * np.pi))
    assert lhat_norm(f, 2.0) == pytest.approx(f.l2_norm(), rel=1e-12)


def test_lhat_indicator_values():
    g = Grid(256, 2 * np.pi * 32)  # dxi = 1/32
    xi = g.frequencies()
    ind = ((xi >= -1e-12) & (xi < 1.0 - 1e-12)).astype(complex)
    f = GridFunction(g, ind, FOURIER)
    # L^{r'} of a unit-height density on a unit interval is 1 for every r
    for r in (1.5, 2.0, 3.0, math.inf):
        assert lhat_norm(f, r) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        lhat_norm(f, 0.5)


# ---------------------------------------------------------------------------
# hat-Morrey
# ---------------------------------------------------------------------------

def indicator_morrey_oracle(alpha: float, sigma: float) -> float:
    """Closed form for the unit-indicator density aligned with the lattice.

    Scales with 2^j intervals of width 2^{-j} inside the support sum a
    geometric series; coarser scales see the whole mass in one interval.
    """
    e_fine = 1.0 - sigma * (1.0 - 1.0 / alpha)
    fine = 1.0 / (1.0 - 2.0 ** e_fine)
    e_coarse = -sigma * (1.0 / alpha - 0.5)
    coarse = 2.0 ** e_coarse / (1.0 - 2.0 ** e_coarse)
    return (fine + coarse) ** (1.0 / sigma)


def test_morrey_indicator_closed_form():
    alpha, sigma = 1.6, 3.0
    g = Grid(1024, 2 * np.pi * 32)
    xi = g.frequencies()
    ind = ((xi >= -1e-12) & (xi < 1.0 - 1e-12)).astype(complex)
    f = GridFunction(g, ind, FOURIER)
    got = morrey_norm(f, alpha, 2.0, sigma)
    assert got == pytest.approx(indicator_morrey_oracle(alpha, sigma), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_morrey_homogeneity(re, im):
    c = complex(re, im)
    f = random_band(Grid(256, 2 * np.pi * 8), seed=7)
    base = morrey_norm(f, 1.8, 2.0, 3.0)
    scaled = morrey_norm(f * c, 1.8, 2.0, 3.0)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_morrey_window_truncates():
    f = random_band(Grid(512, 2 * np.pi * 16), seed=1)
    full = morrey_norm(f, 1.8, 2.0, 3.0)
    part = morrey_norm(f, 1.8, 2.0, 3.0, window=(-2, 4))
    wide = morrey_norm(f, 1.8, 2.0, 3.0, window=(-8, 10))
    assert part < full
    assert part < wide <= full * (1 + 1e-12)
    with pytest.raises(ValueError, match="empty scale window"):
        morrey_norm(f, 1.8, 2.0, 3.0, window=(3, 1))


def test_morrey_offset_is_modulation():
    # shifting the dyadic lattice by a lattice frequency equals evaluating
    # the norm of the exactly modulated samples
    from dlab.deformations import modulate
    g = Grid(512, 2 * np.pi * 16)
    f = random_band(g, seed=9)
    xi0 = 2.0
    a = morrey_norm(f, 1.8, 2.0, 3.0, offset=xi0)
    b = morrey_norm(modulate(f, xi0), 1.8, 2.0, 3.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_morrey_exponent_validation():
    f = random_band(Grid(128, 2 * np.pi * 4), seed=0)
    with pytest.raises(ValueError):
        morrey_norm(f, 2.0, 1.5, 3.0)  # p > q
    with pytest.raises(ValueError):
        morrey_norm(f, 2.0, 2.0, 3.0)  # p == q with finite r
    with pytest.raises(ValueError):
        morrey_norm(f, 1.5, 1.0, 3.0)  # q = 1 unsupported
    assert morrey_norm(f * 0.0, 1.8, 2.0, 3.0) == 0.0


def test_nan_exponents_are_refused():
    # NaN fails every comparison, so `r < 1` and `r <= 0` used to let it through:
    # lhat_norm returned NaN and morrey_norm the r = inf value
    f = random_band(Grid(128, 2 * np.pi * 4), seed=0)
    with pytest.raises(ValueError, match="^Lebesgue exponent must be >= 1, got nan$"):
        conjugate_exponent(math.nan)
    with pytest.raises(ValueError, match="^Lebesgue exponent must be >= 1, got nan$"):
        lhat_norm(f, math.nan)
    with pytest.raises(ValueError, match="^need r > 0, got r=nan$"):
        morrey_norm(f, 1.8, 2.0, math.nan)
    assert math.isfinite(morrey_norm(f, 1.8, 2.0, math.inf))


def test_morrey_dilation_invariance():
    alpha, sigma = 1.8, 3.0
    f = random_band(Grid(512, 2 * np.pi * 16), seed=4)
    base = morrey_norm(f, alpha, 2.0, sigma)
    for h in (0.25, 0.5, 2.0, 8.0):
        scaled = morrey_norm(dilate(f, h, alpha), alpha, 2.0, sigma)
        assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# ell
# ---------------------------------------------------------------------------

def test_ell_bounded_by_unmodulated_norm():
    alpha, sigma = 1.8, 3.0
    for seed in range(6):
        f = random_band(Grid(256, 2 * np.pi * 8), seed=seed)
        base = morrey_norm(f, alpha, 2.0, sigma)
        value, xi0 = ell(f, alpha, sigma)
        assert value <= base * (1 + 1e-9)
        assert value >= 0.5 * base * (1 - 1e-9)
        # the reported minimizer attains the reported value
        assert morrey_norm(f, alpha, 2.0, sigma, offset=xi0) == pytest.approx(
            value, rel=1e-9)


def test_ell_zero_and_validation():
    g = Grid(128, 2 * np.pi * 4)
    zero = GridFunction(g, np.zeros(128, complex), FOURIER)
    assert ell(zero, 1.8, 3.0) == (0.0, 0.0)
    f = random_band(g, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        ell(f, 2.5, 3.0)
    lo, hi = sigma_range(1.8)
    with pytest.raises(ValueError, match="sigma"):
        ell(f, 1.8, hi + 0.5)
    with pytest.raises(ValueError, match="sigma"):
        ell(f, 1.8, lo)  # the left endpoint is excluded


def test_ell_minimizer_attains_value_on_planted_profiles():
    # the criterion-12 planted states: one bump under D(2) P(n) S(0.1) T(1)
    psi = bump(planted_grid(), 1.0)
    for n in (2, 3, 5, 8):
        u = apply(Deformation(2, xi=float(n), s=0.1, y=1.0), psi, d_exponent=ALPHA)
        value, xi0 = ell(u, ALPHA, SIGMA)
        assert morrey_norm(u, ALPHA, 2.0, SIGMA, offset=xi0) == pytest.approx(
            value, rel=1e-12)


def golden_sequential(f: GridFunction, alpha: float, sigma: float,
                      window=None) -> tuple[float, float]:
    """ell with its golden-section refinement as a loop of one-offset
    _dyadic_aggregate calls, one per step: the oracle of ell's batched rounds."""
    vals, edges = _fourier_cells(f)
    dens = _prepare_density(vals, edges, r=sigma, b=2.0)
    if not np.any(vals > 0):
        return 0.0, 0.0
    a = 0.5 - 1.0 / alpha

    def objective(xi0: float) -> float:
        return float(norms._dyadic_aggregate(dens, a=a, offsets=[xi0], window=window)[0][0])

    step = 2.0 * float(np.min(np.diff(edges)))
    candidates = np.arange(dens.lo - step, dens.hi + 2 * step, step)
    cand_vals = norms._dyadic_aggregate(dens, a=a, offsets=candidates, window=window)[0]
    i = int(np.argmin(cand_vals))
    xa = candidates[max(i - 1, 0)]
    xb = candidates[min(i + 1, candidates.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = xb - invphi * (xb - xa)
    d = xa + invphi * (xb - xa)
    fc, fd = objective(c), objective(d)
    scale = max(abs(xa), abs(xb), 1.0)
    while (xb - xa) > 1e-6 * scale:
        if fc < fd:
            xb, d, fd = d, c, fc
            c = xb - invphi * (xb - xa)
            fc = objective(c)
        else:
            xa, c, fc = c, d, fd
            d = xa + invphi * (xb - xa)
            fd = objective(d)
    best_x = c if fc < fd else d
    best_v = min(fc, fd)
    if cand_vals[i] < best_v:
        best_x, best_v = float(candidates[i]), float(cand_vals[i])
    return float(best_v), float(best_x)


def dense_fft_band() -> GridFunction:
    # all 2048 cells nonzero, made by a physical round trip
    g = planted_grid()
    rng = np.random.default_rng(5)
    band = GridFunction(g, rng.normal(size=g.n) + 1j * rng.normal(size=g.n), FOURIER)
    return band.to_physical().to_fourier()


def ell_oracle_inputs(name: str) -> list[GridFunction]:
    from test_profiles import criterion_12_inputs, random_bands, scan_inputs
    if name.startswith("scan"):
        return scan_inputs(int(name[-1]))
    if name == "criterion_12":
        return [f for fs in criterion_12_inputs().values() for f in fs]
    return random_bands(24, int(name[-1]))  # bands of 1 to 300 cells and their FFT-made copies


@pytest.mark.parametrize("name", ["scan0", "scan1", "criterion_12",
                                  "random_bands0", "random_bands1"])
def test_ell_rounds_match_the_one_offset_loop(name):
    # the same bits: each round's pass gives every offset a one-offset call's value
    for f in ell_oracle_inputs(name):
        assert ell(f, ALPHA, SIGMA) == golden_sequential(f, ALPHA, SIGMA)


def aggregate_calls(monkeypatch, fn):
    """fn() and the number of offsets of each _dyadic_aggregate call it made."""
    real = norms._dyadic_aggregate
    sizes = []

    def spy(dens, *, a, offsets, window):
        sizes.append(np.size(offsets))
        return real(dens, a=a, offsets=offsets, window=window)

    monkeypatch.setattr(norms, "_dyadic_aggregate", spy)
    try:
        return fn(), sizes
    finally:
        monkeypatch.undo()


def test_ell_rounds_on_a_dense_band_take_one_offset_per_pass(monkeypatch):
    f = dense_fft_band()
    got, rounds = aggregate_calls(monkeypatch, lambda: ell(f, ALPHA, SIGMA))
    want, loop = aggregate_calls(monkeypatch, lambda: golden_sequential(f, ALPHA, SIGMA))
    assert got == want
    # the candidate scan, c and d in one pass, then one offset per step
    assert rounds[1] == 2 and set(rounds[2:]) == {1}
    assert rounds[2:] == loop[3:]


def test_ell_rounds_on_a_narrow_band_take_several_steps_per_pass(monkeypatch):
    f = planted_state(0, 3)
    got, rounds = aggregate_calls(monkeypatch, lambda: ell(f, ALPHA, SIGMA))
    want, loop = aggregate_calls(monkeypatch, lambda: golden_sequential(f, ALPHA, SIGMA))
    assert got == want
    assert rounds[1] == 2 and max(rounds[2:]) > 1
    assert len(rounds) < len(loop) / 2


def test_ell_rounds_end_on_a_density_whose_integral_underflows():
    # nonzero cells whose squares underflow: every pass is all zeros and
    # evaluates no bound, and the rounds still walk the loop's steps
    g = Grid(256, 2 * np.pi * 8)
    vals = np.zeros(g.n, complex)
    vals[100:110] = 1e-200
    f = GridFunction(g, vals, FOURIER)
    assert ell(f, ALPHA, SIGMA) == golden_sequential(f, ALPHA, SIGMA)
    assert ell(f, ALPHA, SIGMA)[0] == 0.0


def test_ell_rounds_match_the_one_offset_loop_in_a_window():
    f = planted_state(1, 8)
    window = (-3, 5)
    assert ell(f, ALPHA, SIGMA, window=window) == golden_sequential(f, ALPHA, SIGMA, window=window)


def test_sigma_range_values():
    lo, hi = sigma_range(1.8)
    assert lo == pytest.approx(1.8 / 0.8)
    assert hi == pytest.approx(6 * 1.8 / (3 * 1.8 - 2))


# ---------------------------------------------------------------------------
# batched dyadic aggregation
# ---------------------------------------------------------------------------

def aggregate(vals, edges, *, r, a, b, offsets=(0.0,), window=None):
    return _dyadic_aggregate(_prepare_density(vals, edges, r=r, b=b), a=a,
                             offsets=offsets, window=window)[0]


def dyadic_aggregate_by_scale(cell_vals, edges, *, r, a, b, offsets=(0.0,), window=None):
    """The aggregate one scale at a time: the oracle of the one-pass
    _dyadic_aggregate.  Each scale evaluates every distinct residue of the
    offsets over the scale's largest interval count, clips negative
    roundoff steps and powers every term, zeros included."""
    cell_vals = np.asarray(cell_vals, dtype=np.float64)
    offsets = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    widths = np.diff(edges)
    cum = np.concatenate(([0.0], np.cumsum(cell_vals ** b * widths)))
    total_pow = cum[-1]
    if total_pow == 0.0:
        return np.zeros(offsets.size)
    nz = np.nonzero(cell_vals)[0]
    lo, hi = edges[nz[0]], edges[nz[-1] + 1]
    w_cell = float(np.min(widths[nz]))
    if window is None:
        j_hi = math.ceil(-math.log2(w_cell)) + 2
        mant, expo = np.frexp(np.maximum(np.maximum(hi - offsets, offsets - lo), w_cell))
        j_lo = np.minimum(-(expo - (mant == 0.5) + 1), j_hi)
    else:
        j_hi = window[1]
        j_lo = np.full(offsets.size, window[0])
    finite_r = math.isfinite(r)
    acc = np.zeros(offsets.size)
    for j in range(int(j_lo.min()), j_hi + 1):
        w = 2.0 ** (-j)
        _, first, inv = np.unique(np.mod(offsets, w), return_index=True, return_inverse=True)
        reps = offsets[first]
        k0 = np.floor((lo - reps) / w)
        n_bounds = int((np.ceil((hi - reps) / w) - k0).max()) + 1
        bounds = (k0[:, None] + np.arange(n_bounds)) * w + reps[:, None]
        terms = np.maximum(np.diff(np.interp(bounds, edges, cum), axis=1), 0.0)
        terms = terms ** (1.0 / b) * w ** a
        per_res = (terms ** r).sum(axis=1) if finite_r else terms.max(axis=1)
        term = np.where(j_lo <= j, per_res[inv], 0.0)
        acc = acc + term if finite_r else np.maximum(acc, term)
    if window is None:
        sub_exp = a + 1.0 / b
        w_next = 2.0 ** (-(j_hi + 1))
        if finite_r:
            e_sub = r * sub_exp - 1.0
            if e_sub <= 0.0:
                return np.full(offsets.size, math.inf)
            acc += np.sum(widths * cell_vals ** r) * (w_next ** e_sub) / (1.0 - 2.0 ** (-e_sub))
        else:
            if sub_exp < 0.0:
                return np.full(offsets.size, math.inf)
            vmax = np.max(cell_vals)
            acc = np.maximum(acc, vmax if sub_exp == 0.0 else vmax * w_next ** sub_exp)
        below = np.interp(offsets, edges, cum)
        n_plus = np.maximum(total_pow - below, 0.0)
        n_minus = np.maximum(below, 0.0)
        w_prev = 2.0 ** (1.0 - j_lo)
        if finite_r:
            if a >= 0.0:
                return np.full(offsets.size, math.inf)
            halves = n_plus ** (r / b) + n_minus ** (r / b)
            acc += halves * (w_prev ** (a * r)) / (1.0 - 2.0 ** (a * r))
        else:
            if a > 0.0:
                return np.full(offsets.size, math.inf)
            cand = np.maximum(n_plus, n_minus) ** (1.0 / b)
            acc = np.maximum(acc, cand if a == 0.0 else cand * w_prev ** a)
    return acc ** (1.0 / r) if finite_r else acc


def coarse_anchor_scale(x, lo, hi, w_cell):
    # the coarsest explicitly summed scale of offset x (its tail starts below)
    return -(math.ceil(math.log2(max(hi - x, x - lo, w_cell))) + 1)


AGGREGATE_CASES = {
    # hat-Morrey density on a grid whose cells are incommensurate with the
    # dyadic lattice, so every offset has its own residue at fine scales
    "finite_r": (lambda: _fourier_cells(random_band(Grid(256, 20.0), seed=2)),
                 dict(r=3.0, a=0.5 - 1.0 / 1.8, b=2.0)),
    "finite_r_window": (lambda: _fourier_cells(random_band(Grid(512, 2 * np.pi * 16), seed=3)),
                        dict(r=3.0, a=0.5 - 1.0 / 1.8, b=2.0, window=(-3, 5))),
    # the morrey_physical case: physical cells, r = inf
    "r_inf_physical": (lambda: _physical_cells(gaussian(Grid(256, 16.0, -8.0))),
                       dict(r=math.inf, a=1.0 / 3.0 - 1.0 / 1.5, b=1.5)),
}


@pytest.mark.parametrize("case", sorted(AGGREGATE_CASES))
def test_batched_aggregate_matches_one_offset_calls(case):
    cells, kw = AGGREGATE_CASES[case]
    vals, edges = cells()
    nz = np.nonzero(vals)[0]
    lo, hi = edges[nz[0]], edges[nz[-1] + 1]
    w_cell = float(np.min(np.diff(edges)))
    rng = np.random.default_rng(7)
    step = 2.0 * w_cell
    # the lattice ell scans (repeated residues) plus offsets well outside
    # the support, whose coarse tails start at other scales
    offsets = np.concatenate([lo + step * np.arange(-40, 100),
                              rng.uniform(lo - 3 * (hi - lo), hi + 3 * (hi - lo), 80)])
    assert offsets.size >= 200
    assert len({coarse_anchor_scale(x, lo, hi, w_cell) for x in offsets}) > 1
    batched = aggregate(vals, edges, offsets=offsets, **kw)
    single = np.array([aggregate(vals, edges, offsets=[x], **kw)[0] for x in offsets])
    assert batched.shape == offsets.shape
    assert np.all(np.isfinite(single)) and np.all(single > 0)
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0.0)


ORACLE_CASES = {
    **AGGREGATE_CASES,
    "r_inf_physical_window": (lambda: _physical_cells(gaussian(Grid(256, 16.0, -8.0))),
                              dict(r=math.inf, a=1.0 / 3.0 - 1.0 / 1.5, b=1.5, window=(-2, 6))),
    # an FFT-made density (the planted state through a physical round trip):
    # the cells off its band hold roundoff, not zeros, but most steps of its
    # cumulative integral, and so most fine-scale terms, are exact zeros
    "mostly_zeros": (lambda: _fourier_cells(planted_state(0, 3).to_physical().to_fourier()),
                     ELL_KW),
    **{f"pair_n{n}": (lambda n=n: _fourier_cells(pair_state(n)), ELL_KW) for n in (8, 16, 32, 48)},
    # gapped densities: every other cell zero; two runs 1184 cells apart;
    # gaps of 3, 40 and 400 cells, which rows skip at fine scales and join
    # at coarse ones; and the selector's exponents on two runs whose first
    # maximising interval, at every scale finer than the gap, is in the second
    "comb": (lambda: _fourier_cells(runs_state([(600, 664, 2)])), ELL_KW),
    "two_runs": (lambda: _fourier_cells(runs_state([(100, 116, 1), (1300, 1316, 1)])), ELL_KW),
    "uneven_gaps": (lambda: _fourier_cells(runs_state([(500, 508, 1), (511, 519, 1),
                                                       (559, 575, 1), (975, 983, 1)])), ELL_KW),
    "r_inf_second_run": (lambda: _fourier_cells(two_runs_second_peaks()),
                         dict(r=math.inf, a=-1.0 / (3.0 * ALPHA),
                              b=conjugate_exponent(1.5 * ALPHA))),
}


@pytest.mark.parametrize("mode", ["one", "lattice"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_aggregate_matches_by_scale_oracle(case, mode):
    cells, kw = ORACLE_CASES[case]
    vals, edges = cells()
    nz = np.nonzero(vals)[0]
    lo, hi = edges[nz[0]], edges[nz[-1] + 1]
    step = 2.0 * float(np.min(np.diff(edges)))
    if mode == "one":
        offsets = np.array([lo + 0.3 * (hi - lo) + 0.1 * step])
    else:
        # ell's candidate lattice, and offsets whose coarse tails start elsewhere
        rng = np.random.default_rng(11)
        offsets = np.concatenate([np.arange(lo - step, hi + 2 * step, step),
                                  rng.uniform(lo - 3 * (hi - lo), hi + 3 * (hi - lo), 40)])
    if case == "mostly_zeros":
        # roundoff-sized cells past the bump leave the cumulative integral unchanged
        assert np.any((vals > 0.0) & (vals < 1e-12 * np.max(vals)))
        assert np.mean(np.diff(np.cumsum(vals ** 2)) == 0.0) > 0.5
    want = dyadic_aggregate_by_scale(vals, edges, offsets=offsets, **kw)
    got = aggregate(vals, edges, offsets=offsets, **kw)
    assert np.all(np.isfinite(want)) and np.all(want > 0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def peak_k_by_scale(vals, edges, *, a, b, offset, scales):
    """Per scale j of `scales`: the first k whose interval [k w + offset,
    (k+1) w + offset), w = 2^-j, attains the largest w^a (int_I dens^b)^{1/b}
    over every interval that meets the support."""
    cum = np.concatenate(([0.0], np.cumsum(np.asarray(vals) ** b * np.diff(edges))))
    nz = np.nonzero(vals)[0]
    lo, hi = edges[nz[0]], edges[nz[-1] + 1]
    ks = []
    for j in scales:
        w = 2.0 ** (-j)
        k0 = math.floor((lo - offset) / w)
        bounds = (k0 + np.arange(math.ceil((hi - offset) / w) - k0 + 1)) * w + offset
        terms = np.maximum(np.diff(np.interp(bounds, edges, cum)), 0.0) ** (1.0 / b) * w ** a
        ks.append(k0 + int(np.argmax(terms)))
    return np.array(ks)


@pytest.mark.parametrize("case", sorted(c for c, (_, kw) in ORACLE_CASES.items()
                                         if kw["r"] == math.inf))
def test_peak_k_matches_by_scale_oracle(case):
    cells, kw = ORACLE_CASES[case]
    vals, edges = cells()
    dens = _prepare_density(vals, edges, r=math.inf, b=kw["b"])
    j_min, j_max = kw.get("window") or (-8, math.ceil(-math.log2(dens.w_cell)) + 2)
    for offset in (0.0, 0.3 * dens.w_cell + 0.1 * (dens.hi - dens.lo)):
        _, k, _ = norms._scale_terms(dens, a=kw["a"], offsets=np.array([offset]),
                                     j_lo=np.array([j_min]), j_hi=j_max)
        want = peak_k_by_scale(vals, edges, a=kw["a"], b=kw["b"], offset=offset,
                               scales=range(j_min, j_max + 1))
        np.testing.assert_array_equal(k[:, 0], want)
        if case == "r_inf_second_run":
            # the gap is skipped at these scales, and k still names the interval
            assert dens.gap_lo.size == 1
            fine = np.arange(j_min, j_max + 1) >= 0
            assert np.all(k[fine, 0] * 2.0 ** -np.arange(j_min, j_max + 1)[fine] + offset
                          >= edges[1300] - 1.0)


def test_gaps_are_skipped_and_a_single_run_keeps_its_bounds(monkeypatch):
    # interval bounds one offset's pass interpolates, counted at np.interp;
    # before gaps were skipped pair_state(48) took 12447, for 32 nonzero
    # cells spread over 1552
    real = np.interp
    sizes = []

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return real(x, *args, **kwargs)

    def entries(f):
        dens = _prepare_density(*_fourier_cells(f), r=SIGMA, b=2.0)
        sizes.clear()
        monkeypatch.setattr(norms.np, "interp", spy)
        offset = dens.lo + 0.3 * (dens.hi - dens.lo) + 0.0123
        _dyadic_aggregate(dens, a=ELL_KW["a"], offsets=[offset])
        monkeypatch.undo()
        return sum(sizes)

    assert entries(pair_state(48)) <= 12447 // 10
    assert entries(planted_state(0, 3)) == 145


@pytest.mark.parametrize("seed, n", [(0, 3), (1, 8)])
def test_planted_state_density_support_is_its_band(seed, n):
    # D(4) P(n) moves the bump's cells [0, 1) to [-4n, -4n + 4), exact zeros elsewhere
    dens = _prepare_density(*_fourier_cells(planted_state(seed, n)), r=SIGMA, b=2.0)
    assert (dens.lo, dens.hi) == (-4.0 * n, -4.0 * n + 4.0)


@pytest.mark.parametrize("seed, n", [(0, 3), (0, 8), (1, 3), (1, 8)])
def test_ell_matches_by_scale_oracle_on_planted_states(monkeypatch, seed, n):
    u = planted_state(seed, n)
    value, xi0 = ell(u, ALPHA, SIGMA)
    vals, edges = _fourier_cells(u)

    def by_scale(dens, *, a, offsets, window):
        # the pass's bound count from the engine, so that ell runs the same rounds
        return (dyadic_aggregate_by_scale(vals, edges, r=dens.r, a=a, b=dens.b,
                                          offsets=offsets, window=window),
                _dyadic_aggregate(dens, a=a, offsets=offsets, window=window)[1])

    monkeypatch.setattr(norms, "_dyadic_aggregate", by_scale)
    want_value, want_xi0 = ell(u, ALPHA, SIGMA)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert xi0 == pytest.approx(want_xi0, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_density_is_rejected(bad):
    f = random_band(Grid(256, 2 * np.pi * 8), seed=5)
    f.values[3] = bad
    msg = "^density values must be finite and nonnegative$"
    with pytest.raises(ValueError, match=msg):
        morrey_norm(f, ALPHA, 2.0, SIGMA)
    with pytest.raises(ValueError, match=msg):
        ell(f, ALPHA, SIGMA)


@pytest.mark.parametrize("window, msg", [
    ((0, 40), "holds more than"),
    ((-1023, 2), "must lie in"),
    ((0, 1024), "must lie in"),
])
def test_window_is_bounded_before_any_allocation(window, msg):
    f = random_band(Grid(256, 2 * np.pi * 8), seed=5)
    with pytest.raises(ValueError, match=msg):
        morrey_norm(f, ALPHA, 2.0, SIGMA, window=window)
    with pytest.raises(ValueError, match=msg):
        ell(f, ALPHA, SIGMA, window=window)


def test_window_interval_count_is_exact_at_the_bound():
    # a unit-width support seen at scales 0..J: 2^j + 1 intervals at scale j
    g = Grid(1024, 2 * np.pi * 32)
    xi = g.frequencies()
    f = GridFunction(g, ((xi >= -1e-12) & (xi < 1.0 - 1e-12)).astype(complex), FOURIER)
    dens = _prepare_density(*_fourier_cells(f), r=SIGMA, b=2.0)
    assert dens.hi - dens.lo == 1.0
    j_max = norms._MAX_WINDOW_INTERVALS.bit_length() - 3
    count = sum(2 ** j + 1 for j in range(j_max + 1))
    assert count <= norms._MAX_WINDOW_INTERVALS < count + 2 ** (j_max + 1) + 1
    norms._check_window(dens, (0, j_max))
    with pytest.raises(ValueError, match="holds more than"):
        norms._check_window(dens, (0, j_max + 1))


# ---------------------------------------------------------------------------
# exponent calculus
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.5, allow_nan=False),
       st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
def test_exponent_maps_invert(s, r):
    for mapping, rhs0 in ((exponents_X, 0.0), (exponents_Y, 2.0)):
        p, q = mapping(s, r)
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        assert 2 * inv_p + inv_q == pytest.approx(rhs0 + 1.0 / r, abs=1e-12)
        assert -inv_p + 2 * inv_q == pytest.approx(s, abs=1e-12)


def test_preset_values():
    a = 1.8
    assert preset_s("S", a) == 0.0
    assert preset_s("L", a) == pytest.approx(1.0 / (3 * a))
    assert preset_s("N", a) == preset_s("L", a)
    with pytest.raises(ValueError):
        preset_s("Q", a)


def test_offset_presets_sit_inside_the_open_window():
    for a in (1.5, 1.7, 1.9):
        for name in ("Z", "K"):
            assert is_acceptable(preset_s(name, a), a)
            assert not is_acceptable(preset_s(name, a, eps=-1e-3), a)


def test_acceptability_edges():
    # the closed branch 1/r <= 1/2
    assert is_acceptable(0.0, 2.0)
    assert is_acceptable(1.0, 2.0)  # s = 2/r boundary included
    assert not is_acceptable(1.0 + 1e-9, 2.0)
    assert is_acceptable(-0.25, 2.0)  # s = -1/(2r) boundary included
    assert not is_acceptable(-0.25 - 1e-9, 2.0)
    # r below 4/3 is never acceptable
    assert not is_acceptable(0.0, 1.2)
    assert is_acceptable(0.0, math.inf)


def test_conjugate_acceptability():
    a = 1.9
    s = preset_s("L", a)
    assert is_conjugate_acceptable(s, a) == is_acceptable(1.0 - s,
                                                          conjugate_exponent(a))


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        conjugate_exponent(0.9)


# ---------------------------------------------------------------------------
# NormSpec
# ---------------------------------------------------------------------------

def test_norm_spec_round_trip():
    spec = NormSpec(kind="morrey_hat", p=1.8, q=2.0, r=3.0, j_min=-2, j_max=5)
    back = NormSpec.parse(spec.serialize())
    assert back == spec
    assert back.window == (-2, 5)


def test_norm_spec_serializes_on_one_line():
    spec = NormSpec(kind="morrey_hat", p=1.8, q=2.0, r=3.0, j_min=-2, j_max=5)
    assert spec.serialize() == "kind=morrey_hat,p=1.8,q=2.0,r=3.0,s=0.0,j_min=-2,j_max=5"


def test_norm_spec_parse_commas_and_inf():
    spec = NormSpec.parse("kind=lhat, r=inf")
    assert spec.kind == "lhat" and math.isinf(spec.r)
    assert NormSpec.parse(spec.serialize()) == spec


def test_norm_spec_presets():
    a = 1.9
    s_spec = NormSpec.from_preset("S", a)
    assert s_spec.kind == "spacetime_X" and s_spec.s == 0.0 and s_spec.r == a
    n_spec = NormSpec.from_preset("N", a)
    assert n_spec.kind == "spacetime_Y"
    assert NormSpec.parse(n_spec.serialize()) == n_spec


def test_norm_spec_errors():
    with pytest.raises(ValueError, match="unknown norm kind"):
        NormSpec(kind="sobolev")
    with pytest.raises(ValueError, match="declare kind"):
        NormSpec.parse("r=2.0")
    with pytest.raises(ValueError, match="malformed"):
        NormSpec.parse("kind=lhat\nbogus")
    with pytest.raises(ValueError, match="unknown norm spec key"):
        NormSpec.parse("kind=lhat,weight=3")


@pytest.mark.parametrize("text, message", [
    ("kind=lhat", "^kind=lhat needs r >= 1, got r=nan$"),  # a spec without r has r = nan
    ("kind=lhat,r=nan", "^kind=lhat needs r >= 1, got r=nan$"),
    ("kind=lhat,r=0.5", "^kind=lhat needs r >= 1, got r=0.5$"),
    ("kind=morrey_hat,p=1.8,q=2", "^kind=morrey_hat needs r > 0, got r=nan$"),
    ("kind=morrey_hat,p=1.8,q=2,r=nan", "^kind=morrey_hat needs r > 0, got r=nan$"),
])
def test_norm_spec_refuses_a_missing_r(text, message):
    with pytest.raises(ValueError, match=message):
        NormSpec.parse(text)
    assert NormSpec.parse(text.replace(",r=nan", "").replace(",r=0.5", "") + ",r=inf").r == math.inf


@pytest.mark.parametrize("half", ["j_min=-2", "j_max=4"])
def test_norm_spec_rejects_half_a_window(half):
    # a lone bound used to drop the window while serialize still printed it
    with pytest.raises(ValueError, match="^a norm window needs both j_min and j_max$"):
        NormSpec.parse(f"kind=morrey_hat,p=1.8,q=2.0,r=3.0,{half}")


@pytest.mark.parametrize("kind", ["lhat", "spacetime_X", "spacetime_Y"])
def test_norm_spec_refuses_a_window_its_kind_does_not_read(kind):
    # these kinds never read j_min/j_max, so a window would be echoed and ignored
    message = f"^kind={kind} reads no j_min/j_max window; only morrey_hat and ell do$"
    with pytest.raises(ValueError, match=message):
        NormSpec(kind=kind, r=2.0, j_min=0, j_max=3)
    with pytest.raises(ValueError, match=message):
        NormSpec.parse(f"kind={kind},r=2.0,j_min=0,j_max=3")
    assert NormSpec(kind=kind, r=2.0).window is None


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["lhat", "morrey_hat", "ell"]),
       st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
       st.integers(min_value=-9, max_value=9))
def test_norm_spec_round_trip_property(kind, r, j):
    # each kind is given only the keys it reads: lhat has no window, ell no r
    given_keys = {"p": 1.8, "q": 2.0, "r": r, "sigma": 3.0, "j_min": j, "j_max": j + 3}
    spec = NormSpec(kind=kind, **{key: given_keys[key] for key in SPEC_KEYS[kind]})
    assert NormSpec.parse(spec.serialize()) == spec


@pytest.mark.parametrize("kind", sorted(SPEC_KEYS))
def test_norm_spec_refuses_a_key_its_kind_does_not_read(kind):
    reads = {key: val for key, val in (("p", 1.8), ("q", 2.0), ("r", 3.0), ("sigma", 3.0))
             if key in SPEC_KEYS[kind]}
    # s = 0 is its default, so every kind takes it and serialize round-trips
    assert NormSpec(kind=kind, **reads, s=0.0) == NormSpec(kind=kind, **reads)
    for key, val in (("p", 1.8), ("q", 2.0), ("r", 3.0), ("s", 0.5), ("sigma", 3.0)):
        if key not in SPEC_KEYS[kind]:
            message = f"^kind={kind} reads no {key}, got {key}={val}; "
            with pytest.raises(ValueError, match=message):
                NormSpec(kind=kind, **reads, **{key: val})


def test_morrey_norm_refuses_sums_that_leave_the_doubles():
    # r = 1e4 overflowed the l^r sum to NaN, and p = 1e308 made the coarse-scale
    # tail 1 / (1 - 2^{a r}) a division by zero
    f = gaussian(Grid(64, 8 * np.pi, -4 * np.pi))
    for p, q, r in ((1.8, 2.0, 1e4), (1e308, math.inf, 1.8), (1.8, math.inf, 1e308)):
        with pytest.raises(ValueError, match=re.escape(
                f"hat-Morrey sums leave the doubles at p={p}, q={q}, r={r}")):
            morrey_norm(f, p, q, r)
    assert math.isfinite(morrey_norm(f, 1.8, 2.0, 400.0))


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------

def test_spacetime_single_mode_oracle():
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)  # dxi = 1/8
    k = 2.0
    x = g.nodes()
    mode = GridFunction(g, np.exp(1j * k * x))
    times = np.linspace(0.0, 1.0, 11)
    field = SpaceTimeField(g, times, np.tile(mode.values, (times.size, 1)))
    s, r = 0.5, 2.0
    p, q = exponents_X(s, r)
    expected = k ** s * g.length ** (1.0 / p)
    got = spacetime_norm(field, NormSpec(kind="spacetime_X", r=r, s=s))
    assert got == pytest.approx(expected, rel=1e-10)


def materialised_spacetime_norm(field: SpaceTimeField, spec: NormSpec) -> float:
    # every weighted row held at once: the reference for the streamed sums
    exponents = exponents_X if spec.kind == "spacetime_X" else exponents_Y
    p, q = exponents(spec.s, spec.r)
    g = field.grid
    symbol = derivative_symbol(g.frequencies(), spec.s) if spec.s != 0.0 else None
    arr = np.abs(physical_rows(g, field.values, symbol=symbol))
    if math.isfinite(q):
        inner = np.trapezoid(arr ** q, field.times, axis=0) ** (1.0 / q)
    else:
        inner = np.max(arr, axis=0)
    if math.isfinite(p):
        return float(np.sum(inner ** p * g.dx) ** (1.0 / p))
    return float(np.max(inner))


# ROW_BLOCK - 3 rows fit in one partial block; 61 and 71 end in a partial
# block and 128 in whole ones for ROW_BLOCK = 32 or 64.
@pytest.mark.parametrize("m", [ROW_BLOCK - 3, 61, 71, 128])
@pytest.mark.parametrize("kind, r, s", [
    ("spacetime_X", 1.9, 0.3), ("spacetime_Y", 1.9, 0.3), ("spacetime_X", 2.0, 0.0),
    ("spacetime_X", 2.0, -0.25),   # q = inf, p = 4
    ("spacetime_X", math.inf, 0.0),  # p = q = inf
    ("spacetime_X", 1.9, preset_s("L", 1.9)),  # p = q = 5.7: summed over x first
])
def test_spacetime_norm_streamed_matches_materialised(m, kind, r, s):
    g = Grid(256, 2 * np.pi * 8, -np.pi * 8)
    rng = np.random.default_rng(m)
    times = np.linspace(-0.5, 1.5, m)
    times[min(ROW_BLOCK, m - 2)] += 0.3 * (times[1] - times[0])  # non-uniform, at a seam
    values = np.exp(-g.nodes() ** 2 / 8.0) * (rng.normal(size=(m, g.n))
                                              + 1j * rng.normal(size=(m, g.n)))
    field = SpaceTimeField(g, times, values)
    spec = NormSpec(kind=kind, r=r, s=s)
    want = materialised_spacetime_norm(field, spec)
    assert spacetime_norm(field, spec) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_spacetime_norm_validation():
    g = Grid(64, 8.0)
    f = gaussian(g)
    empty = SpaceTimeField(g, np.array([]), np.empty((0, g.n)))
    with pytest.raises(ValueError, match="empty field"):
        spacetime_norm(empty, NormSpec.from_preset("S", 1.8))
    single = SpaceTimeField(g, np.array([0.0]), f.values[None, :])
    with pytest.raises(ValueError, match="single-frame"):
        spacetime_norm(single, NormSpec.from_preset("S", 1.8))
    two = SpaceTimeField(g, np.array([0.0, 1.0]), np.array([f.values, f.values]))
    with pytest.raises(ValueError):
        spacetime_norm(two, NormSpec(kind="lhat", r=2.0))


# ---------------------------------------------------------------------------
# physical Morrey and interpolation
# ---------------------------------------------------------------------------

def test_morrey_physical_validation():
    f = gaussian(Grid(128, 16.0, -8.0))
    with pytest.raises(ValueError):
        morrey_physical(f, 1.5, 2.0, 3.0)  # q > p
    with pytest.raises(ValueError):
        morrey_physical(f, 2.0, 2.0, 3.0)  # q == p with finite r
    assert morrey_physical(f, 2.0, 1.5, 3.0) > 0


def test_interpolation_ratio_dilation_invariant():
    g = Grid(512, 16 * np.pi, -8 * np.pi)
    f = gaussian(g)
    base = morrey_interpolation_check(f, 2.0, 1.5, 4.0, 1.8)
    assert math.isfinite(base) and base > 0
    scaled = morrey_interpolation_check(dilate(f, 2.0, 2.0), 2.0, 1.5, 4.0, 1.8)
    assert scaled == pytest.approx(base, rel=1e-10)


def test_interpolation_hypothesis_guard():
    f = gaussian(Grid(128, 16.0, -8.0))
    with pytest.raises(ValueError, match="interpolation hypothesis violated"):
        morrey_interpolation_check(f, 2.0, 1.9, 2.2, 1.0)
    with pytest.raises(ValueError, match="0 < q < p < r"):
        morrey_interpolation_check(f, 2.0, 2.5, 4.0, 1.8)
