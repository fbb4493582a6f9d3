import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlab.grid import (FOURIER, ROW_BLOCK, Grid, GridFunction, SpaceTimeField, derivative_symbol,
                       physical_rows)
from dlab.norms import (NormSpec, _dyadic_aggregate, _fourier_cells, _physical_cells,
                        conjugate_exponent, ell, exponents_X,
                        exponents_Y, is_acceptable, is_conjugate_acceptable,
                        lhat_norm, morrey_interpolation_check, morrey_norm,
                        morrey_physical, preset_s, sigma_range, spacetime_norm)
from dlab.deformations import dilate


def gaussian(grid: Grid) -> GridFunction:
    x = grid.nodes()
    return GridFunction(grid, np.exp(-x ** 2 / 2.0).astype(complex))


def random_band(grid: Grid, seed: int, band: float = 4.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    xi = grid.frequencies()
    vals = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
    vals *= np.exp(-xi ** 2 / 32.0) * (np.abs(xi) <= band)
    return GridFunction(grid, vals, FOURIER)


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
    from dlab.deformations import Deformation, apply
    alpha, sigma = 1.8, 3.0
    g = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = g.frequencies()
    v = np.where((xi >= -1e-12) & (xi < 1.0 - 1e-12), np.exp(-(xi - 0.5) ** 2 * 8.0), 0.0)
    psi = GridFunction(g, v.astype(complex), FOURIER)
    for n in (2, 3, 5, 8):
        u = apply(Deformation(2, xi=float(n), s=0.1, y=1.0), psi, d_exponent=alpha)
        value, xi0 = ell(u, alpha, sigma)
        assert morrey_norm(u, alpha, 2.0, sigma, offset=xi0) == pytest.approx(
            value, rel=1e-12)


def test_sigma_range_values():
    lo, hi = sigma_range(1.8)
    assert lo == pytest.approx(1.8 / 0.8)
    assert hi == pytest.approx(6 * 1.8 / (3 * 1.8 - 2))


# ---------------------------------------------------------------------------
# batched dyadic aggregation
# ---------------------------------------------------------------------------

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
    batched = _dyadic_aggregate(vals, edges, offsets=offsets, **kw)
    single = np.array([_dyadic_aggregate(vals, edges, offsets=[x], **kw)[0] for x in offsets])
    assert batched.shape == offsets.shape
    assert np.all(np.isfinite(single)) and np.all(single > 0)
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("half", ["j_min=-2", "j_max=4"])
def test_norm_spec_rejects_half_a_window(half):
    # a lone bound used to drop the window while serialize still printed it
    with pytest.raises(ValueError, match="^a norm window needs both j_min and j_max$"):
        NormSpec.parse(f"kind=morrey_hat,p=1.8,q=2.0,r=3.0,{half}")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["lhat", "morrey_hat", "ell"]),
       st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
       st.integers(min_value=-9, max_value=9))
def test_norm_spec_round_trip_property(kind, r, j):
    spec = NormSpec(kind=kind, p=1.8, q=2.0, r=r, sigma=3.0,
                    j_min=j, j_max=j + 3)
    assert NormSpec.parse(spec.serialize()) == spec


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
