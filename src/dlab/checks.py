"""Self-contained verification batteries.

Each check_* function runs one battery and returns _result(name, measured),
which holds the measured values to the battery's gates in GATES, the one
statement of every bound, and lists each gate as {key, relation, bound,
value, passed} beside {"name", "passed", "measured"}.  BATTERIES lists each
battery once, with its acceptance criterion and its `dlab verify` name.
run_battery is the one way to run a battery: it passes the seed to the
batteries that sample, and adds the warnings the battery raised under
"warnings".  `dlab verify` and the acceptance tests both call it, so that a
pass means the same thing in both places.
"""

from __future__ import annotations

import inspect
import math
import operator
import warnings

import numpy as np

from .grid import FOURIER, PHYSICAL, Grid, GridFunction, fourier_multiply
from .norms import (ell, exponents_X, is_acceptable, is_conjugate_acceptable,
                    morrey_norm, preset_s, morrey_interpolation_check)
from .deformations import (Deformation, airy_flow, apply, dilate, galilean_residual,
                           scale_invariance_ratio, translate)
from .evolutions import (SolveConfig, c_alpha, drift, energy, gkdv_solve, mass,
                         nls_solve, soliton_Q, soliton_profile, suggest_dt)
from .embedding import (EmbeddingConfig, embedding_constants,
                        embedding_experiment, fourier_sin_coeff)
from .profiles import (airy_frames, decoupling_check, extract_profile, partition_check,
                       partner_counts, profile_decompose, stein_tomas_ratio,
                       whitney_pairs)


# Each battery's gates by its result name: (measured key, relation, bound); it
# passes when all hold, and a NaN fails every relation.  Plain finite
# literals, since a report holding a NaN or an infinity is refused.
GATES = {
    "exponent calculus": [("preset_dev", "<", 1e-12), ("zero_below_8_5", "==", False),
                          ("zero_above_8_5", "==", True), ("sL_window_agreement", "==", 20)],
    "embedding constants": [("alpha1_constants_dev", "<", 1e-12), ("relation_dev", "<", 1e-12),
                            ("quadrature_dev", "<", 1e-10), ("alpha1_spectrum_dev", "<", 1e-10)],
    "soliton benchmark": [("ode_residual", "<", 1e-6), ("max_rel_l2_error", "<", 1e-5)],
    "zero-energy speed": [("dev", "<", 1e-8), ("max_abs_E", "<", 1e-8), ("c_max", "<", 1.0)],
    "Galilean identity": [("max_residual", "<", 1e-10)],
    "scale lemma": [("ratio_min", ">=", 0.5), ("ratio_max", "<=", 2.0), ("xi0_dev", "<", 1e-10)],
    "Morrey closed form": [("rel_err_fine", "<", 1e-3), ("fine_over_coarse", "<=", 1.0)],
    "decoupling deficit": [("largest_fall", "<=", 1e-9), ("last_deficit", ">=", 0.0)],
    "Whitney decomposition": [("other_counts", "==", []), ("bad", "==", 0)],
    "refined Stein-Tomas": [("battery_max_finite", "==", True), ("battery_max_over_r0", "<=", 3.0),
                            ("invariance_dev", "<", 0.01), ("window_stability", "<", 0.05)],
    "NLS embedding": [("strictly_decreasing", "==", True), ("S_plus_L_variation", "<", 0.25)],
    "profile extraction": [
        ("single_h_exact", "==", True), ("single_xi_close", "==", True),
        ("single_residual_fraction", "<", 0.1), ("pair_profiles", "==", 2),
        ("pair_ells_descending", "==", True), ("pair_signs_opposite", "==", True),
        ("conjugate_profiles", "==", 2), ("conjugate_multiplicities", "==", [2])],
    "solver sanity": [("nls_mass_drift", "<", 1e-10), ("richardson_ratio", ">=", 3.5),
                      ("richardson_ratio", "<=", 4.5), ("airy_limit_error", "<", 1e-10)],
    "Morrey interpolation": [("max_ratio_finite", "==", True), ("max_ratio", ">", 0.0),
                             ("dilation_dev", "<", 1e-6)],
}

_RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _result(name: str, measured: dict) -> dict:
    gates = [{"key": key, "relation": rel, "bound": bound, "value": measured[key],
              "passed": bool(_RELATIONS[rel](measured[key], bound))}
             for key, rel, bound in GATES[name]]
    return {"name": name, "passed": all(g["passed"] for g in gates),
            "measured": measured, "gates": gates}


def check_exponents() -> dict:
    """Preset exponent pairs, and the acceptability windows they live in."""
    measured, devs = {}, []
    for a in (1.7, 1.8, 1.9):
        pS, qS = exponents_X(preset_s("S", a), a)
        pL, qL = exponents_X(preset_s("L", a), a)
        measured[f"alpha={a}"] = {"p_S": pS, "q_S": qS, "p_L": pL, "q_L": qL}
        devs += [abs(pS - 2.5 * a), abs(qS - 5 * a), abs(pL - 3 * a), abs(qL - 3 * a)]
    # acceptability of (0, alpha) flips at alpha = 8/5
    measured["zero_below_8_5"] = is_acceptable(0.0, 8.0 / 5.0 - 1e-6)
    measured["zero_above_8_5"] = is_acceptable(0.0, 8.0 / 5.0 + 1e-6)
    # (s(L), alpha) acceptable and conjugate-acceptable exactly on [5/3, 20/9)
    alphas = np.linspace(1.5, 2.35, 20)
    agree = []
    for a in alphas:
        s = preset_s("L", float(a))
        got = is_acceptable(s, float(a)) and is_conjugate_acceptable(s, float(a))
        want = (5.0 / 3.0 <= a < 20.0 / 9.0)
        agree.append(got == want)
    measured["sL_window_agreement"] = int(sum(agree))
    measured["preset_dev"] = float(np.max(devs))
    return _result("exponent calculus", measured)


def check_constants() -> dict:
    """Closed-form coupling constants against quadrature."""
    c0, c1 = embedding_constants(1.0)
    rel_dev = quad_dev = 0.0
    for a in np.linspace(1.0, 2.0, 11):
        ca0, ca1 = embedding_constants(float(a))
        rel_dev = max(rel_dev, abs(ca1 - 3.0 * ca0 / (2.0 * a + 1.0)))
        quad_dev = max(quad_dev, abs(ca1 - fourier_sin_coeff(float(a), 1)))
    spectrum = [fourier_sin_coeff(1.0, k) for k in range(1, 9)]
    # at alpha = 1: C0 = C1 = 1/4, the sine coefficients at k = 1 and 3, and no other
    want = [0.25, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0]
    return _result("embedding constants", {
        "C0_alpha1": c0, "C1_alpha1": c1, "relation_dev": rel_dev, "quadrature_dev": quad_dev,
        "alpha1_spectrum": spectrum,
        "alpha1_constants_dev": float(np.max(np.abs(np.subtract([c0, c1], 0.25)))),
        "alpha1_spectrum_dev": float(np.max(np.abs(np.subtract(spectrum, want))))})


def check_soliton() -> dict:
    """Ground-state ODE residual and traveling-wave propagation."""
    grid = Grid(512, 40.0 * math.pi, -20.0 * math.pi)
    x = grid.nodes()
    alpha = 1.0
    q = soliton_profile(alpha, x)
    xi = grid.frequencies()
    qxx = fourier_multiply(GridFunction(grid, q.astype(complex), PHYSICAL),
                           (1j * xi) ** 2).values.real
    residual = float(np.max(np.abs(-qxx + q - q ** (2 * alpha + 1))))

    u0 = soliton_Q(alpha, grid, c=1.0)
    dt = suggest_dt(grid)
    run = gkdv_solve(u0, SolveConfig(alpha=alpha, mu=-1, t_end=0.5, dt=dt, store_every=50))
    exact = soliton_profile(alpha, x - run.times[:, None])
    err = float(np.sqrt(np.max(mass(grid, run.values - exact) / mass(grid, exact))))
    return _result("soliton benchmark",
                   {"ode_residual": residual, "dt": dt, "max_rel_l2_error": err})


def check_c_alpha() -> dict:
    """Zero-energy speed values and the energy zero they induce."""
    c1 = c_alpha(1.0)
    measured = {"c_1": c1, "dev": abs(c1 - math.sqrt(0.5))}
    grid = Grid(2048, 80.0, -40.0)
    x = grid.nodes()
    speeds = {a: c_alpha(a) for a in (1.0, 1.85, 1.95)}
    for a, c in speeds.items():
        measured[f"E_alpha={a}"] = energy(grid, c * soliton_profile(a, x), a, mu=-1)
    measured["max_abs_E"] = float(np.max(np.abs([measured[f"E_alpha={a}"] for a in speeds])))
    measured["c_max"] = float(np.max(list(speeds.values())))
    return _result("zero-energy speed", measured)


def check_galilean(seed: int) -> dict:
    """Exact commutation of the Airy flow with lattice modulations."""
    grid = Grid(1024, 16.0 * math.pi, -8.0 * math.pi)
    x = grid.nodes()
    f = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        xi0 = float(rng.integers(1, 65)) * grid.dxi
        t = float(rng.uniform(-0.2, 0.2))
        worst = max(worst, galilean_residual(f, xi0, t))
    return _result("Galilean identity", {"max_residual": worst})


def check_scale_lemma(seed: int) -> dict:
    """Morrey-norm quasi-invariance under the deformation group."""
    alpha, sigma = 1.8, 3.0
    grid = Grid(1024, 16.0 * math.pi, -8.0 * math.pi)
    xi = grid.frequencies()
    rng = np.random.default_rng(seed)

    def rand_f():
        c = rng.uniform(-20, 20)
        w = rng.uniform(0.5, 4.0)
        chirp = rng.uniform(-1, 1)
        return GridFunction(grid, np.exp(-((xi - c) / w) ** 2 + 1j * chirp * xi)
                            .astype(complex), FOURIER)

    lo, hi = np.inf, 0.0
    for _ in range(200):
        gam = Deformation(int(rng.integers(-2, 3)),
                          xi=float(rng.integers(-256, 257)) * grid.dxi,
                          s=float(rng.uniform(-0.5, 0.5)),
                          y=float(rng.uniform(-5, 5)))
        ratio = scale_invariance_ratio(rand_f(), gam, alpha, 2.0, sigma)
        lo, hi = min(lo, ratio), max(hi, ratio)
    dev0 = 0.0
    for _ in range(50):
        gam = Deformation(int(rng.integers(-2, 3)), xi=0.0,
                          s=float(rng.uniform(-0.5, 0.5)),
                          y=float(rng.uniform(-5, 5)))
        dev0 = max(dev0, abs(scale_invariance_ratio(rand_f(), gam,
                                                    alpha, 2.0, sigma) - 1.0))
    return _result("scale lemma", {"ratio_min": lo, "ratio_max": hi, "xi0_dev": dev0})


def _indicator_oracle(alpha: float, sigma: float) -> float:
    """Bi-infinite dyadic sum for fhat = 1_[0,1) in Mhat^alpha_{2,sigma}.

    Scales 2^-m inside the support contribute 2^(-m sigma (1/alpha - 1/2));
    scales 2^j above it contribute 2^(j (1 + sigma (1/alpha - 1))).
    """
    fine = 1.0 / (1.0 - 2.0 ** (-sigma * (1.0 / alpha - 0.5)))
    e = 1.0 + sigma * (1.0 / alpha - 1.0)
    coarse = 2.0 ** e / (1.0 - 2.0 ** e)
    return (fine + coarse) ** (1.0 / sigma)


def check_morrey_closed_form() -> dict:
    """Indicator-data Morrey norm against the geometric-series value."""
    alpha, sigma = 1.6, 3.0
    oracle = _indicator_oracle(alpha, sigma)

    def rel_err(n, m):
        grid = Grid(n, 2.0 * math.pi * 2 ** m, -math.pi * 2 ** m)
        xi = grid.frequencies()
        vals = ((xi >= -1e-12) & (xi < 1.0 - 1e-12)).astype(complex)
        got = morrey_norm(GridFunction(grid, vals, FOURIER), alpha, 2.0, sigma)
        return abs(got - oracle) / oracle

    coarse = rel_err(1024, 5)
    fine = rel_err(4096, 7)
    return _result("Morrey closed form",
                   {"oracle": oracle, "rel_err_coarse": coarse, "rel_err_fine": fine,
                    "fine_over_coarse": fine / max(coarse, 1e-10)})


def check_decoupling() -> dict:
    """Planted divergent-modulation battery for the deficit trend."""
    alpha, sigma = 1.8, 3.0
    grid = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = grid.frequencies()

    def bump(amp):
        v = np.where((xi >= 0.5 - 24.0) & (xi < 0.5 + 24.0),
                     amp * np.exp(-(xi - 0.5) ** 2 * 8.0 / 48.0 ** 2), 0.0)
        return GridFunction(grid, v.astype(complex), FOURIER)

    psi_a, psi_b = bump(1.0), bump(-0.8)
    ns = [8, 16, 32, 64]
    u_list = [psi_a + apply(Deformation(0, xi=-float(n)), psi_b, d_exponent=alpha)
              for n in ns]
    rows = decoupling_check(u_list, psi_a, [Deformation(0)] * len(ns), gamma=1.1,
                            xi0=0.0, alpha=alpha, sigma=sigma)
    deficits = [r["deficit"] for r in rows]
    return _result("decoupling deficit",
                   {"n": ns, "deficits": deficits,
                    "largest_fall": float(np.max(np.subtract(deficits[:-1], deficits[1:]))),
                    "last_deficit": deficits[-1]})


def check_whitney(seed: int) -> dict:
    """Pair counts and the off-diagonal partition of unity."""
    pairs = whitney_pairs(-3, 2, 16.0)
    count_sets = {}
    for j in range(-3, 3):
        k_hi = int(math.ceil(16.0 / 2.0 ** j))
        count_sets[j] = sorted(set(partner_counts(pairs, j, k_hi - 5).values()))
    rng = np.random.default_rng(seed)
    counted, bad = 0, 0
    while counted < 10_000:
        samples = rng.uniform(-8.0, 8.0, size=(4096, 2))
        res = partition_check(pairs, samples)
        counted += res["counted"]
        bad += res["bad"]
    # an interval away from the edges has 2, 4 or 6 partners
    other = sorted(set().union(*count_sets.values()) - {2, 4, 6})
    return _result("Whitney decomposition",
                   {"pairs": len(pairs), "count_sets": count_sets,
                    "samples": counted, "bad": bad, "other_counts": other})


def check_stein_tomas(seed: int) -> dict:
    """Ratio battery, deformation invariance, and window stability."""
    alpha, sigma = 1.8, 3.0
    grid = Grid(4096, 2.0 * math.pi * 2 ** 8, -math.pi * 2 ** 8)
    xi = grid.frequencies()
    x = grid.nodes()
    f0 = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    r0 = stein_tomas_ratio(f0, alpha, sigma, 16.0, nt=513)

    r_t = stein_tomas_ratio(translate(f0, 2.3), alpha, sigma, 16.0, nt=513)
    r_a = stein_tomas_ratio(airy_flow(f0, 0.5), alpha, sigma, 16.0, nt=513)
    f_d = apply(Deformation(1), f0, d_exponent=alpha)
    r_d = stein_tomas_ratio(f_d, alpha, sigma, 16.0 / 8.0, nt=513)
    inv = max(abs(r_t / r0 - 1), abs(r_a / r0 - 1), abs(r_d / r0 - 1))

    r_wide = stein_tomas_ratio(f0, alpha, sigma, 32.0, nt=1025)
    stability = abs(r_wide / r0 - 1)

    rng = np.random.default_rng(seed)
    band = (np.abs(xi) >= 1.0) & (np.abs(xi) <= 8.0)
    envelope = np.exp(-(x / 4.0) ** 2)
    worst = 0.0
    for _ in range(50):
        coef = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n))
        coef *= band * np.exp(-xi ** 2 / 64.0)
        noise = GridFunction(grid, coef.astype(complex), FOURIER).to_physical()
        f = GridFunction(grid, noise.values * envelope, PHYSICAL)
        worst = max(worst, stein_tomas_ratio(f, alpha, sigma, 24.0, nt=769))
    return _result("refined Stein-Tomas",
                   {"gaussian_ratio": r0, "battery_max": worst,
                    "invariance_dev": inv, "window_stability": stability,
                    "battery_max_finite": math.isfinite(worst),
                    "battery_max_over_r0": worst / r0})


def embedding_measures(rows: list[dict]) -> dict:
    """Criterion 11's gated values over the rows of an embedding sweep."""
    errs = [r["err_lhat_alpha"] for r in rows]
    sl = [r["norm_S"] + r["norm_L"] for r in rows]
    return {"strictly_decreasing": all(b < a for a, b in zip(errs, errs[1:])),
            "S_plus_L_variation": (max(sl) - min(sl)) / min(sl)}


def check_embedding() -> dict:
    """Carrier-frequency sweep: seam error decay and norm uniformity."""
    grid = Grid(1024, 8.0 * math.pi, -4.0 * math.pi)
    x = grid.nodes()
    phi = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    cfg = EmbeddingConfig(alpha=1.9, phi=phi, xi_list=(8.0, 16.0, 32.0, 64.0),
                          T=1.0, nls_dt=1e-3)
    rows = embedding_experiment(cfg)
    return _result("NLS embedding", {"rows": rows, **embedding_measures(rows)})


def check_profiles() -> dict:
    """Planted extraction batteries: parameters, ordering, conjugates."""
    alpha, sigma = 1.8, 3.0
    grid = Grid(2048, 2.0 * math.pi * 2 ** 4, -math.pi * 2 ** 4)
    xi = grid.frequencies()

    def bump(center, width, amp):
        v = np.where((xi >= center - width / 2 - 1e-12)
                     & (xi < center + width / 2 - 1e-12),
                     amp * np.exp(-(xi - center) ** 2 * 8.0 / width ** 2), 0.0)
        return GridFunction(grid, v.astype(complex), FOURIER)

    # single planted profile
    psi_star = bump(0.5, 1.0, 1.0)
    planted = [Deformation(2, xi=float(n), s=0.1, y=1.0) for n in (2, 3, 5, 8)]
    u_list = [apply(g, psi_star, d_exponent=alpha) for g in planted]
    _, rec, res, _ = extract_profile(u_list, alpha, t_scan=0.05)
    h_exact = all(r.log2_h == p.log2_h for r, p in zip(rec, planted))
    xi_close = all(abs(r.xi - p.xi) <= u_list[0].grid.dxi
                   for r, p in zip(rec, planted))
    res_frac = max(morrey_norm(r, alpha, 2.0, sigma)
                   / morrey_norm(u, alpha, 2.0, sigma)
                   for r, u in zip(res, u_list))
    measured = {"single": {"h_exact": h_exact, "xi_close": xi_close,
                           "residual_fraction": res_frac}}

    # two nonresonant profiles, extracted in descending ell order
    psi1, psi2 = bump(0.5, 1.0, 2.0), bump(0.5, 1.0, 1.0)
    u2 = [apply(Deformation(0, xi=float(n)), psi1, d_exponent=alpha)
          + apply(Deformation(0, xi=-float(n), s=0.02, y=3.0), psi2,
                  d_exponent=alpha)
          for n in (8, 16, 32, 48)]
    dec = profile_decompose(u2, alpha, sigma, j_max=2, eps_stop=1e-4,
                            t_scan=0.05)
    ells = [ell(p, alpha, sigma)[0] for p, _ in dec.profiles]
    signs = [np.sign(dec.profiles[0][1][-1].xi), np.sign(dec.profiles[1][1][-1].xi)]
    measured["pair"] = {"ells": ells, "lead_xi_signs": signs}

    # real carrier input: conjugate bands merge with multiplicity 2
    xg = grid.nodes()
    phi = np.exp(-xg ** 2)
    u3 = [GridFunction(grid,
                       (np.exp(-1j * xg * n) * phi).real.astype(complex),
                       PHYSICAL) for n in (16.0, 32.0, 48.0)]
    dec3 = profile_decompose(u3, alpha, sigma, j_max=2, eps_stop=1e-4,
                             t_scan=0.05)
    entries = dec3.diagnostics["ledger_entries"]
    measured["conjugate"] = {"profiles": len(dec3.profiles), "ledger": entries}
    measured.update(
        single_h_exact=h_exact, single_xi_close=xi_close, single_residual_fraction=res_frac,
        pair_profiles=len(ells), pair_ells_descending=bool(ells[0] >= ells[1]),
        pair_signs_opposite=bool(signs[0] > 0 > signs[1]),
        conjugate_profiles=len(dec3.profiles),
        conjugate_multiplicities=[e["c"] for e in entries])
    return _result("profile extraction", measured)


def check_solver_sanity() -> dict:
    """Mass conservation, dt convergence order, and the linear limit."""
    grid = Grid(256, 16.0 * math.pi, -8.0 * math.pi)
    x = grid.nodes()
    u0 = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    # NLS mass drift over a unit of time
    run = nls_solve(u0, SolveConfig(alpha=2.0, mu=-1, t_end=1.0, dt=1e-3, store_every=200))
    mass_drift = drift(mass(grid, run.values))

    # Richardson order check against a much finer reference
    def final(dt):
        cfg = SolveConfig(alpha=2.0, mu=-1, t_end=0.5, dt=dt,
                          store_every=10 ** 9)
        return GridFunction(grid, nls_solve(u0, cfg).values[-1])
    ref = final(1.25e-4)
    e_coarse = (final(2e-3) - ref).l2_norm()
    e_fine = (final(1e-3) - ref).l2_norm()

    # mu-free gKdV against the exact Airy group
    cfg = SolveConfig(alpha=2.0, mu=-1, coupling=0.0, t_end=0.5, dt=1e-3,
                      store_every=100)
    lin = gkdv_solve(u0, cfg)
    airy_err = float(np.max(np.abs(lin.values - airy_frames(u0, lin.times, 0.0))))
    return _result("solver sanity", {"nls_mass_drift": mass_drift,
                                     "richardson_ratio": e_coarse / e_fine,
                                     "airy_limit_error": airy_err})


def check_interpolation(seed: int) -> dict:
    """Physical-side Morrey interpolation ratio on a random battery."""
    grid = Grid(1024, 16.0 * math.pi, -8.0 * math.pi)
    xi = grid.frequencies()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        band = np.abs(xi) <= rng.uniform(2.0, 8.0)
        coef = (rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)) * band
        coef *= np.exp(-xi ** 2 / 32.0)
        f = GridFunction(grid, coef.astype(complex), FOURIER).to_physical()
        worst = max(worst, morrey_interpolation_check(f, p=2.0, q=1.5,
                                                      r=4.0, s=1.8))
    # dilation invariance of the ratio
    x = grid.nodes()
    f = GridFunction(grid, np.exp(-x ** 2).astype(complex), PHYSICAL)
    base = morrey_interpolation_check(f, p=2.0, q=1.5, r=4.0, s=1.8)
    dil = morrey_interpolation_check(dilate(f, 2.0, 2.0), p=2.0, q=1.5,
                                     r=4.0, s=1.8)
    dev = abs(dil / base - 1.0)
    return _result("Morrey interpolation",
                   {"max_ratio": worst, "dilation_dev": dev,
                    "max_ratio_finite": math.isfinite(worst)})


# (acceptance criterion or None, `dlab verify` name, battery)
BATTERIES = [
    ("1", "exponents", check_exponents),
    ("2", "constants", check_constants),
    ("3", "soliton", check_soliton),
    ("4", "c-alpha", check_c_alpha),
    ("5", "galilean", check_galilean),
    ("6", "scale-lemma", check_scale_lemma),
    ("7", "morrey-closed-form", check_morrey_closed_form),
    ("8", "decoupling", check_decoupling),
    ("9", "whitney", check_whitney),
    ("10", "stein-tomas", check_stein_tomas),
    ("11", "embedding", check_embedding),
    ("12", "profiles", check_profiles),
    ("13", "solver-sanity", check_solver_sanity),
    (None, "interpolation", check_interpolation),
]


def run_battery(fn, seed: int) -> dict:
    """Run one battery of BATTERIES, passing `seed` if it samples; the warnings
    it raised go under "warnings" as warnings.WarningMessage objects."""
    kwargs = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
    with warnings.catch_warnings(record=True) as caught:
        result = fn(**kwargs)
    result["warnings"] = caught
    return result
