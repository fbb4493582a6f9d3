"""End-to-end verification batteries, one test case per battery.

One test body runs every row of checks.BATTERIES through
checks.run_battery at seed 0, as `dlab verify` does, asserts that the
battery passed its gates in checks.GATES, naming the gates it failed, and
records the outcome and the number of warnings the battery raised for the
one-line per-battery summary printed at the end of the session.  Each case
is bound under its own test name: test_criterion_<NN>_<topic> for a
numbered criterion, test_battery_<verify name> for a row without one.
test_gates_hold_todays_bounds pins checks.GATES without running a battery.
"""

import math
import time

from dlab import checks

TOPICS = {
    "1": "exponent_calculus",
    "2": "coupling_constants",
    "3": "soliton_benchmark",
    "4": "zero_energy_speed",
    "5": "galilean_identity",
    "6": "scale_invariance",
    "7": "morrey_closed_form",
    "8": "decoupling_deficit",
    "9": "whitney_partition",
    "10": "restriction_ratio",
    "11": "carrier_embedding",
    "12": "profile_extraction",
    "13": "solver_sanity",
}


def _battery_test(label: str | None, verify_name: str, battery):
    def test(acceptance_log):
        t0 = time.perf_counter()
        res = checks.run_battery(battery, seed=0)
        failed = "; ".join(f"{g['key']} = {g['value']!r}, not {g['relation']} {g['bound']!r}"
                           for g in res["gates"] if not g["passed"])
        acceptance_log.append({
            "criterion": label,
            "name": res["name"],
            "passed": res["passed"],
            "failed": failed,
            "seconds": time.perf_counter() - t0,
            "warnings": len(res["warnings"]),
        })
        assert res["passed"], f"{res['name']} failed its gates: {failed}"

    test.__name__ = (f"test_battery_{verify_name}" if label is None
                     else f"test_criterion_{int(label):02d}_{TOPICS[label]}")
    return test


for _label, _verify_name, _battery in checks.BATTERIES:
    _test = _battery_test(_label, _verify_name, _battery)
    globals()[_test.__name__] = _test
del _label, _verify_name, _battery, _test


def test_gates_hold_todays_bounds():
    # a literal copy of every battery's bounds; a gate changes here on purpose or not at all
    assert checks.GATES == {
        "exponent calculus": [("preset_dev", "<", 1e-12), ("zero_below_8_5", "==", False),
                              ("zero_above_8_5", "==", True),
                              ("sL_window_agreement", "==", 20)],
        "embedding constants": [("alpha1_constants_dev", "<", 1e-12),
                                ("relation_dev", "<", 1e-12), ("quadrature_dev", "<", 1e-10),
                                ("alpha1_spectrum_dev", "<", 1e-10)],
        "soliton benchmark": [("ode_residual", "<", 1e-6), ("max_rel_l2_error", "<", 1e-5)],
        "zero-energy speed": [("dev", "<", 1e-8), ("max_abs_E", "<", 1e-8), ("c_max", "<", 1.0)],
        "Galilean identity": [("max_residual", "<", 1e-10)],
        "scale lemma": [("ratio_min", ">=", 0.5), ("ratio_max", "<=", 2.0),
                        ("xi0_dev", "<", 1e-10)],
        "Morrey closed form": [("rel_err_fine", "<", 1e-3), ("fine_over_coarse", "<=", 1.0)],
        "decoupling deficit": [("largest_fall", "<=", 1e-9), ("last_deficit", ">=", 0.0)],
        "Whitney decomposition": [("other_counts", "==", []), ("bad", "==", 0)],
        "refined Stein-Tomas": [("battery_max_finite", "==", True),
                                ("battery_max_over_r0", "<=", 3.0),
                                ("invariance_dev", "<", 0.01), ("window_stability", "<", 0.05)],
        "NLS embedding": [("strictly_decreasing", "==", True),
                          ("S_plus_L_variation", "<", 0.25)],
        "profile extraction": [("single_h_exact", "==", True), ("single_xi_close", "==", True),
                               ("single_residual_fraction", "<", 0.1),
                               ("pair_profiles", "==", 2), ("pair_ells_descending", "==", True),
                               ("pair_signs_opposite", "==", True),
                               ("conjugate_profiles", "==", 2),
                               ("conjugate_multiplicities", "==", [2])],
        "solver sanity": [("nls_mass_drift", "<", 1e-10), ("richardson_ratio", ">=", 3.5),
                          ("richardson_ratio", "<=", 4.5), ("airy_limit_error", "<", 1e-10)],
        "Morrey interpolation": [("max_ratio_finite", "==", True), ("max_ratio", ">", 0.0),
                                 ("dilation_dev", "<", 1e-6)],
    }
    # one entry per battery, and every bound a finite JSON value
    assert len(checks.GATES) == len(checks.BATTERIES)
    for gates in checks.GATES.values():
        for _, relation, bound in gates:
            assert relation in ("<", "<=", "==", ">=", ">")
            assert not isinstance(bound, float) or math.isfinite(bound)


def test_a_nan_fails_every_relation(monkeypatch):
    relations = ("<", "<=", "==", ">=", ">")
    monkeypatch.setitem(checks.GATES, "probe", [("x", rel, 1.0) for rel in relations])
    res = checks._result("probe", {"x": math.nan})
    assert res["passed"] is False
    assert [g["passed"] for g in res["gates"]] == [False] * len(relations)
