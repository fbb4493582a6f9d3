"""End-to-end verification batteries, one test case per battery.

One test body runs every row of checks.BATTERIES through
checks.run_battery at seed 0, as `dlab verify` does, asserts that the
battery passed at its built-in tolerances, and records the outcome and
the number of warnings the battery raised for the one-line per-battery
summary printed at the end of the session.  Each case is bound under its
own test name: test_criterion_<NN>_<topic> for a numbered criterion,
test_battery_<verify name> for a row without one.
"""

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
        acceptance_log.append({
            "criterion": label,
            "name": res["name"],
            "passed": res["passed"],
            "seconds": time.perf_counter() - t0,
            "warnings": len(res["warnings"]),
        })
        assert res["passed"], res["measured"]

    test.__name__ = (f"test_battery_{verify_name}" if label is None
                     else f"test_criterion_{int(label):02d}_{TOPICS[label]}")
    return test


for _label, _verify_name, _battery in checks.BATTERIES:
    _test = _battery_test(_label, _verify_name, _battery)
    globals()[_test.__name__] = _test
del _label, _verify_name, _battery, _test
