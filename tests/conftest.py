import pytest

ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    # numbered criteria first, then the batteries without a criterion
    for row in sorted(ACCEPTANCE_RESULTS,
                      key=lambda r: (r["criterion"] is None, int(r["criterion"] or 0))):
        verdict = "PASS" if row["passed"] else "FAIL"
        label = "battery" if row["criterion"] is None else f"criterion {row['criterion']:>2}"
        plural = "" if row["warnings"] == 1 else "s"
        terminalreporter.write_line(f"{label} {row['name']}: {verdict} ({row['seconds']:.1f} s, "
                                    f"{row['warnings']} warning{plural})")
