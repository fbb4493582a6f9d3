import threading

import pytest

from dlab import grid

ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_RESULTS


@pytest.fixture
def on_helper(monkeypatch):
    """Row blocks on the calling thread and one helper; gives wrap(fn), a
    reduce that runs fn(rows, block) on the helper's blocks only and holds
    the caller's blocks until one of them has run, so the helper takes one."""
    monkeypatch.setattr(grid, "HELPERS", 1)
    ran = threading.Event()

    def wrap(fn):
        def reduce(rows, block):
            if threading.current_thread() is threading.main_thread():
                assert ran.wait(10.0), "no helper thread took a block"
                return None
            try:
                return fn(rows, block)
            finally:
                ran.set()

        return reduce

    return wrap


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
        if not row["passed"]:
            terminalreporter.write_line(f"    failed gates: {row['failed']}")
