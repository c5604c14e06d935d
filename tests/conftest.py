"""Suite-wide hooks: a fixed wall-clock budget for every test."""

import pytest

#: Budget for one test's call phase, in seconds.  The slowest test takes
#: a few seconds; one far past this belongs in the benchmarks.
CALL_BUDGET_S = 60.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if call.when == "call" and report.passed and call.duration > CALL_BUDGET_S:
        report.outcome = "failed"
        report.longrepr = (
            f"call phase took {call.duration:.1f}s, over the "
            f"{CALL_BUDGET_S:.0f}s per-test budget (tests/conftest.py)"
        )
    return report
