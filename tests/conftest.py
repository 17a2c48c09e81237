import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite is deterministic.  Hypothesis still caches the
# constants it reads from local sources; that cache goes to a temporary
# directory removed at the end of the session instead of a .hypothesis/
# directory in the tree.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="curv4-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_ACCEPTANCE_RESULTS: dict[int, dict] = {}


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and report.when == "call":
        _ACCEPTANCE_RESULTS[marker.kwargs["criterion"]] = {
            "summary": marker.kwargs["summary"],
            "passed": report.passed,
        }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE_RESULTS):
        info = _ACCEPTANCE_RESULTS[criterion]
        status = "PASS" if info["passed"] else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {status} - {info['summary']}")
