"""Shared fixtures: a private matrix cache, and acceptance-criterion reporting.

Each acceptance test reports one line; the lines are echoed in a terminal
summary section so a full run always shows every criterion verdict.
"""

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def private_matrix_cache(tmp_path_factory):
    """Point read_matrix's cache at a fresh directory, so no test reads or
    writes the user's cache or sees another test's entries.

    It has a MonkeyPatch of its own, which a test's monkeypatch.undo() leaves
    in place.
    """
    cache_home = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(cache_home))
        yield cache_home / "artifact" / "matrices"


@pytest.fixture
def criterion_report():
    def report(number, passed, detail):
        line = "[%s] criterion %d: %s" % ("PASS" if passed else "FAIL", number, detail)
        print(line)
        ACCEPTANCE_LINES.append(line)
        return passed

    return report


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
