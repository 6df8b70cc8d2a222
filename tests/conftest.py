import os

import numpy as np
import pytest

from openrates.systems import (OpenSystem, adic_map, cylinder_union_hole,
                               doubling_map)

# acceptance-criterion verdicts collected by tests/test_acceptance.py,
# printed one line per criterion at the end of the run
ACCEPTANCE_RESULTS = {}


def record_criterion(number, label, passed, detail=""):
    ACCEPTANCE_RESULTS[number] = (label, passed, detail)
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def assert_no_children():
    """Every child process of this one has been reaped: waitpid has none
    left to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def golden_system():
    """Doubling map with the hole [3/4, 1): survivor set is the golden-mean
    subshift."""
    return OpenSystem(doubling_map(), cylinder_union_hole(2, 2, [(1, 1)]))


@pytest.fixture
def triadic_system():
    """3-adic map with the open middle third removed."""
    return OpenSystem(adic_map(3), cylinder_union_hole(3, 1, [(1,)]))


@pytest.fixture(scope="session")
def small_table():
    from openrates.billiard import build_table
    return build_table(validation_rays=50_000)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
