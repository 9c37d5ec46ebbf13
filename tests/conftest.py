import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    config.addinivalue_line("markers", "fuzz: long randomized containment sweeps")


@pytest.fixture(scope="session")
def containment_fuzz_violations():
    """The seeded 10^5-trial jet containment sweep, run once per session
    and shared by test_jets and the acceptance gate."""
    from test_jets import containment_sweep

    return containment_sweep()
