"""Test-wide settings.

Property tests run derandomized, with no per-example deadline and no
example database, so a run is repeatable and a slow machine cannot fail it.
Every test must reap each process it starts, the forked CSV readers and
the CLI's processes included: a test that leaves a child fails.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
