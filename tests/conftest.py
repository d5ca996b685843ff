"""Fixtures shared by the test modules."""

import pytest

from qhcalc import a_spaces as asp
from qhcalc import corner_spaces as cs


@pytest.fixture
def cold_engine():
    """Empty the engine's caches before and after the test, so a work
    count reads a cold build whatever ran before, and a patched engine
    leaves no entry behind."""
    caches = (cs._replay, asp.double_space, asp.triple_projection_tables)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()
