"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(run, *args):
    """run(*args) and its tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        result = run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """_traced_peak: a call's result and the tracemalloc peak it reached, in bytes."""
    return _traced_peak
