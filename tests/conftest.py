"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from gammaprod import enumerate_identities


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


@pytest.fixture(scope="session")
def coset_of_1000003():
    """The record of 1000003's one coset, 1,000,002 elements, built once and held.

    tracemalloc counts only blocks allocated while it traces, so a held record
    enters no traced peak.
    """
    (identity,) = enumerate_identities(1000003)
    return identity
