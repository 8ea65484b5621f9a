"""Shared fixtures for the test suite."""

import contextlib
import signal

import pytest

from sqcolor.generate import GeneratorSpec, enumerate_class


@pytest.fixture(scope="session")
def corpus12():
    """Every connected member of the class with at most 12 vertices."""
    return list(enumerate_class(GeneratorSpec(max_n=12, min_girth=6)))


@pytest.fixture(scope="session")
def corpus8():
    """Every connected member of the class with at most 8 vertices."""
    return list(enumerate_class(GeneratorSpec(max_n=8, min_girth=6)))


@pytest.fixture(scope="session")
def subcubic9():
    """Every subcubic planar graph of girth >= 3 with at most 9 vertices,
    connected or not."""
    return list(enumerate_class(GeneratorSpec(max_n=9, min_girth=3, connectivity=False)))


@contextlib.contextmanager
def _within_cpu(seconds, what):
    def out_of_time(*args):
        raise TimeoutError(f"{what} took more than {seconds} s of CPU")

    previous = signal.signal(signal.SIGPROF, out_of_time)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.fixture
def cpu_bound():
    """`with cpu_bound(seconds, what):` raises TimeoutError inside the
    block once the process has spent that much CPU time in it, so a
    regression to a slow algorithm fails the test instead of hanging it."""
    return _within_cpu
