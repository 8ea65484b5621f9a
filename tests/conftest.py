"""Shared fixtures for the test suite."""

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
