"""Fixtures and options for every test of the repository, in tests/ and
perfbench/tests."""

import sys

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--replay-stride", type=int, default=50, metavar="N",
        help="replay every N-th item of each benchmark pool in "
             "tests/test_reference_outputs.py (default 50; 1 replays all)")


@pytest.fixture(autouse=True)
def cold_analysis_table():
    """Every test starts with an empty analysis table (matrices._ANALYSES),
    so no test reads an analysis that an earlier test or a module-scoped
    fixture computed, and call counts stay per test.  Before the library is
    imported there is no table to empty."""
    matrices = sys.modules.get("monoheight.matrices")
    if matrices is not None:
        matrices._ANALYSES.clear()
