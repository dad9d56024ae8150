"""Test-wide settings: hypothesis draws the same examples on every run, and
tests that run the package in a child process share one environment.

The profile seeds each property test from a hash of its source
(``derandomize``), keeps no example database that could replay an earlier
run's failures first, and sets no deadline, since timings on a loaded
machine say nothing about correctness."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def subprocess_env() -> dict:
    """The environment of a child process: ``src`` first on PYTHONPATH, and
    one BLAS thread, as in the benchmark (report digests are recorded so)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
