"""Test-wide settings: hypothesis draws the same examples on every run.

The profile seeds each property test from a hash of its source
(``derandomize``), keeps no example database that could replay an earlier
run's failures first, and sets no deadline, since timings on a loaded
machine say nothing about correctness."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
