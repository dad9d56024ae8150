"""Count the LAPACK calls of one verify battery, per numpy.linalg entry point.

The count does not vary between runs, unlike wall time, so it is the
repeatable measure of the decompositions a change adds or removes.  The
script sets one BLAS thread before numpy loads and pins its own process to
one CPU, so every check of the battery runs in this process (a forked
worker would take its share of the calls with it).  It prints the total,
then one line per entry point, largest count first, then one line per
registry check in registry order: its id, its total and each entry point
it calls with the count.  The check lines sum to the totals.

Run from the repository root (about 1 s, or 3 s with ``--large-n``)::

    PYTHONPATH=src python3 scripts/lapack_counts.py [--large-n | --means]

Both battery runs use seed 1.  ``--large-n`` runs the configuration of
``spdmeans verify --dims 40,64 --trials 20 --limit-trials 5``.  ``--means``
instead counts one call of each public mean function on a seeded 4 x 4
pair, the path the ``means_calls`` benchmark times, and prints one line per
function: its name, then each entry point it calls with the count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads BLAS

import argparse  # noqa: E402

import numpy as np  # noqa: E402

from spdmeans import (g_factor, mat_power, metric_mean, sample_pd, similarity_witness,  # noqa: E402
                      spectral_mean)
from spdmeans import suite  # noqa: E402

ENTRY_POINTS = ("eigh", "svd", "eigvalsh", "qr", "det", "solve", "eigvals")
LARGE_N = {"dims": (40, 64), "trials": 20, "limit_trials": 5}
MEANS = (metric_mean, spectral_mean, g_factor, similarity_witness)


def lapack_counts(run, *args) -> tuple[object, dict[str, int]]:
    """``run(*args)`` and the calls of each entry point it made in this process."""
    counts = dict.fromkeys(ENTRY_POINTS, 0)
    originals = {name: getattr(np.linalg, name) for name in ENTRY_POINTS}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    try:
        for name, fn in originals.items():
            setattr(np.linalg, name, counted(name, fn))
        value = run(*args)
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
    return value, counts


def battery_counts(cfg) -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """The counts of one ``run_suite(cfg)``, in all and per registry check id."""
    per_check, check_rows = {}, suite._check_rows

    def counted_rows(cfg, idx):
        rows, per_check[suite._REGISTRY[idx].check_id] = lapack_counts(check_rows, cfg, idx)
        return rows
    try:
        suite._check_rows = counted_rows
        return lapack_counts(suite.run_suite, cfg)[1], per_check
    finally:
        suite._check_rows = check_rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--large-n", action="store_true", help="dims 40,64, 20 and 5 trials")
    runs.add_argument("--means", action="store_true", help="one call of each public mean")
    args = parser.parse_args()
    if args.means:
        A, B = sample_pd(4, 1, 100.0), sample_pd(4, 2, 100.0)   # drawn outside the count
        for fn, fn_args in [*((mean, (A, B, 0.3)) for mean in MEANS), (mat_power, (A, 0.3))]:
            counts = lapack_counts(fn, *fn_args)[1]
            print(fn.__name__, *(f"{name} {c}" for name, c in counts.items() if c))
        return
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg = suite.SuiteConfig.from_dict({**(LARGE_N if args.large_n else {}), "seed": 1})
    counts, per_check = battery_counts(cfg)
    print(f"total {sum(counts.values())}")
    order = sorted(counts, key=lambda name: -counts[name])
    for name in order:
        print(f"{name} {counts[name]}")
    for check in suite._REGISTRY:
        check_counts = per_check[check.check_id]
        print(check.check_id, f"total {sum(check_counts.values())}",
              *(f"{name} {check_counts[name]}" for name in order if check_counts[name]))


if __name__ == "__main__":
    main()
