"""Count the LAPACK calls of one verify battery, per numpy.linalg entry point.

The count does not vary between runs, unlike wall time, so it is the
repeatable measure of the decompositions a change adds or removes.  The
script sets one BLAS thread before numpy loads and pins its own process to
one CPU, so every check of the battery runs in this process (a forked
worker would take its share of the calls with it).  It prints the total,
then one line per entry point, largest count first.

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
from spdmeans.suite import SuiteConfig, run_suite  # noqa: E402

ENTRY_POINTS = ("eigh", "svd", "eigvalsh", "qr", "det", "solve", "eigvals")
LARGE_N = {"dims": (40, 64), "trials": 20, "limit_trials": 5}
MEANS = (metric_mean, spectral_mean, g_factor, similarity_witness)


def lapack_counts(run) -> dict[str, int]:
    """Calls of each entry point made by ``run()`` in this process."""
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
        run()
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--large-n", action="store_true", help="dims 40,64, 20 and 5 trials")
    runs.add_argument("--means", action="store_true", help="one call of each public mean")
    args = parser.parse_args()
    if args.means:
        A, B = sample_pd(4, 1, 100.0), sample_pd(4, 2, 100.0)   # drawn outside the count
        for fn, fn_args in [*((mean, (A, B, 0.3)) for mean in MEANS), (mat_power, (A, 0.3))]:
            counts = lapack_counts(lambda: fn(*fn_args))
            print(fn.__name__, *(f"{name} {c}" for name, c in counts.items() if c))
        return
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg = SuiteConfig.from_dict({**(LARGE_N if args.large_n else {}), "seed": 1})
    counts = lapack_counts(lambda: run_suite(cfg))
    print(f"total {sum(counts.values())}")
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name} {count}")


if __name__ == "__main__":
    main()
