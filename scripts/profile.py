"""Profile one serial verify battery: LAPACK calls and phase times per check.

The script sets one BLAS thread before numpy loads and pins its own process
to one CPU, so every check runs in this process (a forked worker would take
its share of the calls and the time with it).  One ``Profile`` counts the
calls of each ``numpy.linalg`` entry point, which unlike wall time do not
vary between runs, and times five phases of each registry check in self
time (a phase's time excludes the phases it calls):

- draw: seeding the trials and their ``_trial_*`` draws, with the grouping
  and witness bookkeeping of ``suite._run_trials``;
- stack: ``suite._stack`` (``pd_draws`` and ``pd_compose``) and the check's
  derive step;
- evaluate: the check's group evaluator on the randomized stacks;
- oracle: ``suite._oracle``, the compound cross oracle, wherever it runs;
- fixed: the check's fixed rows, through its public ``check_*`` function.

It prints the total calls, then one line per entry point, largest count
first, then one Markdown row per registry check and a last row ``all``
summing them: the phase times in milliseconds (each the minimum over
``--runs`` batteries), the calls and the calls per entry point.

Run from the repository root (about 1 s per run, 3 s with ``--large-n``)::

    PYTHONPATH=src python3 scripts/profile.py [--runs N] [--large-n | --means]

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
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from spdmeans import (g_factor, mat_power, metric_mean, sample_pd, similarity_witness,  # noqa: E402
                      spectral_mean)
from spdmeans import suite  # noqa: E402

ENTRY_POINTS = ("eigh", "svd", "eigvalsh", "qr", "det", "solve", "eigvals", "cholesky")
PHASES = ("draw", "stack", "evaluate", "oracle", "fixed")
LARGE_N = {"dims": (40, 64), "trials": 20, "limit_trials": 5}
MEANS = (metric_mean, spectral_mean, g_factor, similarity_witness)


class Profile:
    """Calls per (check index, entry point) and self time per (check index,
    phase) of the wrapped functions; check -1 is outside any check."""

    def __init__(self):
        self.calls, self.times = Counter(), Counter()
        self.check = -1
        self.children: list[float] = []   # time of the finished calls inside each open one

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[self.check, name] += 1
            return fn(*args, **kwargs)
        return counted

    def time(self, phase: str, fn):
        def timed(*args, **kwargs):
            if phase == "draw":                  # suite._check_rows(cfg, idx)
                self.check = args[1]
            self.children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.times[self.check, phase] += elapsed - self.children.pop()
                if self.children:
                    self.children[-1] += elapsed
        return timed

    def run(self, fn, *args):
        """``fn(*args)`` with every ``numpy.linalg`` entry point counted."""
        originals = {name: getattr(np.linalg, name) for name in ENTRY_POINTS}
        try:
            for name, entry in originals.items():
                setattr(np.linalg, name, self.count(name, entry))
            return fn(*args)
        finally:
            for name, entry in originals.items():
                setattr(np.linalg, name, entry)


def battery(cfg) -> Profile:
    """The profile of one serial ``run_suite(cfg)``."""
    profile = Profile()
    saved = {name: getattr(suite, name) for name in ("_REGISTRY", "_check_rows", "_stack", "_oracle")}
    try:
        suite._REGISTRY = tuple(check._replace(
            evaluate=check.evaluate and profile.time("evaluate", check.evaluate),
            derive=check.derive and profile.time("stack", check.derive),
            public=profile.time("fixed", check.public)) for check in saved["_REGISTRY"])
        suite._check_rows = profile.time("draw", saved["_check_rows"])
        suite._stack = profile.time("stack", saved["_stack"])
        suite._oracle = profile.time("oracle", saved["_oracle"])
        profile.run(suite.run_suite, cfg)
    finally:
        for name, value in saved.items():
            setattr(suite, name, value)
    return profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="batteries to take the minimum time over")
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--large-n", action="store_true", help="dims 40,64, 20 and 5 trials")
    runs.add_argument("--means", action="store_true", help="one call of each public mean")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.means:
        A, B = sample_pd(4, 1, 100.0), sample_pd(4, 2, 100.0)   # drawn outside the count
        for fn, fn_args in [*((mean, (A, B, 0.3)) for mean in MEANS), (mat_power, (A, 0.3))]:
            (profile := Profile()).run(fn, *fn_args)
            print(fn.__name__, *(f"{name} {c}" for name in ENTRY_POINTS if (c := profile.calls[-1, name])))
        return
    cfg = suite.SuiteConfig.from_dict({**(LARGE_N if args.large_n else {}), "seed": 1})
    profiles = [battery(cfg) for _ in range(max(args.runs, 1))]
    calls = profiles[0].calls                  # the same in every run
    totals = {name: sum(c for (_, entry), c in calls.items() if entry == name) for name in ENTRY_POINTS}
    order = sorted(totals, key=lambda name: -totals[name])
    print(f"total {sum(totals.values())}", *(f"{name} {totals[name]}" for name in order), sep="\n")
    rows = [[min(p.times[i, phase] for p in profiles) for phase in PHASES] + [calls[i, name] for name in order]
            for i in range(len(suite._REGISTRY))]
    rows.append([sum(column) for column in zip(*rows)])
    columns = [*(f"{phase} ms" for phase in (*PHASES, "total")), "calls", *order]
    print("| check | " + " | ".join(columns) + " |", "|---" * (len(columns) + 1) + "|", sep="\n")
    for check_id, row in zip([*(check.check_id for check in suite._REGISTRY), "all"], rows):
        ms, counts = row[:len(PHASES)], row[len(PHASES):]
        cells = [*(f"{1e3 * t:.1f}" for t in (*ms, sum(ms))), str(sum(counts)), *map(str, counts)]
        print(f"| {check_id} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
