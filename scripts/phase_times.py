"""Time each check of one serial verify battery, split into five phases.

The phases of a registry check's rows, in milliseconds of self time (a
phase's time excludes the phases it calls):

- draw: seeding the trials and their ``_trial_*`` draws, with the grouping
  and witness bookkeeping of ``suite._run_trials``;
- stack: ``suite._stack`` (``pd_draws`` and ``pd_compose``) and the check's
  derive step;
- evaluate: the check's group evaluator on the randomized stacks;
- oracle: ``suite._oracle``, the compound cross oracle, wherever it runs;
- fixed: the check's fixed rows, through its public ``check_*`` function.

The script sets one BLAS thread before numpy loads and pins its own process
to one CPU, so every check runs in this process.  Each cell is the minimum
over ``--runs`` batteries; the last row sums the checks.

Run from the repository root (about 1 s per run)::

    PYTHONPATH=src python3 scripts/phase_times.py [--runs N]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads BLAS

import argparse  # noqa: E402
import time  # noqa: E402

from spdmeans import suite  # noqa: E402

PHASES = ("draw", "stack", "evaluate", "oracle", "fixed")


class Phases:
    """Self time per (check index, phase) of the wrapped functions."""

    def __init__(self):
        self.times: dict[tuple[int, str], float] = {}
        self.check = -1
        self.children: list[float] = []   # time of the finished calls inside each open one

    def wrap(self, phase: str, fn):
        def timed(*args, **kwargs):
            if phase == "draw":                  # suite._check_rows(cfg, idx)
                self.check = args[1]
            self.children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = (self.check, phase)
                self.times[key] = self.times.get(key, 0.0) + elapsed - self.children.pop()
                if self.children:
                    self.children[-1] += elapsed
        return timed


def battery_phases(cfg) -> dict[tuple[int, str], float]:
    """The phase times of one serial ``run_suite(cfg)``."""
    phases = Phases()
    saved = {name: getattr(suite, name) for name in ("_REGISTRY", "_check_rows", "_stack", "_oracle")}
    try:
        suite._REGISTRY = tuple(check._replace(
            evaluate=check.evaluate and phases.wrap("evaluate", check.evaluate),
            derive=check.derive and phases.wrap("stack", check.derive),
            public=phases.wrap("fixed", check.public)) for check in saved["_REGISTRY"])
        suite._check_rows = phases.wrap("draw", saved["_check_rows"])
        suite._stack = phases.wrap("stack", saved["_stack"])
        suite._oracle = phases.wrap("oracle", saved["_oracle"])
        suite.run_suite(cfg)
    finally:
        for name, value in saved.items():
            setattr(suite, name, value)
    return phases.times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="batteries to take the minimum over")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cfg = suite.SuiteConfig(seed=1)
    ids = [check.check_id for check in suite._REGISTRY]
    best: dict[tuple[str, str], float] = {}
    for _ in range(max(args.runs, 1)):
        times = battery_phases(cfg)
        table = {(cid, p): times.get((i, p), 0.0) for i, cid in enumerate(ids) for p in PHASES}
        for cid in ids:
            table[cid, "total"] = sum(table[cid, p] for p in PHASES)
        for p in (*PHASES, "total"):
            table["all", p] = sum(table[cid, p] for cid in ids)
        best = {key: min(v, best.get(key, v)) for key, v in table.items()}
    print("| check | " + " | ".join(f"{p} ms" for p in (*PHASES, "total")) + " |")
    print("|---" * (len(PHASES) + 2) + "|")
    for cid in (*ids, "all"):
        print(f"| {cid} | " + " | ".join(f"{1e3 * best[cid, p]:.1f}"
                                           for p in (*PHASES, "total")) + " |")


if __name__ == "__main__":
    main()
