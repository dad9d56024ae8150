"""Tabulate how far the verify battery holds as the input spread grows.

For each spread (the eigenvalues of every drawn matrix are log-uniform in
``[1/spread, spread]``), run the battery at ``--trials`` trials and print
one Markdown table row: the exit code ``spdmeans verify`` gives (0 pass,
1 violation, 2 error, with the error class and message), the failing rows
of each check and the compound oracle's mismatches.

The ensembles whose verdicts feed the compound oracle (the power, natlog,
chain and lambda1 checks) cap their spread at
``min(spread, suite._ORACLE_SPREAD_CAP, 10^(suite._POWER_CAP_EXP / power))``,
so the first table never shows those checks a spread above 100.  The
second table lifts both caps (this script sets them to infinity in its
own process before the battery runs), so every check sees the full
spread.

Run from the repository root (a few seconds per value)::

    PYTHONPATH=src python3 scripts/spread_range.py [--seed 1] [--trials 200] [SPREAD ...]
"""

import argparse
import math
import warnings

import numpy as np

from spdmeans import suite
from spdmeans.errors import SpdMeansError
from spdmeans.suite import SuiteConfig, is_failure, run_suite

DEFAULT_SPREADS = (1e2, 1e3, 1e4, 3e4, 1e5, 3e5, 1e6)


def row(seed: int, trials: int, spread: float) -> str:
    try:
        outcomes = run_suite(SuiteConfig(seed=seed, spread=spread, trials=trials))
    except (SpdMeansError, ValueError) as exc:    # numpy's LinAlgError is a ValueError
        return f"| {spread:g} | 2 (`{type(exc).__name__}: {exc}`) | no report | |"
    failing: dict[str, int] = {}
    for out in outcomes:
        if is_failure(out):
            failing[out.check_id] = failing.get(out.check_id, 0) + 1
    oracle = next(out for out in outcomes if out.check_id == "oracle_agreement")
    listed = ", ".join(f"{cid} {count}" for cid, count in sorted(failing.items())) or "none"
    return f"| {spread:g} | {1 if failing else 0} | {listed} | {int(oracle.detail['mismatches'])} |"


def table(title: str, seed: int, trials: int, spreads) -> None:
    print(f"{title}\n")
    print("| spread | exit | failing rows | oracle mismatches |")
    print("|---|---|---|---|")
    for spread in spreads:
        print(row(seed, trials, spread), flush=True)
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("spread", type=float, nargs="*", default=DEFAULT_SPREADS)
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.trials} trials, otherwise the default configuration\n")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        table("With the oracle ensembles' spread caps", args.seed, args.trials, args.spread)
        suite._ORACLE_SPREAD_CAP = suite._POWER_CAP_EXP = math.inf
        table("With the caps lifted", args.seed, args.trials, args.spread)


if __name__ == "__main__":
    main()
