"""Tabulate where the verify battery holds as one configuration field grows.

The field is ``spread`` (every drawn matrix has log-uniform eigenvalues in
``[1/spread, spread]``) or ``p_min_exp`` (the limit checks' grid 2^0 ..
2^-p_min_exp).  For each value, run the battery at ``--seed`` and
``--trials`` (the default configuration's count unless given) and print
one Markdown row: the exit code ``spdmeans verify`` gives (0 pass, 1
violation, 2 error, with the error class and message), the failing rows
of each check, the compound oracle's mismatches and the worst margin of
the three limit checks.  exp(pX) keeps only about 53 - log2(1/p) bits of
X, so the limit rows fail from some ``p_min_exp`` on, from roundoff.

The ensembles whose verdicts feed the compound oracle (the power, natlog,
chain and lambda1 checks) cap their spread at
``min(spread, suite._ORACLE_SPREAD_CAP, 10^(suite._POWER_CAP_EXP / power))``.
The second table lifts both caps (set to infinity in this process only),
so every check sees the full spread.

Run from the repository root (a few seconds per value; LAPACK may print
its own messages for the runs that exit 2)::

    PYTHONPATH=src python3 scripts/range_map.py {spread,p_min_exp} [VALUE ...] [--seed 1] [--trials N]
"""

import argparse
import math
import warnings

import numpy as np

from spdmeans import suite
from spdmeans.errors import SpdMeansError
from spdmeans.suite import SuiteConfig, run_suite, summarize

LIMIT_CHECKS = ("trace_descent", "limit_spectral", "limit_sandwich")
# each field's value type and the values mapped when none are given
FIELDS = {
    "spread": (float, (1e2, 1e3, 1e4, 3e4, 1e5, 3e5, 1e6)),
    "p_min_exp": (int, (10, 19, 20, 24, 30, 40, 50, 55, 56, 57, 58)),
}


def row(field: str, value, config: dict) -> str:
    try:                                          # a value out of range exits 2, as in verify
        outcomes = run_suite(cfg := SuiteConfig.from_dict({**config, field: value}))
    except (SpdMeansError, ValueError) as exc:    # numpy's LinAlgError is a ValueError
        return f"| {value:g} | 2 (`{type(exc).__name__}: {exc}`) | no report | | |"
    summary = summarize(outcomes, cfg)
    checks = summary["checks"]
    listed = ", ".join(f"{cid} {c['failures']}" for cid, c in checks.items() if c["failures"])
    worst = min(checks[cid]["worst_margin"] for cid in LIMIT_CHECKS)
    oracle = next(out for out in outcomes if out.check_id == "oracle_agreement")
    return (f"| {value:g} | {0 if summary['ok'] else 1} | {listed or 'none'} | "
            f"{int(oracle.detail['mismatches'])} | {worst:.3g} |")


def table(title: str, field: str, values, config: dict) -> None:
    print(f"{title}\n")
    print(f"| {field} | exit | failing rows | oracle mismatches | worst limit margin |")
    print("|---" * 5 + "|")
    for value in values:
        print(row(field, value, config), flush=True)
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("field", choices=FIELDS)
    parser.add_argument("values", nargs="*", metavar="VALUE")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int)
    args = parser.parse_args()
    kind, defaults = FIELDS[args.field]
    values = [kind(value) for value in args.values] or defaults
    config = {"seed": args.seed, **({} if args.trials is None else {"trials": args.trials})}
    print(f"seed {args.seed}, {SuiteConfig.from_dict(config).trials} trials, "
          "otherwise the default configuration\n")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        table("With the oracle ensembles' spread caps", args.field, values, config)
        suite._ORACLE_SPREAD_CAP = suite._POWER_CAP_EXP = math.inf
        table("With the caps lifted", args.field, values, config)


if __name__ == "__main__":
    main()
