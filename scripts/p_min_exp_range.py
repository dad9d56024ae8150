"""Tabulate where doubles stop resolving the small-exponent limit checks.

For each ``p_min_exp`` (the grid 2^0 .. 2^-p_min_exp), run the battery at
the default configuration and print one Markdown table row: the exit code
``spdmeans verify`` gives (0 pass, 1 violation, 2 error, with the error
message), the failing rows of each check, the compound oracle's
mismatches and the worst margin of the three limit checks.  exp(pX) keeps
only about 53 - log2(1/p) bits of X, so the limit rows fail from some
``p_min_exp`` on; these failures are roundoff, not violations.

Run from the repository root (about 1-2 s per value; LAPACK may print
its own messages for the runs that exit 2)::

    PYTHONPATH=src python3 scripts/p_min_exp_range.py [--seed 1] [P_MIN_EXP ...]
"""

import argparse
import warnings

import numpy as np

from spdmeans.errors import SpdMeansError
from spdmeans.suite import SuiteConfig, is_failure, run_suite

LIMIT_CHECKS = ("trace_descent", "limit_spectral", "limit_sandwich")
DEFAULT_EXPS = (10, 19, 20, 24, 30, 40, 50, 55, 56, 57, 58)


def row(seed: int, p_min_exp: int) -> str:
    try:
        outcomes = run_suite(SuiteConfig(seed=seed, p_min_exp=p_min_exp))
    except (SpdMeansError, ValueError) as exc:    # numpy's LinAlgError is a ValueError
        return f"| {p_min_exp} | 2 (`error: {exc}`) | no report | | |"
    failing: dict[str, int] = {}
    for out in outcomes:
        if is_failure(out):
            failing[out.check_id] = failing.get(out.check_id, 0) + 1
    oracle = next(out for out in outcomes if out.check_id == "oracle_agreement")
    worst = min(out.worst_margin for out in outcomes if out.check_id in LIMIT_CHECKS)
    listed = ", ".join(f"{cid} {count}" for cid, count in sorted(failing.items())) or "none"
    return (f"| {p_min_exp} | {1 if failing else 0} | {listed} | "
            f"{int(oracle.detail['mismatches'])} | {worst:.3g} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("p_min_exp", type=int, nargs="*", default=DEFAULT_EXPS)
    args = parser.parse_args()
    print(f"seed {args.seed}, otherwise the default configuration\n")
    print("| p_min_exp | exit | failing rows | oracle mismatches | worst limit margin |")
    print("|---|---|---|---|---|")
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for p_min_exp in args.p_min_exp:
            print(row(args.seed, p_min_exp), flush=True)


if __name__ == "__main__":
    main()
