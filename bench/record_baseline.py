#!/usr/bin/env python3
"""Record ``baseline.json``: report digests and the committed call counts.

Usage::

    python3 bench/record_baseline.py --seeds 0-40

For this environment (see ``run.digest_key``) it stores the sha256 of the
report CSV of each verify workload at each seed, after checking that the
run passes its other gates, and replaces the LAPACK call counts of
verify_default at the baseline seed with those of a traced run.  Digests
recorded for other environments are kept.
"""

import argparse
import json
import os
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-40", help="inclusive range, e.g. 0-40")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    baseline = run.load_baseline()
    env = run.environment()
    key = run.digest_key(env)
    digests = baseline["digests"].setdefault(key, {})
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as cwd:
        for workload in run.VERIFY:
            table = digests.setdefault(workload, {})
            for seed in range(lo, hi + 1):
                res = run.verify_once(workload, seed, False, cwd, {})
                if res["problems"]:
                    raise SystemExit(f"{workload} seed {seed}: {res['problems']}")
                table[str(seed)] = res["digest"]
                print(f"{workload} seed {seed} {res['digest']}", flush=True)
        ref = baseline["counts"]
        res = run.verify_once(ref["workload"], ref["seed"], True, cwd, digests[ref["workload"]])
        if res["problems"]:
            raise SystemExit(f"traced baseline run: {res['problems']}")
        ref["env"] = env
        ref["rows"] = res["rows"]
        ref["lapack"] = {fn: res["layers"][f"lapack.{fn}"]["calls"] for fn in run.LAPACK}
        ref["lapack.calls"] = sum(ref["lapack"].values())
        ref["oracle_comparisons"] = res["layers"]["majorization.compound_cross_check"]["calls"]
    with open(run.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
