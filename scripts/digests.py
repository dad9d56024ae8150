"""Check ``spdmeans verify`` reports against the digests the benchmark recorded.

``bench/baseline.json`` records the sha256 of the CSV report of each verify
workload at a set of seeds, keyed by what sets the bits (numpy, BLAS, its
core and thread count, the SIMD extensions; ``digest_key`` of
``bench/run.py``).  For every seed recorded under this environment's key,
or each of ``--seeds`` that is recorded, the script runs ``spdmeans
verify`` on both workloads in a child process with one BLAS thread, as
the benchmark does, and compares the digest of its CSV with the record.
It prints one line per mismatch (workload, seed, both digests or the
command's exit code), then ``N/M digests match``, and exits 1 on any
mismatch; it exits 2 if nothing is recorded at the selected seeds.  The
baseline is only read.

Run from the repository root (about 3 minutes for all 41 recorded seeds)::

    PYTHONPATH=src python3 scripts/digests.py [--seeds 0,1,40]
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True   # leave no bytecode cache in bench/

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import run  # noqa: E402  (sets one BLAS thread before numpy loads, here and in children)

# the children import the package from this checkout's src/, whatever their working directory
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [run.SRC, os.environ.get("PYTHONPATH")]))}


def digest(args: list[str], seed: int) -> str:
    """The sha256 of the CSV of ``spdmeans verify --seed seed *args``, or why there is none."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "report.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "spdmeans.cli", "verify", "--seed", str(seed), *args,
             "--out-csv", csv_path, "--out-json", os.path.join(tmp, "report.json")],
            cwd=tmp, env=ENV, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"exit {proc.returncode}"
        with open(csv_path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", help="comma-separated seeds (default: every recorded seed)")
    opts = parser.parse_args()
    recorded = run.load_baseline()["digests"].get(run.digest_key(run.environment()), {})
    seeds = None if opts.seeds is None else {int(seed) for seed in opts.seeds.split(",")}
    cases = [(workload, args, int(seed), recorded[workload][seed])
             for workload, (args, *_) in run.VERIFY.items()
             for seed in sorted(recorded.get(workload, {}), key=int)
             if seeds is None or int(seed) in seeds]
    if not cases:
        print("no digest recorded at the selected seeds for this environment")
        return 2
    matches = 0
    for workload, args, seed, want in cases:
        got = digest(args, seed)
        matches += got == want
        if got != want:
            print(f"{workload} seed {seed}: got {got}, recorded {want}", flush=True)
    print(f"{matches}/{len(cases)} digests match")
    return 0 if matches == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
