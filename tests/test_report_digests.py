"""Reports are bitwise reproducible: ``spdmeans verify --seed 1`` writes the
CSV whose sha256 the benchmark records in ``bench/baseline.json`` for this
numpy/BLAS environment, at the configurations of its two verify workloads,
and so do seeds 0 and 40 at both.  The seed-1 default report is also
checked with the process restricted to one CPU, where the checks run
serially in one process.
A change that moves any verdict or margin of a report fails here; where no
digest is recorded for the environment the test skips.  The JSON report of
each such run is checked against its CSV: every check's row count and worst
margin, no failure, and an expected-false verdict for the two fixtures
alone, so together with the pinned JSON layout (``tests/test_cli.py``) the
recorded digests pin both reports."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
FIXTURES = {"counterexample_natlog", "counterexample_monotone"}
WORKLOADS = {
    "verify_default": [],
    "verify_large_n": ["--dims", "40,64", "--trials", "20", "--limit-trials", "5"],
}


@pytest.fixture(scope="module")
def recorded(subprocess_env) -> tuple[str, dict]:
    """This environment's digest key (``digest_key(environment())`` of
    ``bench/run.py``) and the digests recorded under it."""
    if not (BENCH / "run.py").exists():
        pytest.skip("no bench/ directory")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.digest_key(run.environment()))")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(BENCH)], env=subprocess_env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip(f"cannot describe the environment: {proc.stderr.strip()[-200:]}")
    key = proc.stdout.strip().splitlines()[-1]
    with open(BENCH / "baseline.json", encoding="utf-8") as fh:
        return key, json.load(fh)["digests"].get(key, {})


def check_digest(workload: str, seed: int, recorded, tmp_path, env, preexec_fn=None) -> None:
    key, digests = recorded
    want = digests.get(workload, {}).get(str(seed))
    if want is None:
        pytest.skip(f"no {workload} seed {seed} digest recorded for {key!r}")
    csv_path = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "spdmeans.cli", "verify", "--seed", str(seed), *WORKLOADS[workload],
         "--out-csv", str(csv_path), "--out-json", str(tmp_path / "report.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True, preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want
    margins: dict[str, list[float]] = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            margins.setdefault(row["check_id"], []).append(float(row["worst_margin"]))
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["ok"] is True and report["failure_rows"] == []
    assert sorted(report["checks"]) == sorted(margins)
    for check_id, entry in report["checks"].items():
        assert entry == {"expected": "false" if check_id in FIXTURES else "true",
                         "rows": len(margins[check_id]), "failures": 0,
                         "worst_margin": min(margins[check_id])}, check_id


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_matches_recorded_digest(workload, recorded, tmp_path, subprocess_env):
    check_digest(workload, 1, recorded, tmp_path, subprocess_env)


MORE_SEEDS = [(seed, workload) for workload in WORKLOADS for seed in (0, 40)]


# each id is the seed, followed by the workload unless it is the default one
@pytest.mark.parametrize("seed, workload", MORE_SEEDS, ids=[
    f"{seed}" if workload == "verify_default" else f"{seed}-{workload}" for seed, workload in MORE_SEEDS])
def test_default_report_matches_recorded_digest_at_more_seeds(seed, workload, recorded, tmp_path,
                                                             subprocess_env):
    check_digest(workload, seed, recorded, tmp_path, subprocess_env)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
def test_default_report_on_one_cpu_matches_recorded_digest(recorded, tmp_path, subprocess_env):
    cpu = min(os.sched_getaffinity(0))
    check_digest("verify_default", 1, recorded, tmp_path, subprocess_env,
                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
