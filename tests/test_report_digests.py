"""Reports are bitwise reproducible: ``spdmeans verify --seed 1`` writes the
CSV whose sha256 the benchmark records in ``bench/baseline.json`` for this
numpy/BLAS environment, at the configurations of its two verify workloads,
and so do seeds 0 and 40 at the default configuration.
A change that moves any verdict or margin of a report fails here; where no
digest is recorded for the environment the test skips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# one BLAS thread, as in the benchmark (the digests are recorded that way)
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
WORKLOADS = {
    "verify_default": [],
    "verify_large_n": ["--dims", "40,64", "--trials", "20", "--limit-trials", "5"],
}


@pytest.fixture(scope="module")
def recorded() -> tuple[str, dict]:
    """This environment's digest key (``digest_key(environment())`` of
    ``bench/run.py``) and the digests recorded under it."""
    if not (BENCH / "run.py").exists():
        pytest.skip("no bench/ directory")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.digest_key(run.environment()))")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(BENCH)], env=ENV,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip(f"cannot describe the environment: {proc.stderr.strip()[-200:]}")
    key = proc.stdout.strip().splitlines()[-1]
    with open(BENCH / "baseline.json", encoding="utf-8") as fh:
        return key, json.load(fh)["digests"].get(key, {})


def check_digest(workload: str, seed: int, recorded, tmp_path) -> None:
    key, digests = recorded
    want = digests.get(workload, {}).get(str(seed))
    if want is None:
        pytest.skip(f"no {workload} seed {seed} digest recorded for {key!r}")
    csv_path = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "spdmeans.cli", "verify", "--seed", str(seed), *WORKLOADS[workload],
         "--out-csv", str(csv_path), "--out-json", str(tmp_path / "report.json")],
        env=ENV, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_matches_recorded_digest(workload, recorded, tmp_path):
    check_digest(workload, 1, recorded, tmp_path)


@pytest.mark.parametrize("seed", [0, 40])
def test_default_report_matches_recorded_digest_at_more_seeds(seed, recorded, tmp_path):
    check_digest("verify_default", seed, recorded, tmp_path)
