"""The scripts under ``scripts/`` still run.  They read suite internals, so a
rename that breaks one fails here."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the seed-1 counts that README and ROADMAP quote, largest first
LAPACK_COUNTS = {
    "default": ["total 1228", "eigh 421", "svd 411", "eigvalsh 172", "qr 130", "det 83",
                "solve 6", "eigvals 5"],
    "large-n": ["total 3336", "svd 1440", "eigh 1168", "qr 416", "eigvalsh 258", "det 20",
                "solve 20", "eigvals 14"],
    # one call of each public function on a seeded 4 x 4 pair
    "means": ["metric_mean eigh 2 svd 1", "spectral_mean eigh 2 svd 2", "g_factor eigh 2 svd 2",
              "similarity_witness eigh 4 svd 5", "mat_power eigh 1"],
}


def run_script(script, args, env) -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("script, args", [
    ("p_min_exp_range.py", ["0"]),
    ("spread_range.py", ["--trials", "2", "100"]),
])
def test_script_prints_one_row_per_table(script, args, subprocess_env):
    lines = run_script(script, args, subprocess_env)
    rows = [line for line in lines if line.startswith(f"| {args[-1]} |")]
    assert len(rows) == sum(line.startswith("|---") for line in lines) >= 1


@pytest.mark.parametrize("run", LAPACK_COUNTS)
def test_lapack_counts_prints_the_total_and_each_entry_point(run, subprocess_env):
    lines = run_script("lapack_counts.py", [] if run == "default" else [f"--{run}"], subprocess_env)
    assert lines == LAPACK_COUNTS[run]
