"""The scripts under ``scripts/`` still run.  They read suite internals, so a
rename that breaks one fails here."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from spdmeans.suite import _REGISTRY

ROOT = Path(__file__).resolve().parents[1]
# the seed-1 counts that README and ROADMAP quote, largest first
LAPACK_COUNTS = {
    "default": ["total 1135", "eigh 421", "svd 411", "eigvalsh 141", "qr 130", "det 21",
                "solve 6", "eigvals 5"],
    "large-n": ["total 3306", "svd 1440", "eigh 1168", "qr 416", "eigvalsh 248", "solve 20",
                "eigvals 14", "det 0"],
    # one call of each public function on a seeded 4 x 4 pair
    "means": ["metric_mean eigh 2 svd 1", "spectral_mean eigh 2 svd 2", "g_factor eigh 2 svd 2",
              "similarity_witness eigh 4 svd 5", "mat_power eigh 1"],
}
# the modules each import loads: the suite and majorization wait for first use
IMPORTED = {
    "spdmeans": "spdmeans spdmeans.errors spdmeans.linalg spdmeans.means",
    "spdmeans.cli": ("spdmeans spdmeans.cli spdmeans.errors spdmeans.linalg spdmeans.majorization "
                     "spdmeans.matrixio spdmeans.means spdmeans.suite"),
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
    pinned = LAPACK_COUNTS[run]
    assert lines[:len(pinned)] == pinned
    if run == "means":
        assert len(lines) == len(pinned)
        return
    # then each registry check's counts, which sum to the totals
    rows = [line.split() for line in lines[len(pinned):]]
    assert [row[0] for row in rows] == [check.check_id for check in _REGISTRY]
    sums = Counter()
    for row in rows:
        sums.update({name: int(count) for name, count in zip(row[1::2], row[2::2])})
    assert sums == {name: int(count) for name, count in map(str.split, pinned) if int(count)}


def test_import_cost_prints_the_modules_each_import_loads(subprocess_env):
    lines = run_script("import_cost.py", ["--runs", "1"], subprocess_env)
    assert lines[0] in ("dont_write_bytecode True", "dont_write_bytecode False")
    assert lines[1::2] == [f"{target} modules: {modules}" for target, modules in IMPORTED.items()]
    for line, target in zip(lines[2::2], IMPORTED):
        assert line.startswith(f"{target} wall_ms ") and line.endswith(" runs 1")


def test_phase_times_prints_each_check_and_phase(subprocess_env):
    lines = run_script("phase_times.py", ["--runs", "1"], subprocess_env)
    columns = ["draw", "stack", "evaluate", "oracle", "fixed", "total"]
    assert lines[0] == "| check | " + " | ".join(f"{c} ms" for c in columns) + " |"
    assert lines[1] == "|---" * (len(columns) + 1) + "|"
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [row[0] for row in rows] == [check.check_id for check in _REGISTRY] + ["all"]
    assert all(len(row) == len(columns) + 1 and min(map(float, row[1:])) >= 0.0 for row in rows)
