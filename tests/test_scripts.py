"""The scripts that regenerate the README's range tables still run.  Both
read suite internals, so a rename that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("script, args", [
    ("p_min_exp_range.py", ["0"]),
    ("spread_range.py", ["--trials", "2", "100"]),
])
def test_script_prints_one_row_per_table(script, args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line for line in lines if line.startswith(f"| {args[-1]} |")]
    assert len(rows) == sum(line.startswith("|---") for line in lines) >= 1
