"""The scripts under ``scripts/`` still run.  They read suite internals, so a
rename that breaks one fails here."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spdmeans.suite import _REGISTRY

ROOT = Path(__file__).resolve().parents[1]
PHASES = ["draw", "stack", "evaluate", "oracle", "fixed", "total"]
# the seed-1 counts that README and ROADMAP quote, largest first
LAPACK_COUNTS = {
    "default": ["total 1115", "eigh 413", "svd 411", "qr 130", "eigvalsh 129", "det 21",
                "solve 6", "eigvals 5", "cholesky 0"],
    "large-n": ["total 3292", "svd 1440", "eigh 1166", "qr 416", "eigvalsh 236", "solve 20",
                "eigvals 14", "det 0", "cholesky 0"],
    # one call of each public function on a seeded 4 x 4 pair: B's floor test and
    # Cholesky factor in the means, B's eigensystem in the witness
    "means": ["metric_mean eigh 1 svd 1 eigvalsh 1 cholesky 1",
              "spectral_mean eigh 1 svd 2 eigvalsh 1 cholesky 1",
              "g_factor eigh 1 svd 2 eigvalsh 1 cholesky 1",
              "similarity_witness eigh 4 svd 5", "mat_power eigh 1"],
}
# the modules each import loads: the suite and majorization wait for first use
IMPORTED = {
    "spdmeans": "spdmeans spdmeans.errors spdmeans.linalg spdmeans.means",
    "spdmeans.cli": ("spdmeans spdmeans.cli spdmeans.errors spdmeans.linalg spdmeans.majorization "
                     "spdmeans.matrixio spdmeans.means spdmeans.suite"),
}


def _bench_names() -> list[str]:
    """Every function the benchmark reaches by name: the layers ``bench/tracer.py``
    wraps, and what ``bench/meanscalls.py``, ``child.py`` and ``run.py``'s KERNELS call."""
    path, tracer = ROOT / "bench" / "tracer.py", {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)   # writes no bytecode
    names = [f"{module}.{fn}" for module, fns in tracer["LAYERS"].values() for fn in fns]
    return names + ["spdmeans.metric_mean", "spdmeans.spectral_mean",
                    "spdmeans.linalg.mat_sqrt_pair", "spdmeans.cli.main"]


@pytest.mark.parametrize("name", _bench_names())
def test_every_name_the_benchmark_reaches_resolves(name):
    """A rename or deletion fails here, not in a traced benchmark run."""
    module, fn = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), fn))


def run_script(script, args, env, exits=(0,)) -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in exits, proc.stderr
    return proc.stdout.splitlines()


def test_every_script_is_run_by_a_test():
    run = set(re.findall(r'run_script\(\s*"([\w.]+)"', Path(__file__).read_text(encoding="utf-8")))
    assert run == {path.name for path in (ROOT / "scripts").glob("*.py")}


@pytest.mark.parametrize("field, values", [("spread", ["100", "1000"]), ("p_min_exp", ["0", "3"])])
def test_range_map_prints_one_row_per_value_in_each_table(field, values, subprocess_env):
    lines = run_script("range_map.py", [field, *values, "--trials", "2"], subprocess_env)
    assert lines[0] == "seed 1, 2 trials, otherwise the default configuration"
    headers = [i for i, line in enumerate(lines) if line.startswith(f"| {field} | exit |")]
    assert len(headers) == 2        # with the oracle spread caps, then with them lifted
    for i in headers:
        assert lines[i + 1] == "|---" * 5 + "|"
        rows = lines[i + 2:i + 2 + len(values)]
        assert [row.split(" | ")[0] for row in rows] == [f"| {value}" for value in values]
        assert lines[i + 2 + len(values)] == ""


@pytest.mark.parametrize("run", LAPACK_COUNTS)
def test_profile_prints_the_counts_then_each_check(run, subprocess_env):
    args = {"default": ["--runs", "1"], "large-n": ["--runs", "1", "--large-n"], "means": ["--means"]}
    lines = run_script("profile.py", args[run], subprocess_env)
    pinned = LAPACK_COUNTS[run]
    assert lines[:len(pinned)] == pinned
    if run == "means":
        assert len(lines) == len(pinned)
        return
    # then a row per registry check and one for all: phase times, calls, calls per entry point
    totals = dict(map(str.split, pinned))
    header, rule, *rows = lines[len(pinned):]
    columns = [*(f"{phase} ms" for phase in PHASES), "calls", *list(totals)[1:]]
    assert header == "| check | " + " | ".join(columns) + " |"
    assert rule == "|---" * (len(columns) + 1) + "|"
    rows = [row.strip("| ").split(" | ") for row in rows]
    assert [row[0] for row in rows] == [check.check_id for check in _REGISTRY] + ["all"]
    assert all(len(row) == len(columns) + 1 and min(map(float, row[1:7])) >= 0.0 for row in rows)
    counts = [list(map(int, row[7:])) for row in rows]
    assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
    assert counts[-1] == list(map(int, totals.values()))


def test_digests_match_at_one_seed_on_both_verify_workloads(subprocess_env):
    # exit 2: no digest is recorded for this numpy/BLAS environment
    lines = run_script("digests.py", ["--seeds", "1"], subprocess_env, exits=(0, 2))
    if lines == ["no digest recorded at the selected seeds for this environment"]:
        pytest.skip(lines[0])
    assert lines == ["2/2 digests match"]


def test_import_cost_prints_the_modules_each_import_loads(subprocess_env):
    lines = run_script("import_cost.py", ["--runs", "1"], subprocess_env)
    assert lines[0] in ("dont_write_bytecode True", "dont_write_bytecode False")
    assert lines[1::2] == [f"{target} modules: {modules}" for target, modules in IMPORTED.items()]
    for line, target in zip(lines[2::2], IMPORTED):
        assert line.startswith(f"{target} wall_ms ") and line.endswith(" runs 1")

