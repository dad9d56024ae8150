#!/usr/bin/env python3
"""Benchmark of spdmeans: the ``spdmeans verify`` command and the two means.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.  Every measurement runs in a fresh child process (``child.py``)
that imports the package from ``src/`` of this checkout; the benchmark
fails when that source tree is missing.  BLAS runs on one thread: with
two threads on a 2-core VM, an n=64 call stalled whenever the other core
was busy (up to 20x slower), which made runs far less repeatable.

With ``--trace 0`` the run reports the end-to-end metrics.  Each time is
normalised for the host's speed, measured while it runs with a numpy
evaluation of the means' defining formula that runs no spdmeans code
(``meanscalls.reference``), and given at the speed of
``meanscalls.REFERENCE_US``.  With ``--trace 1`` it reports the per-layer
metrics of traced runs (``tracer.py``), untraced runs taking turns with
them for the tracing overhead, and on means_calls per-size kernel times.
Every result is gated for correctness: a verify command fails if it
exits non-zero, its JSON summary is not ``ok``, its
CSV has the wrong row count, or the CSV differs from the digest recorded
in ``baseline.json`` for this environment, workload and seed.  A
means_calls operation fails if a call raises or misses its reference
(``meanscalls.py``).

Human-readable lines, including the environment record, come first; the
last line of standard output is the JSON result.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads BLAS, here and in children

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from meanscalls import REFERENCE_US, SIZES  # noqa: E402
from tracer import LAPACK, LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")
CHILD = os.path.join(HERE, "child.py")
BASELINE = os.path.join(HERE, "baseline.json")

# verify workloads: extra `spdmeans verify` arguments, the CSV row count
# (header excluded), which does not depend on the seed, and the sizes of
# the calibration pass, close to the sizes the command works on.
VERIFY = {
    "verify_default": ([], 4669, (2, 4, 6)),
    "verify_large_n": (["--dims", "40,64", "--trials", "20", "--limit-trials", "5"], 214, (64,)),
}
WORKLOADS = (*VERIFY, "means_calls")

MIN_VERIFY_REPS = 3    # verify commands per untraced run, at least
MIN_TRACED_REPS = 2    # traced commands or loops per traced run, at least
MEANS_SEGMENTS = 4     # loop children per untraced means_calls run
TRACED_OPS = 750       # operations per loop child of a traced means_calls run
SETUP_PROBES = 15      # import-only children per untraced run
SETUP_BATCH = 3        # of which this many run before each measured child
SETUP_CAL_SIZES = (2, 4, 6)   # calibration of import probes: numpy-call bound
KERNELS = ("means.metric_mean", "means.spectral_mean", "linalg.mat_sqrt_pair")
CHILD_TIMEOUT_S = 150


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def _openblas():
    """(core name, threads in effect) from numpy's bundled OpenBLAS."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return core().decode(), int(threads())
    return "unknown", -1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What digests and timings depend on; printed beside every result."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    core, threads = _openblas()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_core": core,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "simd": cfg["SIMD Extensions"].get("found", []),
        "python": platform.python_version(),
    }


def digest_key(env: dict) -> str:
    """Report digests are bitwise, so they are keyed by what sets the bits."""
    return " | ".join((f"numpy {env['numpy']}", env["blas"], env["blas_core"],
                       f"threads {env['blas_threads']}", ",".join(env["simd"])))


def load_baseline() -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# children
# --------------------------------------------------------------------------

def spawn(mode: str, spec: dict, cwd: str) -> dict:
    """Run one child; returns its JSON result plus ``setup_s``, or an
    ``error`` entry when it failed."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, mode, SRC, json.dumps(spec)],
            cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["import_done"] - t_spawn
    return result


def spawn_ok(mode: str, spec: dict, cwd: str) -> dict:
    """``spawn`` for children whose failure leaves nothing to measure."""
    res = spawn(mode, spec, cwd)
    if "error" in res:
        raise RuntimeError(res["error"])
    return res


def setup_samples(cwd: str, count: int) -> list[float]:
    """Normalised set-up times of ``count`` import-only children.  Each
    child times SETUP_CAL_SIZES calibration passes right after its import;
    the run reports the median over its SETUP_PROBES children."""
    probes = [spawn_ok("import", {"calibration": SETUP_CAL_SIZES}, cwd) for _ in range(count)]
    return [res["setup_s"] * reference_s(SETUP_CAL_SIZES) / res["calibration_s"]
            for res in probes]


def reference_s(sizes) -> float:
    """Time in seconds of one calibration pass over ``sizes`` at the speed
    that normalised times refer to (``meanscalls.REFERENCE_US``)."""
    return sum(REFERENCE_US[n] for n in sizes) * 1e-6


# --------------------------------------------------------------------------
# verify workloads
# --------------------------------------------------------------------------

def read_report(csv_path: str) -> dict:
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines()[1:]
    oracle = [ln for ln in lines if ln.startswith("oracle_agreement,")]
    return {
        "digest": hashlib.sha256(data).hexdigest(),
        "rows": len(lines),
        "bytes": len(data),
        "oracle_mismatches": abs(float(oracle[0].split(",")[3])) if oracle else -1.0,
    }


def verify_once(workload: str, seed: int, trace: bool, cwd: str, digests: dict) -> dict:
    """One ``spdmeans verify`` command, gated.  ``problems`` lists why it
    failed; it is empty for a correct run."""
    extra, rows, cal_sizes = VERIFY[workload]
    csv_path = os.path.join(cwd, "report.csv")
    json_path = os.path.join(cwd, "report.json")
    for path in (csv_path, json_path):
        if os.path.exists(path):
            os.remove(path)
    argv = ["verify", "--seed", str(seed), *extra, "--out-csv", csv_path, "--out-json", json_path]
    res = spawn("verify", {"argv": argv, "trace": trace, "calibration": cal_sizes}, cwd)
    if "error" in res:
        return {"problems": [res["error"]]}
    res["norm_s"] = res["verify_s"] * reference_s(cal_sizes) / res["calibration_s"]
    problems = []
    if res["exit_code"] != 0:
        problems.append(f"verify exited {res['exit_code']}")
    try:
        with open(json_path, encoding="utf-8") as fh:
            if json.load(fh).get("ok") is not True:
                problems.append("summary ok is not true")
        res.update(read_report(csv_path))
    except (OSError, ValueError) as exc:
        return {**res, "problems": problems + [f"unreadable report: {exc}"]}
    if res["rows"] != rows:
        problems.append(f"{res['rows']} report rows, expected {rows}")
    want = digests.get(str(seed))
    if want is not None and res["digest"] != want:
        problems.append(f"report digest {res['digest'][:12]} differs from recorded {want[:12]}")
    res["problems"] = problems
    return res


def run_verify(workload: str, seed: int, seconds: float, trace: bool, cwd: str, env: dict):
    baseline = load_baseline()
    digests = baseline["digests"].get(digest_key(env), {}).get(workload, {})
    setup_samples(cwd, 1)    # warm-up: byte-compiles the package once
    setup: list[float] = []
    untraced, traced = [], []
    t_start = time.monotonic()

    def fits(reps: list[dict]) -> bool:
        """Whether another command like those in ``reps`` ends in time."""
        spent = [rep["verify_s"] for rep in reps if "verify_s" in rep]
        return bool(spent) and time.monotonic() - t_start + statistics.median(spent) <= seconds

    if trace:
        # Untraced and traced commands take turns, so that host drift
        # weighs on both alike in the tracing overhead.
        while len(traced) < MIN_TRACED_REPS or fits(traced):
            reps = untraced if len(untraced) <= len(traced) else traced
            reps.append(verify_once(workload, seed, reps is traced, cwd, digests))
    else:
        while len(untraced) < MIN_VERIFY_REPS or fits(untraced):
            setup += setup_samples(cwd, max(0, min(SETUP_BATCH,
                                                   SETUP_PROBES - SETUP_BATCH - len(setup))))
            untraced.append(verify_once(workload, seed, False, cwd, digests))
        setup += setup_samples(cwd, SETUP_PROBES - len(setup))
    ran = [rep for rep in untraced if "verify_s" in rep]
    if not ran:
        raise RuntimeError("; ".join(untraced[0]["problems"]))
    extra = {}
    if trace:
        metrics = traced_metrics(workload, seed, ran, traced, baseline["counts"])
    else:
        op_s = statistics.median(rep["norm_s"] for rep in ran)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_ms": (op_s * 1e3, "ms"),
            "ops_per_s": (1.0 / op_s, "1/s"),
            "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in ran), "MB"),
        }
        extra = {
            "op_raw_ms": (statistics.median(rep["verify_s"] for rep in ran) * 1e3, "ms"),
            "host_slowdown": (statistics.median(rep["verify_s"] / rep["norm_s"] for rep in ran),
                              "ratio"),
        }
    reps = untraced + traced
    problems = [p for rep in reps for p in rep["problems"]]
    return len(reps), sum(bool(rep["problems"]) for rep in reps), problems, metrics, extra


def traced_metrics(workload: str, seed: int, plain: list[dict], traced: list[dict],
                   ref: dict) -> dict:
    """Per-layer metrics of the traced reps, which are also gated: each must
    write the untraced report, repeat the first traced rep's call counts
    and, for the baseline workload and seed, the committed LAPACK counts."""
    ran = [rep for rep in traced if "layers" in rep]
    if not ran:
        return per_layer_metrics({}, {}, {}, 0.0)
    first = call_counts(ran[0]["layers"])
    for rep in ran:
        counts = call_counts(rep["layers"])
        if rep.get("digest") != plain[0].get("digest"):
            rep["problems"].append("traced report digest differs from the untraced one")
        if counts != first:
            rep["problems"].append("call counts differ between traced runs")
        if workload == ref["workload"] and seed == ref["seed"]:
            rep["problems"] += [
                f"lapack.{fn}.calls {counts.get(f'lapack.{fn}', 0)} differs from baseline {want}"
                for fn, want in ref["lapack"].items() if counts.get(f"lapack.{fn}", 0) != want]
    overhead = (statistics.median(rep["verify_s"] for rep in ran)
                / statistics.median(rep["verify_s"] for rep in plain) - 1.0)
    return per_layer_metrics(merge_layers([rep["layers"] for rep in ran]), {}, ran[0], overhead)


def call_counts(layers: dict) -> dict:
    return {name: v["calls"] for name, v in layers.items()}


# --------------------------------------------------------------------------
# means_calls
# --------------------------------------------------------------------------

def run_means(seed: int, seconds: float, trace: bool, cwd: str):
    setup_samples(cwd, 1)    # warm-up: byte-compiles the package once
    if trace:
        return run_means_traced(seed, cwd)
    setup, segments = [], []
    for stream in range(MEANS_SEGMENTS):
        setup += setup_samples(cwd, SETUP_BATCH)
        segments.append(spawn_ok("means", {"seed": seed, "stream": stream, "trace": False,
                                           "seconds": seconds / MEANS_SEGMENTS}, cwd))
    setup += setup_samples(cwd, SETUP_PROBES - len(setup))
    norm_us = normalised_us(segments)
    every = [v for seg in segments for v in seg["latency_ms"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms": (norm_us[SIZES[len(SIZES) // 2]] * 1e-3, "ms"),
        "ops_per_s": (len(SIZES) / (sum(norm_us.values()) * 1e-6), "1/s"),
        "peak_rss_mb": (statistics.median(seg["peak_rss_mb"] for seg in segments), "MB"),
    }
    q = statistics.quantiles(every, n=100, method="inclusive")
    extra = {
        **{f"op_us.n{n}": (v, "us") for n, v in norm_us.items()},
        "op_raw_p50_ms": (statistics.median(every), "ms"),
        "op_raw_p99_ms": (q[98], "ms"),
        "host_slowdown": (statistics.median(
            ref / (REFERENCE_US[SIZES[i % len(SIZES)]] * 1e-3)
            for seg in segments for i, ref in enumerate(seg["reference_ms"])), "ratio"),
        "worst_rel_dev": (max(seg["worst_rel_dev"] for seg in segments), "ratio"),
    }
    problems = [p for seg in segments for p in seg["problems"]]
    return len(every), sum(seg["failed"] for seg in segments), problems, metrics, extra


def normalised_us(loops: list[dict]) -> dict[int, float]:
    """Median operation latency per size, in microseconds at the reference
    speed: each operation's time is divided by that of the reference
    evaluation right after it, on the same arguments, and multiplied by
    the reference's time at that speed (``meanscalls.REFERENCE_US``)."""
    ratios = {n: [] for n in SIZES}
    for loop in loops:
        for i, (lat, ref) in enumerate(zip(loop["latency_ms"], loop["reference_ms"])):
            ratios[SIZES[i % len(SIZES)]].append(lat / ref)
    return {n: statistics.median(r) * REFERENCE_US[n] for n, r in ratios.items()}


def run_means_traced(seed: int, cwd: str):
    """Untraced and traced loops over the same TRACED_OPS operations take
    turns; the traced loops must repeat each other's call counts."""
    plain, traced = [], []
    for _ in range(MIN_TRACED_REPS):
        for trace, reps in ((False, plain), (True, traced)):
            reps.append(spawn_ok("means", {"seed": seed, "stream": 0, "trace": trace,
                                           "ops": TRACED_OPS}, cwd))
    problems = [p for res in plain + traced for p in res["problems"]]
    failed = sum(res["failed"] for res in plain + traced)
    if any(call_counts(res["layers"]) != call_counts(traced[0]["layers"]) for res in traced):
        problems.append("call counts differ between traced loops")
        failed += 1
    overhead = (sum(normalised_us(traced).values()) / sum(normalised_us(plain).values()) - 1.0)
    metrics = per_layer_metrics(merge_layers([res["layers"] for res in traced]),
                                spawn_ok("kernels", {"seed": seed}, cwd)["kernels"], {}, overhead)
    return 2 * MIN_TRACED_REPS * TRACED_OPS, failed, problems, metrics, {}


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    spec = [(f"lapack.{fn}.calls", "count", "lower") for fn in LAPACK]
    spec += [("lapack.calls", "count", "lower"), ("lapack.busy_s", "s", "lower")]
    for layer in ("linalg", "means", "majorization", "suite"):
        for fn in LAYERS[layer][1]:
            if fn != "run_suite":
                spec += [(f"{layer}.{fn}.calls", "count", "lower"),
                         (f"{layer}.{fn}.self_s", "s", "lower")]
    spec += [(f"{name}.us.n{n}", "us", "lower") for name in KERNELS for n in SIZES]
    spec += [("majorization.oracle_mismatches", "count", "lower"),
             ("suite.run_suite.s", "s", "lower"),
             ("suite.rows", "count", "higher")]
    spec += [(f"matrixio.{fn}.self_s", "s", "lower") for fn in LAYERS["matrixio"][1]]
    spec += [("matrixio.report_bytes", "bytes", "lower"),
             ("cli.main.self_s", "s", "lower"),
             ("trace_overhead_frac", "ratio", "lower")]
    return spec


def merge_layers(runs: list[dict]) -> dict:
    """Median of each per-span statistic over several traced runs."""
    names = sorted({name for run in runs for name in run})
    return {name: {key: statistics.median(run.get(name, {}).get(key, 0) for run in runs)
                   for key in {k for run in runs for k in run.get(name, {})}}
            for name in names}


def per_layer_metrics(layers: dict, kernels: dict, report: dict, overhead: float) -> dict:
    """Per-layer metrics from merged span statistics.  A layer that the
    workload never reaches reads 0, as do the per-size kernel times
    outside means_calls."""
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    special = {
        "lapack.calls": sum(get(f"lapack.{fn}", "calls") for fn in LAPACK),
        "lapack.busy_s": sum(get(f"lapack.{fn}", "total_s") for fn in LAPACK),
        "majorization.oracle_mismatches": report.get("oracle_mismatches", 0),
        "suite.run_suite.s": get("suite.run_suite", "total_s"),
        "suite.rows": report.get("rows", 0),
        "matrixio.report_bytes": report.get("bytes", 0),
        "trace_overhead_frac": overhead,
    }
    metrics = {}
    for name, unit, _ in per_layer_spec():
        if name in special:
            value = special[name]
        elif ".us.n" in name:
            value = kernels.get(name, 0.0)
        else:
            value = get(*name.rsplit(".", 1))
        metrics[name] = (int(value) if unit == "count" else value, unit)
    return metrics


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as cwd:
        if workload in VERIFY:
            return run_verify(workload, seed, seconds, trace, cwd, env)
        return run_means(seed, seconds, trace, cwd)


def _print_table(workload, seed, trace, attempted, failed, problems, metrics, extra):
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{attempted} operations, {failed} failed")
    rows = {**metrics, **extra, "error_rate": (failed / max(attempted, 1), "ratio")}
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for line in problems[:10]:
        print(f"  problem: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "spdmeans", "__init__.py")):
        print(f"error: no spdmeans source tree at {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    results = {}
    for workload in names:
        attempted, failed, problems, metrics, extra = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), env)
        _print_table(workload, args.seed, args.trace, attempted, failed, problems, metrics, extra)
        total_attempted += attempted
        total_failed += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        results.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()})
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
