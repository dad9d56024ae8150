"""One measured process of the spdmeans benchmark.

Usage: python3 child.py MODE SRC_DIR SPEC_JSON

MODE is ``import`` (set-up time, then a calibration burst), ``verify`` (one ``spdmeans verify``
command through ``spdmeans.cli.main``), ``means`` (the means_calls closed
loop) or ``kernels`` (per-size call times of the means and of
``mat_sqrt_pair``).  The last line of standard output is a JSON object
with the results.  Only ``sys`` and ``time`` are imported before
``spdmeans``, so the reported import time is the set-up a user of the
package pays.
"""

import sys
import time

sys.path.insert(0, sys.argv[2])
import spdmeans  # noqa: E402

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

CAL_INTERVAL_S = 0.2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verify(spec: dict) -> dict:
    """One verify command.  Untraced, a timer signal interrupts it every
    CAL_INTERVAL_S for one calibration pass, so the host's speed is
    sampled throughout the command; the passes are not counted in
    ``verify_s``.  Traced, nothing interrupts it: the passes would land
    inside the spans."""
    import meanscalls
    import spdmeans.cli

    args = meanscalls.calibration_args(spec["calibration"])
    passes = []
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        signal.signal(signal.SIGALRM, lambda *_: passes.append(meanscalls.calibration_pass(args)))
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
    main = spdmeans.cli.main
    t0 = time.perf_counter()
    code = main(spec["argv"])
    signal.setitimer(signal.ITIMER_REAL, 0)
    verify_s = time.perf_counter() - t0 - sum(passes)
    if tracer is not None:
        tracer.uninstall()
    return {
        "exit_code": code,
        "verify_s": verify_s,
        "calibration_s": (statistics.median(passes) if passes
                          else meanscalls.calibration(spec["calibration"])),
        "peak_rss_mb": _peak_rss_mb(),
        "layers": tracer.aggregate() if tracer is not None else None,
    }


def _means(spec: dict) -> dict:
    import meanscalls

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    loop = meanscalls.run_loop(spdmeans, spec["seed"], spec["stream"],
                               spec.get("seconds"), spec.get("ops"))
    if tracer is not None:
        tracer.uninstall()
    lat = loop["latency_s"]
    return {
        "latency_ms": (lat * 1e3).tolist(),
        "reference_ms": (loop["reference_s"] * 1e3).tolist(),
        "failed": len(loop["problems"]),
        "problems": loop["problems"][:5],
        "worst_rel_dev": loop["worst_rel_dev"],
        "peak_rss_mb": _peak_rss_mb(),
        "layers": tracer.aggregate() if tracer is not None else None,
    }


def _kernels(spec: dict) -> dict:
    import meanscalls

    return {"kernels": meanscalls.kernel_times(spdmeans, spec["seed"])}


def main() -> int:
    mode, src = sys.argv[1], os.path.realpath(sys.argv[2])
    if not os.path.realpath(spdmeans.__file__).startswith(src + os.sep):
        print(f"spdmeans imported from {spdmeans.__file__}, not {src}", file=sys.stderr)
        return 3
    spec = json.loads(sys.argv[3])
    result = {"import_done": IMPORT_DONE}
    if mode == "verify":
        result.update(_verify(spec))
    elif mode == "means":
        result.update(_means(spec))
    elif mode == "kernels":
        result.update(_kernels(spec))
    elif mode == "import":
        import meanscalls
        result["calibration_s"] = meanscalls.calibration(spec["calibration"])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
