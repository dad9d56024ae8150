"""Inputs, closed loop and reference check of the ``means_calls`` workload.

One operation is a ``metric_mean`` call followed by a ``spectral_mean``
call on the same SPD pair and weight, so the call mix alternates the two
means.  Timing the pair rather than each call puts the median inside one
size class: with one class per size, ten equal (size, mean) classes of
single calls would place the median on the boundary between two classes,
where it jumps from run to run.  Operation i has size ``SIZES[i % 5]``, so
five consecutive operations starting at a multiple of five form a cycle
with one operation of each size.

Every operation gets a fresh pair, drawn just before it is timed, so no
argument repeats within a run, as for independent library calls.  A cache
keyed on the input arrays would therefore gain nothing here, as it would
gain nothing for real callers.  Inputs are built with plain numpy from the
benchmark seed, not with ``spdmeans.sample_pd``, so the program under test
never generates its own inputs.  Each result is checked right after it is
timed against this module's own evaluation of the defining formula.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
# Bound here so that a traced loop does not count the benchmark's own
# input generation and reference check: the tracer replaces the names in
# numpy.linalg and in spdmeans, not these.
from numpy.linalg import eigh, norm, qr

SIZES = (2, 4, 6, 16, 64)
T_GRID = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)   # SuiteConfig().t_grid
SPREAD = 100.0                                     # SuiteConfig().spread
RTOL = 1e-8        # relative Frobenius tolerance against the reference
KERNEL_CALLS = 100  # timed calls per function and size, after 2 warm-up calls
CAL_PASSES = 30    # timed passes per calibration burst
# Time of one ``reference`` evaluation per size, in microseconds, on the
# 2-core Xeon VM the benchmark was built on, uncontended (fastest of a few
# hundred calls).  Times normalised with the reference (see run.py) are
# given at this speed.
REFERENCE_US = {2: 105.0, 4: 117.0, 6: 131.0, 16: 360.0, 64: 4630.0}


def _spd(rng, n: int) -> np.ndarray:
    """Q diag(lam) Q* with Q from a complex Gaussian QR and log-uniform lam."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = qr(Z)
    lam = np.exp(rng.uniform(-np.log(SPREAD), np.log(SPREAD), n))
    X = (Q * lam) @ Q.conj().T
    return (X + X.conj().T) / 2


def operations(seed: int, stream: int = 0, sizes=SIZES):
    """Endless (n, A, B, t) arguments, deterministic in (seed, stream).

    Operation i has size ``sizes[i % len(sizes)]``, a fresh SPD pair and a
    weight drawn from the default t-grid.  Separate streams of one seed
    give separate inputs, so the processes of one run never share pairs.
    """
    rng = np.random.default_rng([seed, stream])
    i = 0
    while True:
        n = sizes[i % len(sizes)]
        yield n, _spd(rng, n), _spd(rng, n), T_GRID[rng.integers(len(T_GRID))]
        i += 1


def _power(H: np.ndarray, r: float) -> np.ndarray:
    w, U = eigh((H + H.conj().T) / 2)
    return (U * w**r) @ U.conj().T


def reference(A, B, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The defining formulas of A #_t B and A nat_t B."""
    Ah, Aih = _power(A, 0.5), _power(A, -0.5)
    metric = Ah @ _power(Aih @ B @ Aih, t) @ Ah
    Ct = _power(Aih @ _power(Ah @ B @ Ah, 0.5) @ Aih, t)   # (A^{-1} # B)^t
    return metric, Ct @ A @ Ct


def deviation(got, expected) -> float:
    """Largest relative Frobenius deviation of (metric, spectral) results."""
    return max(float(norm(g - r) / norm(r)) for g, r in zip(got, expected))


def calibration_args(sizes) -> list:
    """One fixed (n, A, B, t) per size for calibration passes."""
    return list(itertools.islice(operations(0, 2000, sizes), len(sizes)))


def calibration_pass(args) -> float:
    """Seconds taken by ``reference`` on each of ``args``: a yardstick of the
    host's current speed that runs no spdmeans code."""
    t0 = time.perf_counter()
    for _, A, B, t in args:
        reference(A, B, t)
    return time.perf_counter() - t0


def calibration(sizes) -> float:
    """Fastest of CAL_PASSES back-to-back calibration passes over ``sizes``."""
    args = calibration_args(sizes)
    return min(calibration_pass(args) for _ in range(CAL_PASSES))


def run_loop(spdmeans, seed: int, stream: int = 0, seconds: float | None = None,
             ops: int | None = None) -> dict:
    """Closed loop with one caller, for ``ops`` operations or for about
    ``seconds``, ending on a whole cycle.

    Only the two calls of each operation are timed; drawing the inputs and
    checking the results happen outside that interval.  An operation
    fails if a call raises or a result is off the reference by more than
    RTOL.  Returns per-operation latencies in operation order, the time of
    the reference evaluation right after each operation on the same
    arguments, the failures, and the largest deviation seen.
    """
    metric_mean, spectral_mean = spdmeans.metric_mean, spdmeans.spectral_mean
    clock = time.perf_counter
    lat, ref = [], []
    problems = []
    worst = 0.0
    deadline = clock() + seconds if seconds is not None else float("inf")
    for i, (_, A, B, t) in enumerate(operations(seed, stream)):
        if i == ops or (i and i % len(SIZES) == 0 and clock() >= deadline):
            break
        t_call = clock()
        try:
            got = (metric_mean(A, B, t), spectral_mean(A, B, t))
        except Exception as exc:  # a failed operation is counted, not fatal
            got = None
            problems.append(f"operation {i}: {exc!r}")
        t_ref = clock()
        expected = reference(A, B, t)
        ref.append(clock() - t_ref)
        lat.append(t_ref - t_call)
        if got is not None:
            dev = deviation(got, expected)
            worst = max(worst, dev)
            if not dev <= RTOL:
                problems.append(f"operation {i}: deviation {dev:.3g} from the reference")
    return {"latency_s": np.array(lat), "reference_s": np.array(ref), "problems": problems,
            "worst_rel_dev": worst}


def kernel_times(spdmeans, seed: int) -> dict[str, float]:
    """Median call time in microseconds of metric_mean, spectral_mean and
    mat_sqrt_pair at each size, each call on a fresh pair."""
    fns = {
        "means.metric_mean": spdmeans.metric_mean,
        "means.spectral_mean": spdmeans.spectral_mean,
        "linalg.mat_sqrt_pair": lambda A, B, t: spdmeans.linalg.mat_sqrt_pair(A),
    }
    out = {}
    for k, (name, fn) in enumerate(fns.items()):
        for n in SIZES:
            times = []
            args = operations(seed, 1000 + k, sizes=(n,))
            for _ in range(2 + KERNEL_CALLS):
                _, A, B, t = next(args)
                t0 = time.perf_counter()
                fn(A, B, t)
                times.append(time.perf_counter() - t0)
            out[f"{name}.us.n{n}"] = float(np.median(times[2:]) * 1e6)
    return out
