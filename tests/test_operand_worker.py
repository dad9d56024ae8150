"""From matrix order ``means._WORKER_ORDER`` on, the public means take B's
Cholesky factor on one worker thread while the calling thread decomposes A;
``similarity_witness`` decomposes both operands in the calling thread.  The
results, the errors and their order are those of the serial kernels; the
worker starts on the first such call, and a forked child does without it."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from spdmeans import (g_factor, means, metric_mean, metric_mean_factor, sample_pd,
                      similarity_witness, spectral_mean, spectral_mean_factor)
from spdmeans.errors import NonFiniteInput, NonHermitianInput, NonPositiveSpectrum
from spdmeans.linalg import from_eig, require_hermitian, require_real, row_power, spd

GATE = means._WORKER_ORDER
WORKER = "spdmeans-operand"


def _g(a, L, t):
    w, U = means._inv_sharp(a, L)
    return from_eig(U, row_power(w, t))


# each public function, and its kernel on operands decomposed in this thread
SERIAL = {
    metric_mean: lambda a, b, t: means.gram(means._metric_factor(a, b, t)),
    metric_mean_factor: means._metric_factor,
    spectral_mean: lambda a, b, t: means.gram(means._nat_factor(a, b, t)),
    spectral_mean_factor: means._nat_factor,
    g_factor: _g,
    similarity_witness: means._similarity_witness,
}


def b_operand(fn, B):
    """B as ``fn`` takes it: by its Cholesky factor, except the witness,
    which also takes B as the first operand of B nat A."""
    return spd(require_hermitian(B)) if fn is similarity_witness else means._cholesky(B)


def serial(fn, A, B, t):
    return SERIAL[fn](spd(require_hermitian(A)), b_operand(fn, B), t)


def pair(n: int, seed: int, real: bool = False):
    A, B = sample_pd(n, seed, 100.0), sample_pd(n, seed + 1, 100.0)
    return (A.real.copy(), B.real.copy()) if real else (A, B)


def worker_runs() -> bool:
    return any(th.name == WORKER for th in threading.enumerate())


def test_the_gate_is_above_the_benchmarked_small_orders():
    assert 16 < GATE <= 64


@pytest.mark.parametrize("n", [GATE, GATE + 1])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("fn", SERIAL, ids=lambda fn: fn.__name__)
def test_results_above_the_gate_are_bitwise_the_serial_kernels(fn, real, n):
    A, B = pair(n, 10 * n, real)
    for t in (0.0, 0.3, 1.0):
        assert pickle.dumps(fn(A, B, t)) == pickle.dumps(serial(fn, A, B, t)), t
    if fn is not similarity_witness:   # the witness runs serially at every order
        assert worker_runs()


@pytest.mark.parametrize("fn", SERIAL, ids=lambda fn: fn.__name__)
def test_a_stack_above_the_gate_is_bitwise_the_serial_kernels(fn):
    A, B = (np.stack(Xs) for Xs in zip(pair(GATE, 7), pair(GATE, 9)))
    assert pickle.dumps(fn(A, B, 0.3)) == pickle.dumps(serial(fn, A, B, 0.3))


def _bad(kind: str, n: int) -> np.ndarray:
    X = np.eye(n)
    if kind == "singular":
        X[1, 1] = 0.0
    elif kind == "non-hermitian":
        X[0, -1] = 1.0
    elif kind == "non-finite":
        X[1, 1] = np.nan
    return X


def _first_error(fn, A, B, t):
    """The error the serial path of ``fn`` raises: A's, then B's, then t's."""
    for step in (lambda: spd(require_hermitian(A)), lambda: b_operand(fn, B),
                 lambda: require_real(t, "weight t", 0.0, 1.0)):
        try:
            step()
        except Exception as exc:        # the first step that raises is the expected error
            return type(exc), str(exc)
    raise AssertionError("no operand is bad")


@pytest.mark.parametrize("n", [6, GATE], ids=["below-gate", "above-gate"])
@pytest.mark.parametrize("a_kind, b_kind, t, error", [
    ("good", "singular", 0.3, NonPositiveSpectrum),
    ("good", "non-finite", 0.3, NonFiniteInput),
    ("non-hermitian", "singular", 0.3, NonHermitianInput),
    ("singular", "non-hermitian", 0.3, NonPositiveSpectrum),
    ("good", "good", 1.5, ValueError),
    ("good", "non-hermitian", 1.5, NonHermitianInput),
], ids=["B", "B-non-finite", "A-over-B", "A-singular-over-B", "t", "B-over-t"])
@pytest.mark.parametrize("fn", SERIAL, ids=lambda fn: fn.__name__)
def test_errors_come_in_operand_order_on_either_side_of_the_gate(fn, n, a_kind, b_kind, t,
                                                                 error):
    A, B = _bad(a_kind, n), _bad(b_kind, n)
    expected = _first_error(fn, A, B, t)
    assert expected[0] is error
    with pytest.raises(error) as info:
        fn(A, B, t)
    assert (type(info.value), str(info.value)) == expected


def test_the_worker_decomposes_b_under_the_callers_errstate():
    """numpy's error state belongs to the calling context, which the worker
    runs B's decomposition in: subnormal entries underflow as in a serial call."""
    A = pair(GATE, 3, real=True)[0]
    B = 1e-310 * A
    for fn in (metric_mean, spectral_mean):
        with np.errstate(under="raise"):
            expected = pytest.raises(FloatingPointError, serial, fn, A, B, 0.5)
            with pytest.raises(FloatingPointError) as info:
                fn(A, B, 0.5)
        assert str(info.value) == str(expected.value)
        assert pickle.dumps(fn(A, B, 0.5)) == pickle.dumps(serial(fn, A, B, 0.5))


def test_concurrent_callers_each_get_their_own_results():
    """Four callers, more than the cores, share the one worker; a reply
    handed to the wrong caller would give it another pair's mean."""
    pairs = [[pair(GATE, 100 * k + 2 * i, real=k % 2 == 1) for i in range(3)] for k in range(4)]
    expected = [[(serial(metric_mean, A, B, 0.3), serial(spectral_mean, A, B, 0.3))
                 for A, B in mine] for mine in pairs]
    got = [[] for _ in pairs]
    errors = []

    def call(k):
        try:
            for _ in range(2):
                for A, B in pairs[k]:
                    got[k].append((metric_mean(A, B, 0.3), spectral_mean(A, B, 0.3)))
        except Exception as exc:         # asserted after the joins
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(pairs))]
        for th in callers:
            th.start()
        for th in callers:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for mine, want in zip(got, expected):
        assert [X.tobytes() for results in mine for X in results] == \
            [X.tobytes() for results in 2 * want for X in results]


fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@fork_only
def test_a_forked_child_computes_the_means_without_the_parents_worker():
    """The worker thread stays in the parent; a child that queued B for it
    would wait forever."""
    A, B = pair(64, 21)
    expected = pickle.dumps((metric_mean(A, B, 0.3), spectral_mean(A, B, 0.3)))
    assert worker_runs()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if pickle.dumps((metric_mean(A, B, 0.3), spectral_mean(A, B, 0.3))) \
                == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
        time.sleep(0.01)
    if done == (0, 0):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


RUN_AFTER_A_LARGE_CALL = """
import sys, threading
import numpy as np
from spdmeans import means, metric_mean, run_suite
from spdmeans.matrixio import report_csv_text
from spdmeans.suite import SuiteConfig

def state():
    return threading.active_count(), "queue" in sys.modules

cfg = SuiteConfig(trials=2, limit_trials=1)
print(state())
before = report_csv_text(run_suite(cfg))
n = means._WORKER_ORDER
metric_mean(np.eye(n - 1), np.eye(n - 1), 0.5)
print(state())
metric_mean(np.eye(n), 2 * np.eye(n), 0.5)
print(state())
print(report_csv_text(run_suite(cfg)) == before)
print(sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules))
"""


def test_the_worker_starts_on_the_first_call_above_the_gate(subprocess_env):
    """``import spdmeans`` and calls below the gate start no thread and load
    no queue module; the first call at the gate starts the one worker, and
    the battery's forked workers then give the same rows as before."""
    proc = subprocess.run([sys.executable, "-c", RUN_AFTER_A_LARGE_CALL], env=subprocess_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(1, False)", "(1, False)", "(2, True)", "True", "[]"]


WITNESS_AT_THE_GATE = """
import sys, threading
import numpy as np
from spdmeans import means, metric_mean, similarity_witness

def state():
    return sorted(th.name for th in threading.enumerate()), "queue" in sys.modules

n = means._WORKER_ORDER
similarity_witness(np.eye(n), 2 * np.eye(n), 0.5)
print(state())
metric_mean(np.eye(n), 2 * np.eye(n), 0.5)
print(state())
"""


def test_the_witness_at_the_gate_starts_no_worker(subprocess_env):
    """``similarity_witness`` decomposes both operands in the calling thread
    at every order; a mean at the same order then starts the worker."""
    proc = subprocess.run([sys.executable, "-c", WITNESS_AT_THE_GATE], env=subprocess_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(['MainThread'], False)",
                                        f"(['MainThread', '{WORKER}'], True)"]
