"""The registry checks run in forked workers: the rows, their order, the
oracle tally and the first error do not depend on the worker count, and
no worker outlives the run."""

import copy
import dataclasses
import os
import pickle
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from spdmeans import OracleTally, SuiteConfig, run_suite
from spdmeans import suite
from spdmeans.errors import NumericBreakdown
from spdmeans.suite import _REGISTRY, CheckOutcome, _registry_rows

# failing rows (with witnesses) at tol 1e-14, and n = 1 next to n = 5
CFG = SuiteConfig(seed=3, trials=6, limit_trials=2, dims=(1, 5), tol=1e-14)
fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_value(x, y):
    if isinstance(x, dict):
        assert list(x) == list(y)
        for key in x:
            assert_same_value(x[key], y[key])
    elif isinstance(x, np.ndarray):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    else:
        assert type(x) is type(y) and repr(x) == repr(y)


def registry_rows(workers):
    tally = OracleTally()
    return _registry_rows(CFG, workers, tally), tally


@pytest.fixture(scope="module")
def serial():
    return registry_rows(1)


def test_reference_config_has_failing_rows_with_witnesses(serial):
    rows, tally = serial
    assert {out.check_id for out in rows} == {check.check_id for check in _REGISTRY}
    assert any(not out.verdict and out.witness for out in rows)
    assert tally.comparisons > 0


@pytest.mark.parametrize("copy_row", [lambda out: pickle.loads(pickle.dumps(out)), copy.copy,
                                      copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_a_row_with_a_witness_survives_pickle_and_copy(copy_row, serial):
    out = next(out for out in serial[0] if not out.verdict and out.witness)
    got = copy_row(out)
    assert type(got) is CheckOutcome and got is not out
    for f in dataclasses.fields(CheckOutcome):     # the detail and witness keys in order
        assert_same_value(getattr(got, f.name), getattr(out, f.name))


@fork_only
@pytest.mark.parametrize("workers", [2, 3, 12])
def test_outcomes_do_not_depend_on_the_worker_count(workers, serial):
    rows, tally = registry_rows(workers)
    assert tally == serial[1]
    assert len(rows) == len(serial[0])
    for x, y in zip(rows, serial[0]):
        for name in ("check_id", "verdict", "worst_margin", "witness", "detail", "trial", "seed"):
            assert_same_value(getattr(x, name), getattr(y, name))
    assert_no_children()


@fork_only
def test_a_failed_fork_leaves_its_checks_to_the_caller(serial, monkeypatch):
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    rows, tally = registry_rows(3)
    assert len(forks) == 2
    assert tally == serial[1]
    assert [(o.check_id, o.trial, o.worst_margin) for o in rows] == [
        (o.check_id, o.trial, o.worst_margin) for o in serial[0]]
    assert_no_children()


def raising(idx):
    def public(*inputs, **options):
        raise NumericBreakdown(f"check {idx} broke down")
    return public


def patch_registry(monkeypatch, public: dict):
    """Replace the public function, which makes the fixed rows, of some checks."""
    patched = list(_REGISTRY)
    for idx, replacement in public.items():
        patched[idx] = patched[idx]._replace(public=replacement)
    monkeypatch.setattr(suite, "_REGISTRY", tuple(patched))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("failing", [(3, 4), (4, 7)], ids=["child-first", "caller-first"])
def test_the_first_error_in_registry_order_is_raised(workers, failing, monkeypatch):
    """Two checks raise; with two workers each runs in its own process (odd
    indices in the child).  The lower index wins either way."""
    patch_registry(monkeypatch, {idx: raising(idx) for idx in failing})
    with pytest.raises(NumericBreakdown, match=f"^check {failing[0]} broke down$"):
        registry_rows(workers)
    assert_no_children()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fixture, check", [("counterexample_natlog", 5),
                                            ("counterexample_monotone", 4)])
def test_a_check_error_wins_over_a_fixture_error(workers, fixture, check, monkeypatch):
    """The fixtures are the last registry entries; with two workers the
    fixture and the check raise in different processes."""
    idx = [c.check_id for c in _REGISTRY].index(fixture)
    patch_registry(monkeypatch, {idx: raising(idx), check: raising(check)})
    with pytest.raises(NumericBreakdown, match=f"^check {check} broke down$"):
        registry_rows(workers)
    assert_no_children()


def pipe_read_ends() -> set[int]:
    """This process's descriptors open on the read end of a pipe."""
    import fcntl                        # POSIX only, as is os.fork
    ends = set()
    for fd in map(int, os.listdir("/dev/fd")):
        try:
            if (stat.S_ISFIFO(os.fstat(fd).st_mode)
                    and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY):
                ends.add(fd)
        except OSError:                 # the descriptor listdir itself used
            pass
    return ends


@fork_only
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_worker_holds_no_read_end_of_the_result_pipes(monkeypatch):
    """Only the caller reads the results: a forked worker closes the read
    end of its own pipe and of each earlier worker's, which it inherits.
    With three workers, check 2 runs in the second child."""
    before = pipe_read_ends()
    monkeypatch.setattr(suite, "_REGISTRY", (*_REGISTRY[:2], _REGISTRY[2]._replace(
        public=lambda *inputs, **options: CheckOutcome(
            "probe", True, 0.0, detail={"read_ends": len(pipe_read_ends() - before)}))))
    rows, _ = registry_rows(3)
    assert [out.detail for out in rows if out.check_id == "probe"] == [{"read_ends": 0}]
    assert_no_children()


def test_every_run_suite_row_comes_from_a_registry_entry():
    rows = run_suite(SuiteConfig(trials=2, limit_trials=1))
    assert ({out.check_id for out in rows}
            == {check.check_id for check in _REGISTRY} | {"oracle_agreement"})


def test_the_natlog_fixture_has_its_own_oracle_tally():
    idx = [c.check_id for c in _REGISTRY].index("counterexample_natlog")
    rows, tally = suite._check_rows(CFG, idx)
    assert [(out.check_id, out.trial, out.seed) for out in rows] == [
        ("counterexample_natlog", -1, CFG.seed)]
    assert tally.comparisons > 0 and tally.mismatches == 0


@fork_only
def test_a_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    patch_registry(monkeypatch, {1: lambda *inputs, **options: os._exit(3)})   # check 1: the child
    with pytest.raises(ChildProcessError, match="ended without a result"):
        registry_rows(2)
    assert_no_children()


@fork_only
def test_a_raising_caller_kills_the_workers_it_has_not_read(monkeypatch):
    """With three workers, worker 1 ends without a result while worker 2
    still runs: the caller raises on reading worker 1's pipe, then closes
    worker 2's and kills it rather than waiting out its run."""
    share = suite._share

    def share_or_stall(cfg, indices):
        first = indices[0]                  # 0 in the caller, w in worker w
        if first == 1:
            os._exit(0)
        if first == 2:
            time.sleep(60)
        return share(cfg, indices)

    monkeypatch.setattr(suite, "_share", share_or_stall)
    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="ended without a result"):
        registry_rows(3)
    assert time.monotonic() - start < 20
    assert_no_children()


@fork_only
def test_the_calling_process_runs_the_same_checks_on_every_call(monkeypatch):
    """Worker 0 is the calling process, and which checks it runs follows
    from the worker count alone: an in-process tracer or profiler sees the
    same share of the battery, and so the same call counts, on every run."""
    ran = []
    check_rows = suite._check_rows

    def recording(cfg, idx):                # in a child the record stays in the child
        ran[-1].append(idx)
        return check_rows(cfg, idx)

    monkeypatch.setattr(suite, "_check_rows", recording)
    for _ in range(2):
        ran.append([])
        registry_rows(2)
    assert ran[0] == ran[1]
    assert 0 < len(ran[0]) < len(_REGISTRY)
    assert_no_children()


def test_run_suite_leaves_no_child_behind(monkeypatch):
    cfg = SuiteConfig(trials=2, limit_trials=1)
    run_suite(cfg)
    assert_no_children()
    patch_registry(monkeypatch, {len(_REGISTRY) - 1: raising(len(_REGISTRY) - 1)})
    with pytest.raises(NumericBreakdown):
        run_suite(cfg)
    assert_no_children()


def test_importing_the_package_loads_no_process_pool(subprocess_env):
    code = ("import sys, spdmeans; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LAZY_IMPORT_PROBE = """
import importlib, sys
import spdmeans
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "spdmeans")
print(loaded())
for name in ("suite", "majorization"):
    assert getattr(spdmeans, name) is importlib.import_module("spdmeans." + name), name
for name in spdmeans.__all__:
    obj = getattr(spdmeans, name)
    if name == "errors":
        assert obj is sys.modules["spdmeans.errors"]
    else:
        home = obj.__module__
        assert home.startswith("spdmeans.") and vars(sys.modules[home])[name] is obj, name
star = {}
exec("from spdmeans import *", star)
assert all(star[name] is getattr(spdmeans, name) for name in spdmeans.__all__)
assert set(spdmeans.__all__) <= set(dir(spdmeans))
assert "check_natlog" not in vars(spdmeans)
original, spdmeans.suite.check_natlog = spdmeans.suite.check_natlog, object()
assert spdmeans.check_natlog is spdmeans.suite.check_natlog is not original
spdmeans.suite.check_natlog = original
try:
    spdmeans.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
import spdmeans.cli
print(loaded())
"""


def test_importing_the_package_loads_only_the_means(subprocess_env):
    """``import spdmeans`` leaves the suite and majorization to first use;
    every exported name still resolves, to its home module's object, and
    the command line loads the suite up front."""
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT_PROBE], env=subprocess_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    bare, cli = proc.stdout.splitlines()
    assert bare == str(["spdmeans", "spdmeans.errors", "spdmeans.linalg", "spdmeans.means"])
    assert "'spdmeans.suite'" in cli


def test_a_run_does_not_import_numpy_ma(subprocess_env):
    """numpy.ma, which np.unique imports on first use, costs each forked
    worker about 14 ms; on one CPU every check runs in the process asked."""
    code = ("import os, sys\n"
            "if hasattr(os, 'sched_setaffinity'):\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from spdmeans import SuiteConfig, run_suite\n"
            "run_suite(SuiteConfig(trials=2, limit_trials=1))\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
