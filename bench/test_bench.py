"""Self-tests of the benchmark: python3 -m pytest bench"""

import itertools
import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import meanscalls  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 6] and c [7, 9]; a holds b [2, 5].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 5.0, 9.0]
    dur, own = self_times(parent, start, end)
    assert dur.tolist() == [10.0, 5.0, 3.0, 2.0]
    assert own.tolist() == [3.0, 2.0, 3.0, 2.0]


def test_tracer_records_nesting_and_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x)

    def body(x):
        inner(x)
        return inner(x)

    outer = tracer.wrap("outer", body)
    assert outer(np.eye(4)) is not None
    agg = tracer.aggregate()
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert agg["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.end[0] >= tracer.start[0] and not tracer._stack


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_wrappers_catch_calls_through_from_imports(tracer, tmp_path):
    import spdmeans.cli as cli
    import spdmeans.linalg as linalg
    import spdmeans.majorization as majorization
    import spdmeans.means as means
    import spdmeans.suite as suite

    for mod, name in ((suite, "sample_pd"), (means, "mat_sqrt_pair"),
                      (majorization, "hermitian_eig"), (cli, "sample_pd")):
        assert getattr(mod, name).__wrapped__ is getattr(linalg, name).__wrapped__

    A = np.diag([1.0, 4.0])
    B = np.diag([9.0, 1.0])
    means.metric_mean(A, B, 0.5)                  # means -> mat_sqrt_pair
    majorization.nonneg_spectrum(A)               # majorization -> hermitian_eig
    suite.check_loewner_heinz(A + np.eye(2), A, 0.5)   # suite -> mat_power
    out = tmp_path / "s.json"
    assert cli.main(["sample", "3", "1", "10", "--out", str(out)]) == 0   # cli -> sample_pd
    agg = tracer.aggregate()
    assert agg["linalg.mat_sqrt_pair"]["calls"] == 2
    assert agg["linalg.hermitian_eig"]["calls"] >= 3
    assert agg["linalg.mat_power"]["calls"] >= 2
    assert agg["linalg.sample_pd"]["calls"] == 1
    assert agg["lapack.eigh"]["calls"] == agg["linalg.hermitian_eig"]["calls"]
    assert agg["lapack.qr"]["calls"] == 1


def test_uninstall_restores_originals():
    import spdmeans.suite as suite

    before, eigh = suite.sample_pd, np.linalg.eigh
    tr = Tracer()
    tr.install()
    assert suite.sample_pd is not before and np.linalg.eigh is not eigh
    tr.uninstall()
    assert suite.sample_pd is before and np.linalg.eigh is eigh


def _first_ops(seed, stream=0, count=10):
    return list(itertools.islice(meanscalls.operations(seed, stream), count))


def test_means_inputs_follow_the_seed():
    a, b, c, d = _first_ops(5), _first_ops(5), _first_ops(6), _first_ops(5, stream=1)
    assert [op[0] for op in a] == [2, 4, 6, 16, 64] * 2
    for (n1, A1, B1, t1), (_, A2, B2, t2), (_, A3, _, _), (_, A4, _, _) in zip(a, b, c, d):
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2) and t1 == t2
        assert A1.shape == (n1, n1)
        assert not np.array_equal(A1, A3) and not np.array_equal(A1, A4)


def test_means_inputs_never_repeat_within_a_stream():
    ops = _first_ops(0, count=50)
    for i, (_, A, _, _) in enumerate(ops):
        assert not any(np.array_equal(A, other[1]) for other in ops[i + 1:])


def test_means_reference_matches_the_package():
    import spdmeans

    loop = meanscalls.run_loop(spdmeans, 0, ops=10)
    assert len(loop["latency_s"]) == 10
    assert not loop["problems"] and loop["worst_rel_dev"] < meanscalls.RTOL


def test_means_loop_counts_wrong_and_raising_calls():
    def wrong(A, B, t):
        return 2 * A

    def boom(A, B, t):
        raise ValueError("x")

    import spdmeans

    for fake in (types.SimpleNamespace(metric_mean=wrong, spectral_mean=spdmeans.spectral_mean),
                 types.SimpleNamespace(metric_mean=spdmeans.metric_mean, spectral_mean=boom)):
        loop = meanscalls.run_loop(fake, 0, ops=5)
        assert len(loop["problems"]) == 5 and len(loop["latency_s"]) == 5


def test_normalised_us_scales_each_latency_by_its_reference():
    k = len(meanscalls.SIZES)
    loop = {"latency_ms": [2.0] * k + [4.0] * k, "reference_ms": [1.0] * k + [1.0] * k}
    fast = {"latency_ms": [3.0] * k, "reference_ms": [3.0] * k}
    got = run.normalised_us([loop, fast])
    assert got == {n: 2.0 * meanscalls.REFERENCE_US[n] for n in meanscalls.SIZES}


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == run.per_layer_spec()
    assert list(run.per_layer_metrics({}, {}, {}, 0.0)) == [m[0] for m in declared]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
