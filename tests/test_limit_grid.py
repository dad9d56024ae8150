"""The small-exponent limit families evaluated over the whole p grid from
one eigensystem per operand give bitwise the results of building each
member from a fresh decomposition of pX, and the number of LAPACK calls
of a group no longer grows with the grid."""

import collections
import re
import warnings

import numpy as np
import pytest

from spdmeans import (
    OracleTally,
    SuiteConfig,
    check_limit_sandwich,
    check_limit_spectral,
    check_trace_corollary,
    compound_cross_check,
    matrixio,
    sample_pd,
)
from spdmeans.cli import main
from spdmeans.errors import NumericBreakdown
from spdmeans.linalg import _eigh, _exp, _power, pymax, spd, spectral_norm, spectrum_of_factor
from spdmeans.means import _nat_factor, gram
from spdmeans.suite import (
    _bounded_log,
    _first_min,
    _limit,
    _logmaj,
    _outcomes,
    _trace,
    dyadic_grid,
    limit_target,
)

from helpers import bitwise_equal, same_float

T_GRID = SuiteConfig().t_grid


def hermitian_pairs(n: int, k: int, seed: int = 0):
    """k bounded logs of PD draws for A and for B, with a weight per pair."""
    A = _bounded_log(np.stack([sample_pd(n, seed + i, 100.0) for i in range(k)]))
    B = _bounded_log(np.stack([sample_pd(n, seed + 100 + i, 100.0) for i in range(k)]))
    return A, B, np.array([T_GRID[(seed + i) % len(T_GRID)] for i in range(k)])


# The per-p evaluation: every member from a fresh decomposition of pX.

def spectral_factor(A, B, t, p):
    a, b = spd(_exp(p * A)), spd(_exp(p * B))
    return _nat_factor(a, b.root, t)


def sandwich_factor(A, B, t, p):
    tc = t[:, None, None]
    return _exp(p * tc * B / 2.0) @ _exp(p * (1.0 - tc) * A / 2.0)


FACTOR = {"spectral": spectral_factor, "sandwich": sandwich_factor}


def member(family, A, B, t, p):
    F = FACTOR[family](A, B, t, p)
    return F, _power(gram(F), 1.0 / p)


def reference_trace(A, B, t, p_grid, tol):
    tc = t[:, None, None]
    target = np.sum(np.exp(_eigh((1.0 - tc) * A + tc * B)[0]), axis=-1)
    traces = [np.sum(spectrum_of_factor(spectral_factor(A, B, t, p)) ** (1.0 / p), axis=-1)
              for p in p_grid]
    return _outcomes("trace_descent", tol, {
        "t": t,
        "trace_lower_bound": _first_min([(tr - target) / target for tr in traces]),
        "trace_monotone": _first_min([(x - y) / target for x, y in zip(traces, traces[1:])],
                                     default=np.zeros_like(target)),
        "trace_final": traces[-1],
        "trace_target": target,
    })


def reference_limit(family, A, B, t, p_grid, tol, err_threshold, floor, tally):
    n, tc = A.shape[-1], t[:, None, None]
    target = limit_target(A, B, t)
    kf_scale = np.sum(np.exp(_eigh((1.0 - tc) * A + tc * B)[0]), axis=-1)   # the target's trace
    errs, specs, mats = [], [], []
    for p in p_grid:
        F, M = member(family, A, B, t, p)
        errs.append(spectral_norm(M - target))
        specs.append(np.log(spectrum_of_factor(F)) / p)
        mats.append(M)
    errs = np.array(errs)
    cols = {"t": t, "final_err": errs[-1],
            "final_err_margin": (err_threshold - errs[-1]) / err_threshold}
    # the smallest error step and Ky Fan step, as array expressions over the grid
    e0, e1 = errs[:-1], errs[1:]
    cols["err_monotone"] = np.where(e0 > floor, (e0 - e1) / pymax(e0, floor), 0.0).min(0, initial=0.0)
    ky_fan = np.cumsum(np.exp(specs), axis=-1)
    for i in range(len(p_grid) - 1):
        ok = _logmaj(cols, f"logmaj_step_{i}", specs[i + 1], specs[i], tol)
        if n <= 4:                       # the compound oracle, link by link
            agree = np.atleast_1d(compound_cross_check(mats[i + 1], mats[i], tol)) == ok
            tally.comparisons += agree.size
            tally.mismatches += int(np.count_nonzero(~agree))
        cols[f"kyfan_step_{i}"] = (ky_fan[i] - ky_fan[i + 1]).min(axis=-1) / kf_scale
    if family == "sandwich":
        upper = np.log(spectrum_of_factor(spectral_factor(A, B, t, 1.0)))
        for i, spec in enumerate(specs):
            cols[f"upper_bound_{i}"] = _first_min([
                (np.cumsum(upper, axis=-1) - np.cumsum(spec, axis=-1)).min(axis=-1),
                -np.abs(np.sum(upper, axis=-1) - np.sum(spec, axis=-1)),
            ])
    return _outcomes(f"limit_{family}", tol, cols)


@pytest.mark.parametrize("n", [1, 2, 6, 26, 64])
def test_eigh_is_equivariant_under_dyadic_scaling(n):
    k = 3 if n <= 6 else 1
    X = _bounded_log(np.stack([sample_pd(n, 7 * n + i, 100.0) for i in range(k)]))
    t = np.array(T_GRID)[:, None, None, None]
    operands = np.concatenate([X, ((1.0 - t) * X / 2.0).reshape(-1, n, n),
                               (t * X / 2.0).reshape(-1, n, n)])
    w, U = _eigh(operands)
    for p in dyadic_grid(10):
        wp, Up = _eigh(p * operands)
        assert bitwise_equal(wp, p * w) and bitwise_equal(Up, U)


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.check_id, g.verdict) == (w.check_id, w.verdict)
        assert same_float(g.worst_margin, w.worst_margin)
        assert list(g.detail) == list(w.detail)
        assert all(same_float(g.detail[key], w.detail[key]) for key in g.detail)


@pytest.mark.parametrize("p_min_exp", [0, 1, 10])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_grid_evaluators_match_the_per_p_evaluation(n, k, p_min_exp):
    A, B, t = hermitian_pairs(n, k, seed=n + k)
    p_grid, tol = dyadic_grid(p_min_exp), 1e-8
    assert_same_outcomes(_trace(A, B, t, p_grid, tol), reference_trace(A, B, t, p_grid, tol))
    for family in ("spectral", "sandwich"):
        tally, ref_tally = OracleTally(), OracleTally()
        got = _limit(family, A, B, t, p_grid, tol, 1e-2, 1e-8, tally)
        want = reference_limit(family, A, B, t, p_grid, tol, 1e-2, 1e-8, ref_tally)
        assert_same_outcomes(got, want)
        assert (tally.comparisons, tally.mismatches) == (
            ref_tally.comparisons, ref_tally.mismatches)
        assert tally.comparisons == (k * p_min_exp if n <= 4 else 0)


@pytest.mark.parametrize("t", [0.3, 1.0])
@pytest.mark.parametrize("p_min_exp", [10, 30])
def test_limit_command_matches_the_per_p_evaluation(t, p_min_exp, tmp_path, monkeypatch):
    A = np.array([[0.8, 0.2, -0.1], [0.2, -0.3, 0.4], [-0.1, 0.4, 0.5]])
    B = np.array([[-0.5, 0.1, 0.3], [0.1, 0.7, -0.2], [0.3, -0.2, 0.1]])
    matrixio.write_matrix(tmp_path / "a.json", A)
    matrixio.write_matrix(tmp_path / "b.json", B)
    monkeypatch.setenv("SPDMEANS_OUT_DIR", str(tmp_path))
    assert main(["limit", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--t", str(t),
                 "--p-min-exp", str(p_min_exp), "--out", "limit.csv"]) == 0
    A, B, tc = A[None], B[None], np.array([t])
    target = limit_target(A, B, tc)
    rows = []
    for p in dyadic_grid(p_min_exp):
        Xp, Sp = (member(family, A, B, tc, p)[1] for family in ("spectral", "sandwich"))
        rows.append((p, spectral_norm(Xp - target)[0], spectral_norm(Sp - target)[0],
                     float(np.trace(Xp[0]).real), float(np.trace(target[0]).real)))
    assert (tmp_path / "limit.csv").read_text(encoding="utf-8") == matrixio.limit_csv_text(rows)


LAPACK = ("eigh", "eigvalsh", "svd", "det", "qr", "solve", "eigvals")


@pytest.mark.parametrize("n", [2, 4, 6])
def test_group_call_count_does_not_grow_with_the_grid(n, monkeypatch):
    calls = collections.Counter()
    for name in LAPACK:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _fn=fn, _name=name, **kw: calls.update([_name]) or _fn(*a, **kw))
    A, B, t = hermitian_pairs(n, 5)
    evaluators = {
        "trace": lambda grid: _trace(A, B, t, grid, 1e-8),
        **{family: (lambda grid, f=family: _limit(f, A, B, t, grid, 1e-8, 1e-2, 1e-8, OracleTally()))
           for family in ("spectral", "sandwich")},
    }
    for name, evaluate in evaluators.items():
        counts = []
        for p_min_exp in (4, 10):
            calls.clear()
            evaluate(dyadic_grid(p_min_exp))
            counts.append(dict(calls))
        assert counts[0] == counts[1], name
        assert sum(counts[0].values()) > 0


@pytest.mark.parametrize("check", [check_trace_corollary, check_limit_spectral,
                                   check_limit_sandwich])
def test_overflowing_1_over_p_power_names_its_p(check):
    # near p = 2^-60 a member's spectrum is 1 + O(eps), whose 1/p power overflows
    A, B = sample_pd(3, 1, 10.0), sample_pd(3, 2, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericBreakdown, match=r"overflows at p=\S+ \(2\^-(59|60)\)"):
            check(A, B, 0.3, dyadic_grid(60))


# Group evaluators on chunks of several pairs and grid points: at k = 3 and
# n = 3 a chunk holds the grid points 2^0 .. 2^-150.
EVALUATORS = {
    "trace": lambda A, B, t, grid: _trace(A, B, t, grid, 1e-8),
    **{family: (lambda A, B, t, grid, f=family: _limit(f, A, B, t, grid, 1e-8, 1e-2, 1e-8, None))
       for family in ("spectral", "sandwich")},
}


def named_exponent(evaluate, A, B, t, grid, what: str) -> int:
    """The exponent m of the grid point 2^-m named by the breakdown of
    ``evaluate``, in which only the last pair breaks down: it names the
    same point when evaluated alone, and the other pairs evaluate."""
    evaluate(A[:-1], B[:-1], t[:-1], grid)
    named = []
    for X, Y, u in ((A, B, t), (A[-1:], B[-1:], t[-1:])):
        with pytest.raises(NumericBreakdown, match=what) as exc:
            evaluate(X, Y, u, grid)
        named.append(-int(re.search(r"\(2\^(-?\d+)\)", str(exc.value)).group(1)))
    assert named[0] == named[1]
    return named[0]


@pytest.mark.parametrize("name", ["trace", "spectral"])
def test_floor_breakdown_of_a_later_pair_names_the_first_grid_point(name):
    A, B, t = hermitian_pairs(3, 3, seed=5)
    A[2] = np.diag([30.0, 0.0, -30.0])   # exp(pA) has condition number e^(60 p)
    evaluate, grid, what = EVALUATORS[name], dyadic_grid(3), "positive-definite floor"
    assert named_exponent(evaluate, A, B, t, grid, what) == 0      # beyond 1e12 at p = 1, 1/2
    assert named_exponent(evaluate, A, B, t, grid[1:], what) == 1
    evaluate(A, B, t, grid[2:])


@pytest.mark.parametrize("name", EVALUATORS)
def test_overflow_of_a_later_pair_names_the_first_grid_point(name):
    # the zero pairs' members are exactly the identity, whose 1/p power never overflows
    zero = np.zeros((3, 3))
    A = np.stack([zero, zero, sample_pd(3, 1, 10.0)])
    B = np.stack([zero, zero, sample_pd(3, 2, 10.0)])
    t, evaluate = np.array([0.3, 0.5, 0.3]), EVALUATORS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        m = named_exponent(evaluate, A, B, t, dyadic_grid(60), "overflows")
        evaluate(A, B, t, dyadic_grid(m - 1))          # the grid points before it evaluate
    assert 50 < m <= 60
