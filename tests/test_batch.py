"""Batch invariance: evaluating stacks gives bitwise the results of
evaluating each matrix (or trial) on its own, and the group-level
shortcuts (square roots built on first use, compounds computed once per
distinct matrix, margins folded per column) give bitwise the results of
the direct per-matrix and per-row code."""

import math

import numpy as np
import pytest

from spdmeans import (
    CheckOutcome,
    OracleTally,
    SuiteConfig,
    compound_cross_check,
    metric_mean,
    sample_pd,
    spectral_mean,
)
from spdmeans import suite
from spdmeans.linalg import (
    compound,
    ct,
    hermitize,
    mat_power,
    pd_compose,
    pcg_states,
    pd_eig,
    pymax,
    row_power,
    spd,
)
from spdmeans.majorization import _compound_order, _compound_spectra, nonneg_spectrum
from spdmeans.suite import _REGISTRY, _stack


def bitwise_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x.real), np.signbit(y.real)))


def same_float(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


def draws(check, cfg: SuiteConfig, k: int) -> dict:
    """The draw columns of k trials, each drawn from its own generator; a
    matrix column holds the spreads and the PCG64 states of the seeds."""
    trials = [check.draw(cfg, np.random.default_rng([cfg.seed, j])) for j in range(k)]
    return {key: (np.array([d[key][0] for d in trials]),
                  pcg_states([d[key][1] for d in trials]))
            if isinstance(v, tuple) else np.array([d[key] for d in trials])
            for key, v in trials[0].items()}


@pytest.mark.parametrize("check", [c for c in _REGISTRY if c.draw], ids=lambda c: c.check_id)
@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_group_matches_batches_of_one(check, n):
    cfg = SuiteConfig(seed=5, p_min_exp=4)
    columns, k = draws(check, cfg, 5), 5
    stacked = {key: _stack(column, np.arange(k), n) for key, column in columns.items()}
    tally = OracleTally()
    group = check.run(cfg, tally, stacked)
    singles, single_tally = [], OracleTally()
    for i in range(k):
        one = {key: _stack(column, np.array([i]), n) for key, column in columns.items()}
        singles.extend(check.run(cfg, single_tally, one))
    assert len(group) == len(singles) == k
    for g, s in zip(group, singles):
        assert g.verdict == s.verdict
        assert same_float(g.worst_margin, s.worst_margin)
        assert list(g.detail) == list(s.detail)
        assert all(same_float(g.detail[key], s.detail[key]) for key in g.detail)
    assert (tally.comparisons, tally.mismatches) == (
        single_tally.comparisons, single_tally.mismatches)


@pytest.mark.parametrize("e", [0.5, 2.0, -1.0, 1024.0, 1.0 / 3.0])
def test_row_power_matches_scalar_power(e):
    rng = np.random.default_rng(2)
    w = np.exp(rng.uniform(-0.5, 0.5, (40, 6)))
    exps = rng.choice([e, 0.25, e], size=40)
    got = row_power(w, exps)
    for i in range(40):
        assert bitwise_equal(got[i], w[i] ** float(exps[i]))
    assert bitwise_equal(row_power(w, e), w ** e)


def test_row_power_of_a_stack_matches_scalar_power():
    """Exponents per matrix of a (P, N, n) spectrum stack or per leading row."""
    rng = np.random.default_rng(3)
    w = np.exp(rng.uniform(-3.0, 3.0, (3, 20, 5)))
    mixed = rng.choice([0.5, 2.0, -1.0, 1.0, 0.0, 0.3], size=(3, 20))
    for exps in (mixed + rng.choice([0.0, 0.1], size=(3, 20)), np.array([2.0, 0.7, -1.0])):
        got = row_power(w, exps)
        for idx in np.ndindex(exps.shape):
            assert bitwise_equal(got[idx], w[idx] ** float(exps[idx]))


def test_stacked_means_match_single_calls():
    A = np.stack([sample_pd(4, s, 100.0) for s in range(6)])
    B = np.stack([sample_pd(4, 10 + s, 100.0) for s in range(6)])
    for fn in (metric_mean, spectral_mean):
        got = fn(A, B, 0.3)
        for i in range(6):
            assert bitwise_equal(got[i], fn(A[i], B[i], 0.3))
    got = mat_power(A, -0.7)
    assert all(bitwise_equal(got[i], mat_power(A[i], -0.7)) for i in range(6))


def test_nonneg_spectrum_mixes_hermitian_and_product_rows():
    A = np.stack([sample_pd(3, s, 10.0) for s in range(4)])
    B = np.stack([sample_pd(3, 10 + s, 10.0) for s in range(4)])
    X = np.concatenate([A, A @ B])       # Hermitian rows, then products
    got = nonneg_spectrum(X)
    for i in range(8):
        assert bitwise_equal(got[i], nonneg_spectrum(X[i]))


def test_compound_cross_check_per_pair():
    A = np.stack([sample_pd(3, s, 10.0) for s in range(4)])
    got = compound_cross_check(A, A[::-1])
    assert got.shape == (4,)
    for i in range(4):
        assert got[i] == compound_cross_check(A[i], A[3 - i])


def test_lazy_roots_match_eager_formulas():
    P = np.stack([sample_pd(4, s, 100.0) for s in range(5)])
    w, U = pd_eig(P)
    s = np.sqrt(w)[..., None, :]
    root, inv_root = hermitize((U * s) @ ct(U)), hermitize((U / s) @ ct(U))
    for first in ("root", "inv_root"):       # either may be built first
        a = spd(P)
        assert "root" not in vars(a) and "inv_root" not in vars(a)
        getattr(a, first)
        assert list(vars(a)) == ["w", "U", first]
        assert bitwise_equal(a.w, w) and bitwise_equal(a.U, U)
        assert bitwise_equal(a.root, root) and bitwise_equal(a.inv_root, inv_root)
        assert a.root is a.root and a.inv_root is a.inv_root


@pytest.mark.parametrize("X", [
    np.arange(9.0).reshape(3, 3),
    np.arange(8.0).reshape(2, 2, 2) + 1j * np.arange(8.0)[::-1].reshape(2, 2, 2),
    np.array([[1, 2], [3, 4]]),
], ids=["real", "complex-stack", "int"])
def test_hermitize_is_half_the_sum(X):
    before = X.copy()
    got = hermitize(X)
    assert bitwise_equal(got, (X + X.conj().swapaxes(-1, -2)) / 2) and got.dtype.kind in "fc"
    assert bitwise_equal(X, before)


def reference_cross_check(X, Y, tol: float) -> np.ndarray:
    """The compound oracle as one pass over a pair of stacks, computing
    the compounds of both operands order by order."""
    n = X.shape[-1]
    eps = float(np.finfo(float).eps)
    ok = np.ones(X.shape[:-2], dtype=bool)
    for k in range(1, n + 1):
        cx, cy = compound(X, k), compound(Y, k)
        wx, wy = np.linalg.eigvalsh(cx), np.linalg.eigvalsh(cy)
        if k == 1:
            kappa = (wx[..., -1] / pymax(wx[..., 0], eps * wx[..., -1])
                     + wy[..., -1] / pymax(wy[..., 0], eps * wy[..., -1]))
            det_tol = pymax(tol, 64.0 * n * eps * kappa)
        ok &= ~(wx[..., -1] > wy[..., -1] * (1.0 + (det_tol if k == n else tol)))
    det_x, det_y = cx.real[..., 0, 0], cy.real[..., 0, 0]
    return ok & ~(np.abs(det_x - det_y) > det_tol * pymax(np.abs(det_x), np.abs(det_y)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grouped_oracle_matches_cross_check_link_by_link(n, monkeypatch):
    k = 6
    rng = np.random.default_rng(n)
    X = np.stack([sample_pd(n, s, 10.0) for s in range(k)])
    Q = np.stack([pd_compose(rng.standard_normal((n, n)) + 0j, np.ones(n)) for _ in range(k)])
    similar = hermitize(Q @ X @ ct(Q))     # same spectra as X: the order holds both ways
    Y = np.stack([sample_pd(n, 100 + s, 10.0) for s in range(k)])
    links = [(rng.random(k) < 0.5, lo, hi)
             for lo, hi in ((X, similar), (similar, X), (X, Y), (Y, X), (X, X), (Y, similar))]
    calls = []
    monkeypatch.setattr(suite, "_compound_spectra",
                        lambda M: calls.append(M) or _compound_spectra(M))
    for tol in (1e-8, 1e-14, 1e-16):
        calls.clear()
        tally = OracleTally()
        suite._oracle(tally, X, tol, lambda: links)
        # one pass over the group, each distinct stack in it once
        assert len(calls) == 1 and calls[0].shape == (3, k, n, n)
        mismatches = 0
        for ok, lo, hi in links:
            want = compound_cross_check(lo, hi, tol)
            assert np.array_equal(want, reference_cross_check(lo, hi, tol))
            got = _compound_order(_compound_spectra(lo), _compound_spectra(hi), tol)
            assert got.dtype == bool and np.array_equal(got, want)
            for i in range(k):
                assert want[i] == compound_cross_check(lo[i], hi[i], tol)
            mismatches += int(np.count_nonzero(want != ok))
        assert (tally.comparisons, tally.mismatches) == (k * len(links), mismatches)
    assert all(compound_cross_check(X, similar)) and all(compound_cross_check(X, X))
    assert n == 1 or not all(compound_cross_check(X, Y))


def finish(check_id: str, detail: dict, tol: float) -> CheckOutcome:
    """One row's outcome as the per-row code made it: the builtin ``min`` of
    its margins, a margin X folded with X_defect as min(X, -abs(X_defect))."""
    margins = [
        v if (d := detail.get(f"{key}_defect")) is None else min(v, -abs(d))
        for key, v in detail.items()
        if key not in suite._NOT_MARGINS and not key.endswith("_defect")
    ]
    worst = float(min(margins))
    return CheckOutcome(check_id=check_id, verdict=bool(worst >= -tol),
                        worst_margin=worst, detail=detail)


def test_group_fold_matches_per_row_min():
    nan, inf = math.nan, math.inf
    values = [nan, -0.0, 0.0, -1e-9, 1e-9, -2e-8, -inf, 3.0, -3.0]
    rng = np.random.default_rng(4)
    columns = {"t": rng.choice(values, 400), "a": rng.choice(values, 400),
               "a_defect": rng.choice(values, 400), "b": rng.choice(values, 400),
               "final_err": rng.choice(values, 400), "c": rng.choice(values, 400),
               "c_defect": rng.choice(values, 400)}
    for keys in (["a", "a_defect"], ["t", "b", "a", "a_defect", "c", "c_defect", "final_err"],
                 ["c_defect", "b", "c", "a_defect", "a"]):
        cols = {key: columns[key] for key in keys}
        got = suite._outcomes("x", 1e-8, cols)
        rows = [dict(zip(keys, row)) for row in zip(*(cols[key].tolist() for key in keys))]
        assert len(got) == len(rows)
        for g, row in zip(got, rows):
            want = finish("x", row, 1e-8)
            assert g.verdict is want.verdict
            assert same_float(g.worst_margin, want.worst_margin) and type(g.worst_margin) is float
            assert list(g.detail) == keys
            assert all(same_float(g.detail[key], row[key]) for key in keys)
