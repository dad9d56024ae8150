"""Batch invariance: evaluating stacks gives bitwise the results of
evaluating each matrix (or trial) on its own."""

import math

import numpy as np
import pytest

from spdmeans import (
    OracleTally,
    SuiteConfig,
    compound_cross_check,
    metric_mean,
    sample_pd,
    spectral_mean,
)
from spdmeans.linalg import mat_power, row_power
from spdmeans.majorization import nonneg_spectrum
from spdmeans.suite import _REGISTRY, _seed_matrices, _stack


def bitwise_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x.real), np.signbit(y.real)))


def same_float(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or (
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y))


def draws(check, cfg: SuiteConfig, n: int, k: int) -> list[dict]:
    trials = [check.draw(cfg, np.random.default_rng([cfg.seed, j]), n) for j in range(k)]
    _seed_matrices(trials)
    return trials


@pytest.mark.parametrize("check", _REGISTRY, ids=lambda c: c.check_id)
@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_group_matches_batches_of_one(check, n):
    cfg = SuiteConfig(seed=5, p_min_exp=4)
    trials = draws(check, cfg, n, 5)
    stacked = {key: _stack([d[key] for d in trials]) for key in trials[0]}
    tally = OracleTally()
    group = check.run(cfg, tally, stacked)
    singles, single_tally = [], OracleTally()
    for d in trials:
        one = {key: _stack([d[key]]) for key in d}
        singles.extend(check.run(cfg, single_tally, one))
    assert len(group) == len(singles) == len(trials)
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
