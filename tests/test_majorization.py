"""Tests for majorization orderings, Ky Fan norms and the compound oracle."""

import itertools
import warnings
from functools import partial

import numpy as np
import pytest

from spdmeans import (
    compound_cross_check,
    eig_log_majorizes,
    hermitize,
    ky_fan_norm,
    log_majorizes,
    majorizes,
    mat_power,
    metric_mean,
    sample_pd,
    spectral_mean,
    weak_majorizes,
)
from spdmeans.errors import (BadOrder, DimensionMismatch, LengthMismatch, NegativeEntry,
                             NonFiniteInput, NonrealSpectrum, NumericBreakdown)
from spdmeans.linalg import _compound
from spdmeans.majorization import _compound_spectra
from spdmeans.suite import NATLOG_COUNTEREXAMPLE


class TestMajorizes:
    def test_hand_example_true(self):
        rep = majorizes((3.0, 1.0), (2.0, 2.0))
        assert rep.verdict
        np.testing.assert_allclose(rep.margins, [1.0, 0.0])

    def test_hand_example_false(self):
        assert not majorizes((2.0, 2.0), (3.0, 1.0)).verdict

    def test_birkhoff_mixtures_are_majorized(self):
        # oracle: convex mixtures of permutations of y are majorized by y
        rng = np.random.default_rng(5)
        y = np.sort(rng.uniform(0.1, 10.0, 5))[::-1]
        perms = list(itertools.permutations(range(5)))
        for _ in range(25):
            idx = rng.integers(0, len(perms), 4)
            w = rng.dirichlet(np.ones(4))
            x = sum(wi * y[list(perms[i])] for wi, i in zip(w, idx))
            assert majorizes(y, x).verdict

    def test_unequal_totals_fail(self):
        assert not majorizes((3.0, 1.0), (2.0, 1.0)).verdict

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes((1.0, 2.0), (1.0,))


class TestWeakMajorizes:
    def test_hand_example(self):
        assert weak_majorizes((3.0, 2.0), (1.0, 1.0)).verdict

    def test_reflexive(self):
        x = (2.5, 1.0, 0.5)
        assert weak_majorizes(x, x).verdict

    def test_log_implies_weak_for_positive_spectra(self):
        rng = np.random.default_rng(15)
        found = 0
        for _ in range(200):
            x = rng.uniform(0.1, 5.0, 4)
            y = rng.uniform(0.1, 5.0, 4)
            rep = log_majorizes(y, x, tol=0.0)
            if rep.verdict or (
                np.all(rep.margins >= 0) and rep.equality_defect >= 0
            ):
                # prefix products dominated: weak majorization must follow
                assert weak_majorizes(y, x).verdict
                found += 1
        assert found > 0


class TestLogMajorizes:
    def test_hand_example_true(self):
        assert log_majorizes((4.0, 1.0), (2.0, 2.0)).verdict

    def test_reference_spectra_fail(self):
        # 4-decimal spectra of the embedded counterexample pair
        rep = log_majorizes((105.9498, 40.4916), (105.9509, 40.4911))
        assert not rep.verdict
        assert rep.worst_margin < -1e-8

    def test_reflexive(self):
        x = (9.0, 3.0, 1.0)
        assert log_majorizes(x, x).verdict

    def test_transitive_with_slack(self):
        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(50):
            A = sample_pd(3, int(rng.integers(2**62)), 30.0)
            B = sample_pd(3, int(rng.integers(2**62)), 30.0)
            t = float(rng.uniform(0.1, 0.9))
            x = np.linalg.eigvalsh(metric_mean(A, B, t))[::-1]
            y = np.linalg.eigvalsh(
                hermitize(mat_power(B, t / 2) @ mat_power(A, 1 - t) @ mat_power(B, t / 2))
            )[::-1]
            z = np.linalg.eigvalsh(spectral_mean(A, B, t))[::-1]
            rxy = log_majorizes(y, x)
            ryz = log_majorizes(z, y)
            interior = min(
                float(np.min(rxy.margins[:-1])), float(np.min(ryz.margins[:-1]))
            )
            if rxy.verdict and ryz.verdict and interior >= 10e-9:
                assert log_majorizes(z, x).verdict
                checked += 1
        assert checked > 0

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeEntry):
            log_majorizes((1.0, -1.0), (1.0, 1.0))
        with pytest.raises(NegativeEntry):
            log_majorizes((1.0, 1.0), (0.0, 1.0))


class TestEigLogMajorizes:
    def test_identity_pair(self):
        assert eig_log_majorizes(np.eye(3), np.eye(3)).verdict

    def test_metric_mean_below_spectral_mean(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = sample_pd(n, int(rng.integers(2**62)), 100.0)
            B = sample_pd(n, int(rng.integers(2**62)), 100.0)
            t = float(rng.uniform(0, 1))
            assert eig_log_majorizes(
                metric_mean(A, B, t), spectral_mean(A, B, t), tol=1e-8
            ).verdict

    def test_reference_counterexample_fails(self):
        ce = NATLOG_COUNTEREXAMPLE
        t, s = ce["t"], ce["s"]
        mid = hermitize(
            mat_power(ce["B"], t * s / 2)
            @ mat_power(ce["A"], (1 - t) * s)
            @ mat_power(ce["B"], t * s / 2)
        )
        lhs = mat_power(mid, 1.0 / s)
        rep = eig_log_majorizes(lhs, spectral_mean(ce["A"], ce["B"], t))
        assert not rep.verdict

    def test_non_hermitian_product_via_similarity(self):
        # lambda(AB) computed from the Hermitian similarity A^{1/2} B A^{1/2}
        A = sample_pd(3, 45, 10.0)
        B = sample_pd(3, 46, 10.0)
        Ah = mat_power(A, 0.5)
        sim = hermitize(Ah @ B @ Ah)
        direct = np.sort(np.linalg.eigvals(A @ B).real)[::-1]
        np.testing.assert_allclose(
            np.linalg.eigvalsh(sim)[::-1], direct, rtol=1e-9
        )
        assert eig_log_majorizes(sim, sim).verdict

    def test_rejects_complex_spectrum(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(NonrealSpectrum):
            eig_log_majorizes(rot, rot)


STACK_X = np.stack([np.diag([1.0, 1.0]), np.diag([2.0, 0.5])])
STACK_Y = np.stack([np.diag([2.0, 0.5]), np.diag([1.0, 1.0])])


@pytest.mark.parametrize("call, message", [
    (partial(eig_log_majorizes, STACK_X, STACK_Y), "X and Y must be single matrices"),
    (partial(log_majorizes, [[2.0, 1.0], [1.0, 0.5]], [2.0, 1.0, 1.0, 0.5]), "y must be a vector"),
    (partial(majorizes, np.ones((2, 3)), np.ones((3, 2))), "y must be a vector"),
], ids=["stacked-matrices", "matrix-vs-vector", "mis-shaped"])
def test_reports_take_one_pair_of_vectors_or_matrices(call, message):
    """A stack, or a matrix passed as a spectrum, is refused rather than
    flattened into one long vector, which made each of these calls true
    although the stacked pair 1 alone is false."""
    assert not eig_log_majorizes(STACK_X[1], STACK_Y[1]).verdict
    with pytest.raises(DimensionMismatch, match=message):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("report", [majorizes, weak_majorizes, log_majorizes])
@pytest.mark.parametrize("y, x, name", [
    ([np.nan, 1.0], [1.0, 1.0], "y"),
    ([2.0, 1.0], [1.0, np.inf], "x"),
    ([2.0, -np.inf], [1.0, 1.0], "y"),
], ids=["y-nan", "x-inf", "y-minus-inf"])
def test_reports_refuse_non_finite_spectra(report, y, x, name):
    """An inf or NaN entry is refused by name instead of giving a report:
    its margins would be NaN or infinite and the verdict meaningless."""
    with pytest.raises(NonFiniteInput, match=f"^{name} entries must be finite$"):
        report(y, x)


class TestKyFanNorm:
    def test_identity(self):
        assert ky_fan_norm(np.eye(3), 2) == pytest.approx(2.0)

    def test_indefinite_uses_singular_values(self):
        assert ky_fan_norm(np.diag([3.0, -1.0]), 1) == pytest.approx(3.0)

    def test_full_order_is_trace_for_pd(self):
        P = sample_pd(4, 55, 30.0)
        assert ky_fan_norm(P, 4) == pytest.approx(float(np.trace(P).real), rel=1e-12)

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            ky_fan_norm(np.eye(2), 0)
        with pytest.raises(BadOrder):
            ky_fan_norm(np.eye(2), 3)

    def test_monotone_under_log_majorization(self):
        rng = np.random.default_rng(65)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A = sample_pd(n, int(rng.integers(2**62)), 50.0)
            B = sample_pd(n, int(rng.integers(2**62)), 50.0)
            t = float(rng.uniform(0, 1))
            X = metric_mean(A, B, t)
            Y = spectral_mean(A, B, t)
            assert eig_log_majorizes(X, Y, tol=1e-8).verdict
            for k in range(1, n + 1):
                assert ky_fan_norm(X, k) <= ky_fan_norm(Y, k) * (1 + 1e-9)


class TestCompoundCrossCheck:
    def test_equal_matrices(self):
        P = sample_pd(3, 75, 20.0)
        assert compound_cross_check(P, P)

    def test_mean_pair_agrees_with_eig_route(self):
        rng = np.random.default_rng(85)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            A = sample_pd(n, int(rng.integers(2**62)), 50.0)
            B = sample_pd(n, int(rng.integers(2**62)), 50.0)
            t = float(rng.uniform(0, 1))
            X = metric_mean(A, B, t)
            Y = spectral_mean(A, B, t)
            assert compound_cross_check(X, Y, tol=1e-8) == eig_log_majorizes(
                X, Y, tol=1e-8
            ).verdict

    def test_reference_counterexample_fails_and_agrees(self):
        ce = NATLOG_COUNTEREXAMPLE
        t, s = ce["t"], ce["s"]
        mid = hermitize(
            mat_power(ce["B"], t * s / 2)
            @ mat_power(ce["A"], (1 - t) * s)
            @ mat_power(ce["B"], t * s / 2)
        )
        lhs = mat_power(mid, 1.0 / s)
        rhs = spectral_mean(ce["A"], ce["B"], t)
        assert not compound_cross_check(lhs, rhs)
        assert not eig_log_majorizes(lhs, rhs).verdict

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_n_top_is_eigvalsh_of_the_one_by_one_compound(self, n):
        X = np.stack([sample_pd(n, seed, 100.0) for seed in range(8)])
        tops, kappa, det = _compound_spectra(X)
        C = _compound(X, n)
        assert tops[-1].tobytes() == np.linalg.eigvalsh(C)[..., -1].tobytes()
        assert det.tobytes() == C.real[..., 0, 0].tobytes()
        if n == 1:
            assert np.all(kappa == 1.0)

    def test_one_by_one(self):
        assert compound_cross_check([[2.0]], [[2.0]])
        assert not compound_cross_check([[2.0]], [[3.0]])   # equal determinants are required
        X = np.array([[[1e-3]], [[5.0]]])
        assert compound_cross_check(X, X).tolist() == [True, True]

    def test_dimension_cap(self):
        P = sample_pd(6, 95, 10.0)
        with pytest.raises(BadOrder):
            compound_cross_check(P, P)

    def test_overflowing_minors_are_a_named_breakdown(self):
        """Finite entries whose minors overflow, as the limit members' do at
        p_min_exp 56, raise before eigvalsh sees them, without a warning."""
        big = np.diag([1e200, 1e160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericBreakdown, match="compound oracle's order-2 minors"):
                compound_cross_check(big, big)
            with pytest.raises(NumericBreakdown, match="order-2"):
                compound_cross_check(np.eye(2), big)
