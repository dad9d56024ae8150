"""Tests for the weighted metric and spectral geometric means."""

import mpmath as mp
import numpy as np
import pytest

from spdmeans import (
    g_factor,
    hermitize,
    mat_power,
    metric_mean,
    metric_mean_factor,
    sample_pd,
    similarity_witness,
    spectral_mean,
    spectral_mean_factor,
    spectrum_of_factor,
)
from spdmeans import means
from spdmeans.errors import DimensionMismatch, NonPositiveSpectrum, NumericBreakdown
from spdmeans.linalg import EPS_PD, mat_sqrt_pair, spd
from spdmeans.suite import NATLOG_COUNTEREXAMPLE

from helpers import rel_dev

U = np.finfo(float).eps / 2   # unit roundoff of doubles


def random_real_spd(rng, n, spread):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return hermitize((Q * lam) @ Q.T)


# --- extended-precision oracle (same composition, 60 digits) ---------------

def _mp_power(M, r):
    E, Q = mp.eigsy(M)
    D = mp.diag([mp.power(E[i], r) for i in range(M.rows)])
    return Q * D * Q.T


def mp_metric_mean(A, B, t):
    A = mp.matrix(A.tolist())
    B = mp.matrix(B.tolist())
    Ah = _mp_power(A, mp.mpf(1) / 2)
    Aih = _mp_power(A, -mp.mpf(1) / 2)
    W = Aih * B * Aih
    M = Ah * _mp_power((W + W.T) / 2, mp.mpf(t)) * Ah
    return _floats(M)


def mp_spectral_mean(A, B, t):
    A = mp.matrix(A.tolist())
    B = mp.matrix(B.tolist())
    Ah = _mp_power(A, mp.mpf(1) / 2)
    Aih = _mp_power(A, -mp.mpf(1) / 2)
    S = Ah * B * Ah
    C = Aih * _mp_power((S + S.T) / 2, mp.mpf(1) / 2) * Aih   # A^{-1} # B
    Ct = _mp_power((C + C.T) / 2, mp.mpf(t))
    return _floats(Ct * A * Ct)


def _floats(M):
    return np.array([[float(M[i, j]) for j in range(M.cols)] for i in range(M.rows)])


class TestMetricMean:
    def test_commuting_reduces_to_scalar_mean(self):
        got = metric_mean(np.eye(2), np.diag([4.0, 9.0]), 0.5)
        np.testing.assert_allclose(got, np.diag([2.0, 3.0]), atol=1e-12)

    def test_endpoints(self):
        A = sample_pd(3, 5, 50.0)
        B = sample_pd(3, 6, 50.0)
        assert rel_dev(metric_mean(A, B, 0.0), A) <= 1e-12
        assert rel_dev(metric_mean(A, B, 1.0), B) <= 1e-12

    def test_matches_extended_precision_oracle(self):
        mp.mp.dps = 60
        rng = np.random.default_rng(101)
        A = random_real_spd(rng, 2, 10.0)
        B = random_real_spd(rng, 2, 10.0)
        for t in (0.3, 0.5, 0.8):
            expected = mp_metric_mean(A, B, t)
            assert rel_dev(metric_mean(A, B, t), expected) <= 1e-10

    def test_weight_validation(self):
        A = sample_pd(2, 1, 10.0)
        with pytest.raises(ValueError):
            metric_mean(A, A, 1.5)
        with pytest.raises(ValueError):
            metric_mean(A, A, -0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            metric_mean(np.eye(2), np.eye(3), 0.5)


class TestSpectralMean:
    def test_commuting_diagonal(self):
        got = spectral_mean(np.diag([1.0, 4.0]), np.diag([9.0, 1.0]), 0.5)
        np.testing.assert_allclose(got, np.diag([3.0, 2.0]), atol=1e-12)

    def test_reference_two_by_two(self):
        # 4-decimal reference values for the embedded fixture pair at t=1/3
        ce = NATLOG_COUNTEREXAMPLE
        got = spectral_mean(ce["A"], ce["B"], ce["t"])
        assert np.max(np.abs(got - ce["printed_mean"])) <= 1e-3
        spec = np.linalg.eigvalsh(got)[::-1]
        assert np.max(np.abs(spec - ce["printed_mean_spectrum"])) <= 5e-4

    def test_endpoint_t1(self):
        A = sample_pd(4, 11, 100.0)
        B = sample_pd(4, 12, 100.0)
        assert rel_dev(spectral_mean(A, B, 1.0), B) <= 1e-9

    def test_determinant_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = sample_pd(n, int(rng.integers(2**62)), 100.0)
            B = sample_pd(n, int(rng.integers(2**62)), 100.0)
            t = float(rng.uniform(0, 1))
            lhs = np.sum(np.log(spectrum_of_factor(spectral_mean_factor(A, B, t))))
            rhs = (1 - t) * np.log(np.linalg.det(A).real) + t * np.log(
                np.linalg.det(B).real
            )
            assert abs(lhs - rhs) <= 1e-9

    def test_homogeneity(self):
        A = sample_pd(3, 71, 100.0)
        B = sample_pd(3, 72, 100.0)
        t = 0.4
        base = spectral_mean(A, B, t)
        for alpha in (0.5, 2.0, 10.0):
            for beta in (0.5, 2.0, 10.0):
                got = spectral_mean(alpha * A, beta * B, t)
                assert rel_dev(got, alpha ** (1 - t) * beta**t * base) <= 1e-9

    def test_inversion_and_reversal(self):
        A = sample_pd(4, 81, 100.0)
        B = sample_pd(4, 82, 100.0)
        t = 0.7
        nat = spectral_mean(A, B, t)
        inv = spectral_mean(mat_power(A, -1.0), mat_power(B, -1.0), t)
        assert rel_dev(mat_power(nat, -1.0), inv) <= 1e-9
        assert rel_dev(nat, spectral_mean(B, A, 1.0 - t)) <= 1e-9

    def test_interpolation(self):
        A = sample_pd(3, 91, 50.0)
        B = sample_pd(3, 92, 50.0)
        r, s, t = 0.2, 0.9, 0.35
        lhs = spectral_mean(spectral_mean(A, B, r), spectral_mean(A, B, s), t)
        rhs = spectral_mean(A, B, (1 - t) * r + t * s)
        assert rel_dev(lhs, rhs) <= 1e-8

    def test_midpoint_spectrum_is_sqrt_of_product_spectrum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = sample_pd(n, int(rng.integers(2**62)), 100.0)
            B = sample_pd(n, int(rng.integers(2**62)), 100.0)
            lam_nat = spectrum_of_factor(spectral_mean_factor(A, B, 0.5))
            lam_prod = spectrum_of_factor(mat_power(A, 0.5) @ mat_power(B, 0.5))
            np.testing.assert_allclose(lam_nat, np.sqrt(lam_prod), rtol=1e-9)


class TestGFactor:
    def test_equal_arguments_give_identity(self):
        A = sample_pd(3, 15, 20.0)
        np.testing.assert_allclose(g_factor(A, A, 0.6), np.eye(3), atol=1e-12)

    def test_commuting_reduction(self):
        A = np.diag([1.0, 4.0])
        B = np.diag([9.0, 1.0])
        t = 0.3
        expected = mat_power(np.linalg.inv(A) @ B, t / 2.0)
        np.testing.assert_allclose(g_factor(A, B, t), expected, atol=1e-12)

    def test_two_sided_factor_identity(self):
        # both expressions for the conjugating factor agree
        A = sample_pd(3, 25, 50.0)
        B = sample_pd(3, 26, 50.0)
        t = 0.45
        Gt = g_factor(A, B, t)
        left = metric_mean(mat_power(A, -1.0), spectral_mean(A, B, t), 0.5)
        right = metric_mean(
            mat_power(spectral_mean(B, A, t), -1.0), B, 0.5
        )
        assert rel_dev(left, Gt) <= 1e-9
        assert rel_dev(right, Gt) <= 1e-9

    def test_conjugation_identity(self):
        A = sample_pd(4, 35, 50.0)
        B = sample_pd(4, 36, 50.0)
        t = 0.25
        Gt = g_factor(A, B, t)
        assert rel_dev(hermitize(Gt @ A @ Gt), spectral_mean(A, B, t)) <= 1e-9


class TestSimilarityWitness:
    def test_collapses_for_equal_arguments(self):
        A = sample_pd(3, 45, 10.0)
        wit = similarity_witness(A, A, 0.4)
        np.testing.assert_allclose(wit.conjugator, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(wit.rotator, np.eye(3), atol=1e-8)
        assert rel_dev(wit.target, A) <= 1e-9

    @pytest.mark.parametrize("t", [0.5, 0.3, 0.0, 1.0])
    def test_conjugacy_identity(self, t):
        # t = 1/2 is the two-sided midpoint form; the rest is the general case
        A = sample_pd(3, 55, 50.0)
        B = sample_pd(3, 56, 50.0)
        wit = similarity_witness(A, B, t)
        sharp = metric_mean(A, B, 0.5)
        S = wit.conjugator
        lhs = np.linalg.solve(S, sharp) @ S
        assert np.max(np.abs(lhs - wit.target)) <= 1e-8 * np.max(np.abs(sharp))
        assert np.max(np.abs(wit.rotator @ wit.rotator.conj().T - np.eye(3))) <= 1e-10

    def test_spectra_of_similar_matrices_agree(self):
        A = sample_pd(3, 65, 50.0)
        B = sample_pd(3, 66, 50.0)
        wit = similarity_witness(A, B, 0.3)
        spec_sharp = np.linalg.eigvalsh(metric_mean(A, B, 0.5))[::-1]
        spec_target = np.sort(np.linalg.eigvals(wit.target).real)[::-1]
        np.testing.assert_allclose(spec_target, spec_sharp, rtol=1e-9)


@pytest.mark.parametrize("kappa", [1e4, 1e8, 9.5e11])
def test_both_means_match_the_oracle_as_b_nears_the_floor(kappa):
    """B enters the means by its Cholesky factor.  Against 60 digits, each
    mean stays within the first-order bound u * kappa(B) of B's rounding
    (the factor's error, like B's, grows with its condition number)."""
    mp.mp.dps = 60
    rng = np.random.default_rng(int(np.log10(kappa)))
    for _ in range(8):
        A = random_real_spd(rng, 4, 10.0)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        B = hermitize((Q * np.geomspace(1.0, 1.0 / kappa, 4)) @ Q.T)
        for t in (0.3, 0.7):
            assert rel_dev(metric_mean(A, B, t), mp_metric_mean(A, B, t)) <= U * kappa
            assert rel_dev(spectral_mean(A, B, t), mp_spectral_mean(A, B, t)) <= U * kappa


def _near_floor(n: int, ratio: float) -> np.ndarray:
    """A complex n x n positive definite matrix with lambda_min / lambda_max = ratio."""
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return hermitize((Q * np.geomspace(1.0, ratio, n)) @ Q.conj().T)


PUBLIC = [metric_mean, spectral_mean, metric_mean_factor, spectral_mean_factor, g_factor,
          similarity_witness]


@pytest.mark.parametrize("n", [6, means._WORKER_ORDER], ids=["below-gate", "above-gate"])
@pytest.mark.parametrize("fn", PUBLIC, ids=lambda fn: fn.__name__)
def test_b_on_either_side_of_the_floor(fn, n):
    """Twice the relative floor EPS_PD passes, on either route for B and
    either side of the worker order; half of it is refused by name."""
    A = sample_pd(n, 3, 10.0)
    result = fn(A, _near_floor(n, 2 * EPS_PD), 0.3)
    arrays = vars(result).values() if fn is similarity_witness else [result]
    assert all(np.isfinite(X).all() for X in arrays)
    with pytest.raises(NonPositiveSpectrum, match="at or below relative floor 1e-12"):
        fn(A, _near_floor(n, EPS_PD / 2), 0.3)


@pytest.mark.parametrize("n", [6, means._WORKER_ORDER], ids=["below-gate", "above-gate"])
@pytest.mark.parametrize("fn", PUBLIC[:-1], ids=lambda fn: fn.__name__)
def test_a_failed_cholesky_is_a_numeric_breakdown(fn, n, monkeypatch):
    """Not seen above the floor; if LAPACK's Cholesky ever fails there, no
    raw LinAlgError escapes a public mean, from either thread."""
    def fails(H):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fails)
    with pytest.raises(NumericBreakdown, match="operand B has no Cholesky factor"):
        fn(sample_pd(n, 1, 10.0), sample_pd(n, 2, 10.0), 0.3)


def _haar(rng, n: int, complex_: bool) -> np.ndarray:
    """A Haar-distributed unitary (orthogonal if not ``complex_``): QR with R's phases taken out."""
    Z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 64])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_the_kernels_see_b_only_through_its_gram_factor(real, n):
    """The kernels take B as any L with L L* = B: its Hermitian root (the
    battery), its Cholesky factor (the public means) and root Q for a Haar
    unitary Q give the same means and the same spectrum of A^{-1} # B."""
    A, B = sample_pd(n, 2 * n, 100.0), sample_pd(n, 2 * n + 1, 100.0)
    if real:
        A, B = A.real.copy(), B.real.copy()
    a, root = spd(A), spd(B).root
    factors = [root, np.linalg.cholesky(B), root @ _haar(np.random.default_rng(n), n, not real)]
    for t in (0.3, 0.7):
        results = [(means.gram(means._metric_factor(a, L, t)),
                    means.gram(means._nat_factor(a, L, t)), means._inv_sharp(a, L)[0])
                   for L in factors]
        for metric, spectral, w in results[1:]:
            assert rel_dev(metric, results[0][0]) <= 1e-12
            assert rel_dev(spectral, results[0][1]) <= 1e-12
            assert np.max(np.abs(w - results[0][2]) / results[0][2]) <= 1e-12


def rank_deficient(n: int, k: int, seed: int) -> np.ndarray:
    """The Gram matrix F F* of a complex n x k factor, k < n."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return hermitize(F @ F.conj().T)


SINGULAR = {
    "gram-4x2": rank_deficient(4, 2, 1),
    "gram-4x3": rank_deficient(4, 3, 2),
    "gram-4x1": rank_deficient(4, 1, 3),
    "diagonal": np.diag([2.0, 0.0, 1.0, 3.0]),
}


@pytest.mark.parametrize("fn", [metric_mean, spectral_mean, metric_mean_factor,
                                spectral_mean_factor, g_factor, similarity_witness])
@pytest.mark.parametrize("singular", SINGULAR.values(), ids=SINGULAR)
@pytest.mark.parametrize("side", ["A", "B"])
def test_singular_operand_raises_nonpositive_spectrum(fn, singular, side):
    # the PD floor names the failure; no LAPACK LinAlgError escapes
    good = sample_pd(4, 5, 10.0)
    A, B = (singular, good) if side == "A" else (good, singular)
    with pytest.raises(NonPositiveSpectrum):
        fn(A, B, 0.3)


@pytest.mark.parametrize("singular", SINGULAR.values(), ids=SINGULAR)
@pytest.mark.parametrize("r", [0.5, 0.0, -1.0])
def test_singular_mat_power_raises_nonpositive_spectrum(singular, r):
    with pytest.raises(NonPositiveSpectrum):
        mat_power(singular, r)


# --- the public means' bits, transcribed step by step in plain numpy -------

def _ct(X):
    return X.conj().swapaxes(-1, -2)


def _h(X):
    return (X + _ct(X)) / 2


def _roots(P):
    """P^{1/2} and P^{-1/2} from the descending eigensystem of (P + P*)/2."""
    w, U = np.linalg.eigh(_h(P))
    w, U = w[::-1].copy(), U[:, ::-1].copy()
    return _h((U * np.sqrt(w)) @ _ct(U)), _h((U / np.sqrt(w)[None, :]) @ _ct(U))


def _formulas(A, B, t):
    """metric_mean, spectral_mean, g_factor and mat_sqrt_pair(A) as the
    package evaluates them, through Gram factors: A's Hermitian roots and
    B's Cholesky factor."""
    (ra, ia), rb = _roots(A), np.linalg.cholesky(_h(B))
    Uk, s, _ = np.linalg.svd(ia @ rb)
    metric = (ra @ Uk) * s ** t
    Us, s, _ = np.linalg.svd(ra @ rb)                  # A^{-1} # B = G G*
    Ug, g, _ = np.linalg.svd((ia @ Us) * np.sqrt(s))
    Ct = (Ug * (g * g) ** t) @ _ct(Ug)
    return [_h(metric @ _ct(metric)), _h((Ct @ ra) @ _ct(Ct @ ra)), _h(Ct), ra, ia]


def _pair(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)

    def spd(cplx):
        Z = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0)
        Q, _ = np.linalg.qr(Z)
        return _h((Q * np.exp(rng.uniform(-3, 3, n))) @ _ct(Q))

    if kind == "complex-diagonal":
        return np.diag(np.exp(rng.uniform(-3, 3, n))).astype(complex), spd(True)
    return spd(kind != "real"), spd(kind == "complex")


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed", "complex-diagonal"])
def test_public_means_are_bitwise_their_factor_formulas(kind, n):
    """The bits of the public means do not depend on how the package
    validates or caches: each equals its Gram-factor formula evaluated
    step by step, down to the sign of zero (compared as uint64 words)."""
    A, B = _pair(kind, n, 100 * n + len(kind))
    for t in (0.0, 0.3, 0.5, 1.0):
        got = [metric_mean(A, B, t), spectral_mean(A, B, t), g_factor(A, B, t),
               *mat_sqrt_pair(A)]
        for name, x, y in zip(["metric", "spectral", "g_factor", "root", "inv_root"], got,
                              _formulas(A, B, t)):
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), (name, t)
