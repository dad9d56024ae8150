"""Kernel tests: eigendecomposition, matrix functions, compounds, sampling."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from spdmeans import (
    check_means_identities,
    compound,
    compound_cross_check,
    eig_log_majorizes,
    hermitian_eig,
    hermitize,
    is_hermitian,
    is_unitary,
    ky_fan_norm,
    mat_exp,
    mat_log,
    mat_power,
    metric_mean,
    sample_pd,
    spectral_mean,
    spectral_norm,
    spectrum_of_factor,
)
from spdmeans.errors import (BadOrder, NonFiniteInput, NonHermitianInput, NonPositiveSpectrum,
                             NumericBreakdown)
from spdmeans.linalg import ETA_UNIT, TAU_RECON, power_from_eig, require_hermitian, spd


def random_hermitian(rng, n, scale=1.0):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = hermitize(Z)
    return H * (scale / max(np.max(np.abs(np.linalg.eigvalsh(H))), 1e-30))


def charpoly_coeffs(A):
    """Characteristic polynomial coefficients by trace recursion (no eig)."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(np.asarray(A, dtype=complex))
    eye = np.eye(n)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * eye
        coeffs[k] = -float(np.trace(A @ M).real) / k
    return coeffs


class TestHermitianEig:
    def test_identity(self):
        w, U = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        assert is_unitary(U)

    def test_diagonal_sorting(self):
        w, _ = hermitian_eig(np.diag([1.0, 5.0, 2.0]))
        np.testing.assert_allclose(w, [5.0, 2.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(rng, 5, scale=3.0)
        w, U = hermitian_eig(H)
        resid = np.max(np.abs((U * w) @ U.conj().T - H))
        assert resid <= TAU_RECON * np.max(np.abs(H))
        assert np.max(np.abs(U @ U.conj().T - np.eye(5))) <= ETA_UNIT * 2

    def test_spectrum_matches_charpoly_roots(self):
        # independent oracle: companion-matrix roots of det(H - lambda I)
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 4)
        w, _ = hermitian_eig(H)
        roots = np.roots(charpoly_coeffs(H))
        assert np.max(np.abs(roots.imag)) < 1e-7
        np.testing.assert_allclose(w, np.sort(roots.real)[::-1], atol=1e-8)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianInput):
            hermitian_eig(np.ones((2, 3)))


class TestMatPower:
    def test_diagonal_sqrt(self):
        np.testing.assert_allclose(
            mat_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_zero_exponent_is_exact_identity(self):
        rng = np.random.default_rng(3)
        P = sample_pd(3, 5, 10.0)
        assert np.array_equal(mat_power(P, 0), np.eye(3, dtype=P.dtype))

    def test_unit_exponent_reproduces(self):
        P = sample_pd(4, 9, 50.0)
        np.testing.assert_allclose(mat_power(P, 1.0), P, rtol=0, atol=1e-12 * 50)

    def test_fractional_power_composition_oracle(self):
        # oracle: P^2 @ P^(1/2) composed from separate calls
        P = sample_pd(3, 21, 10.0)
        expected = P @ P @ mat_power(P, 0.5)
        got = mat_power(P, 2.5)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_power_law_additivity(self):
        P = sample_pd(4, 13, 20.0)
        for a in (-2.0, -0.7, 0.3, 1.5, 2.0):
            for b in (-1.2, 0.5, 2.0):
                lhs = mat_power(P, a + b)
                rhs = mat_power(P, a) @ mat_power(P, b)
                assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(lhs))

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(NonPositiveSpectrum):
            mat_power(np.diag([1.0, -2.0]), 0.5)
        with pytest.raises(NonPositiveSpectrum):
            mat_power(np.diag([1.0, 0.0]), -1.0)
        with pytest.raises(NonPositiveSpectrum):
            mat_power(np.diag([1.0, -2.0]), 0)


class TestExpLog:
    def test_exp_of_zero(self):
        np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_log_of_diagonal(self):
        np.testing.assert_allclose(
            mat_log(np.diag([np.e, np.e**2])), np.diag([1.0, 2.0]), atol=1e-12
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(17)
        H = random_hermitian(rng, 4)
        np.testing.assert_allclose(mat_log(mat_exp(H)), H, atol=1e-10)

    def test_exp_matches_scaling_and_squaring(self):
        rng = np.random.default_rng(23)
        H = random_hermitian(rng, 4)
        expected = scipy.linalg.expm(H)
        assert np.max(np.abs(mat_exp(H) - expected)) <= 1e-10 * np.max(np.abs(expected))


class TestCompound:
    def test_identity(self):
        np.testing.assert_allclose(compound(np.eye(3), 2), np.eye(3), atol=1e-14)

    def test_diagonal_pair_products(self):
        got = compound(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(got, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    def test_first_and_last_orders(self):
        M = sample_pd(3, 31, 10.0)
        np.testing.assert_allclose(compound(M, 1), M)
        np.testing.assert_allclose(
            compound(M, 3), [[np.linalg.det(M)]], rtol=1e-12
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64, np.float32])
    def test_order_one_is_a_copy_in_det_dtype(self, dtype):
        M = sample_pd(4, 33, 100.0) * 10
        M = (M if np.dtype(dtype).kind == "c" else M.real).astype(dtype)
        got = compound(M, 1)
        assert got.dtype == np.linalg.det(M).dtype
        assert np.array_equal(got, M) and not np.shares_memory(got, M)
        if M.dtype == got.dtype:
            assert got.tobytes() == M.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_order_two_matches_lu_minors(self, n):
        """To 1e-12 relative to |a d| + |b c|, the scale of both roundoffs
        (a minor of nearly equal products cancels in either method)."""
        subs = list(itertools.combinations(range(n), 2))
        for seed in range(20):
            M = sample_pd(n, seed, 1e3)
            lu = np.array([[np.linalg.det(M[np.ix_(r, c)]) for c in subs] for r in subs])
            scale = np.array([[abs(M[i, p] * M[j, q]) + abs(M[i, q] * M[j, p]) for p, q in subs]
                              for i, j in subs])
            assert np.all(np.abs(compound(M, 2) - lu) <= 1e-12 * scale)

    def test_top_eigenvalue_is_product_of_top_eigenvalues(self):
        P = sample_pd(3, 41, 10.0)
        w, _ = hermitian_eig(P)
        for k in range(1, 4):
            top = np.linalg.eigvalsh(compound(P, k))[-1]
            expected = float(np.prod(w[:k]))
            assert abs(top - expected) <= 1e-9 * expected

    def test_multiplicative(self):
        A = sample_pd(4, 51, 10.0)
        B = sample_pd(4, 52, 10.0)
        for k in (2, 3):
            lhs = compound(A @ B, k)
            rhs = compound(A, k) @ compound(B, k)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(rhs))

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            compound(np.eye(3), 0)
        with pytest.raises(BadOrder):
            compound(np.eye(3), 4)


class TestSamplePd:
    def test_spread_one_is_identity(self):
        np.testing.assert_allclose(sample_pd(2, 7, 1.0), np.eye(2), atol=1e-13)

    def test_deterministic(self):
        assert np.array_equal(sample_pd(3, 42, 100.0), sample_pd(3, 42, 100.0))

    def test_positive_definite_within_spread(self):
        w, U = hermitian_eig(sample_pd(4, 1, 100.0))
        assert w[-1] > 0
        assert w[-1] >= 1.0 / 100.0 * (1 - 1e-9) and w[0] <= 100.0 * (1 + 1e-9)
        assert is_unitary(U)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_pd(0, 1, 10.0)
        with pytest.raises(ValueError):
            sample_pd(2, 1, 0.5)
        for n in (2.0, True, "3", None):
            with pytest.raises(ValueError, match="^n must be an integer >= 1"):
                sample_pd(n, 1, 10.0)
        assert np.array_equal(sample_pd(np.int64(3), 1, 10.0), sample_pd(3, 1, 10.0))


def test_spectrum_of_factor_matches_gram_eigenvalues():
    rng = np.random.default_rng(61)
    F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam = spectrum_of_factor(F)
    expected = np.linalg.eigvalsh(F @ F.conj().T)[::-1]
    np.testing.assert_allclose(lam, expected, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 3, 6, 64])
def test_half_power_from_eig_is_the_cached_root_bitwise(n):
    """The checks use ``Spd.root`` wherever they need P^{1/2} of a
    decomposed stack; the report bytes rely on it equalling
    ``power_from_eig(w, U, 0.5)`` bit for bit (numpy takes sqrt for a
    scalar exponent 0.5)."""
    rng = np.random.default_rng(n)
    G = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    s = spd(G @ G.conj().transpose(0, 2, 1) + 1e-3 * np.eye(n))
    assert power_from_eig(s.w, s.U, 0.5).tobytes() == s.root.tobytes()


def _validation_cases() -> dict[str, tuple[np.ndarray, str | None]]:
    """One 3 x 3 matrix per case of the Hermitian predicate, with the
    message ``require_hermitian`` raises for it (None: it passes)."""
    good = sample_pd(3, 11, 10.0)
    finite, symmetry = "matrix entries must be finite", "symmetry defect .* exceeds tolerance"
    edits = {"good": ((0, 0), good[0, 0], None),
             "nan-entry": ((1, 1), np.nan, finite),
             "off-diagonal-inf": ((0, 2), np.inf, finite),
             "diagonal-inf": ((2, 2), np.inf, finite),
             "beyond-tol": ((0, 1), good[0, 1] + 1e-6, symmetry),
             "within-tol": ((0, 1), good[0, 1] + 1e-12, None)}
    cases = {}
    for name, (entry, value, message) in edits.items():
        cases[name] = good.copy(), message
        cases[name][0][entry] = value
    return cases


@pytest.mark.filterwarnings("error")
def test_hermitian_validation_per_matrix_of_a_stack():
    """``is_hermitian`` is one predicate per matrix: finite entries (an inf
    whose transposed entry is finite would pass the defect test alone, as
    inf - 1 <= inf) and a symmetry defect within tol; ``require_hermitian``
    names which of the two failed."""
    cases = _validation_cases()
    stack = np.stack([M for M, _ in cases.values()])
    assert is_hermitian(stack).tolist() == [message is None for _, message in cases.values()]
    for name, (M, message) in cases.items():
        assert is_hermitian(M) is (message is None), name
        if message is None:
            assert require_hermitian(M) is M
            continue
        for X in (M, np.stack([cases["good"][0], M])):
            with pytest.raises(NonHermitianInput, match=message):
                require_hermitian(X)


UNSUPPORTED = {
    "empty": np.zeros((0, 0)),
    "bool": np.eye(2, dtype=bool),
    "object": np.eye(2).astype(object),
    # numeric dtypes that numpy.linalg refuses
    "float16": np.eye(2, dtype=np.float16),
    "longdouble": np.eye(2, dtype=np.longdouble),
    "clongdouble": np.eye(2, dtype=np.clongdouble),
    "non-finite": np.array([[1.0, np.nan], [np.nan, np.inf]]),
}
BOUNDARY = {
    "metric_mean": lambda X: metric_mean(X, X, 0.5),
    "spectral_mean": lambda X: spectral_mean(X, X, 0.5),
    "hermitian_eig": hermitian_eig,
    "mat_power": lambda X: mat_power(X, 0.5),
    "mat_log": mat_log,
    "mat_exp": mat_exp,
    "compound": lambda X: compound(X, 1),
    "check_means_identities": lambda X: check_means_identities(X, X, 0.5),
    "spectral_norm": spectral_norm,
    "spectrum_of_factor": spectrum_of_factor,
    "hermitize": hermitize,
    "ky_fan_norm": lambda X: ky_fan_norm(X, 1),
    "compound_cross_check": lambda X: compound_cross_check(X, X),
    "eig_log_majorizes": lambda X: eig_log_majorizes(X, X),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("X", UNSUPPORTED.values(), ids=UNSUPPORTED)
@pytest.mark.parametrize("fn", BOUNDARY.values(), ids=BOUNDARY)
def test_boundary_rejects_empty_and_non_numeric_matrices(fn, X):
    """A matrix must have n >= 1, a numeric dtype that numpy.linalg takes
    and finite entries; anything else is the package's error at the
    boundary, not an IndexError, a numpy TypeError or LinAlgError, an empty
    result or a NaN from inside."""
    assert is_hermitian(X) is False and is_unitary(X) is False
    finite = np.issubdtype(X.dtype, np.number) and X.size and not np.isfinite(X).all()
    with pytest.raises(NonFiniteInput if finite else NonHermitianInput,
                       match="entries must be finite" if finite else
                       "must be square with n >= 1|must be numeric|must be a matrix with a row|"
                       f"must be float32/64 or complex64/128, got dtype {X.dtype}$"):
        fn(X)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, name", [
    (lambda: mat_exp(np.diag([800.0, 1.0])), "mat_exp"),
    (lambda: mat_power(np.diag([1e10, 1.0]), 1e5), "mat_power"),
    (lambda: compound(1e200 * np.eye(3), 2), "compound"),
    (lambda: spectrum_of_factor(1e200 * np.eye(2)), "spectrum_of_factor"),
], ids=["mat_exp", "mat_power", "compound", "spectrum_of_factor"])
def test_public_matrix_functions_refuse_an_overflowing_result(call, name):
    """Finite input whose result overflows doubles raises NumericBreakdown
    naming the function, without a numpy warning, instead of returning
    inf or NaN entries."""
    with pytest.raises(NumericBreakdown, match=f"^{name} result entries must be finite$"):
        call()


@pytest.mark.parametrize("fn", [spectral_norm, spectrum_of_factor])
def test_factor_functions_take_non_square_factors_but_no_vector(fn):
    F = np.arange(6.0).reshape(2, 3)
    s = np.linalg.svd(F, compute_uv=False)
    assert np.array_equal(fn(F), s[0] if fn is spectral_norm else s * s)
    with pytest.raises(NonHermitianInput, match="must be a matrix with a row and a column"):
        fn(np.ones(3))
