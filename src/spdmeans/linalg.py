"""Dense Hermitian linear algebra kernel.

Eigendecomposition, matrix functions of Hermitian/positive definite
arguments, compound matrices and seeded random SPD generation.  Everything
else in the package is built on top of these routines.

Every routine takes a matrix or a stack ``(..., n, n)`` and works matrix
by matrix; a single matrix is a batch of one, and stacked results are
bitwise equal to matrix-by-matrix calls.  All functions are pure.  Matrix
function results are re-Hermitized as (X + X*)/2 so that downstream
invariant checks are not tripped by accumulation drift.  Exported
functions validate their input; the helpers on validated stacks or
eigensystems keep only the positive-definite floor.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import BadOrder, DimensionMismatch, EigFailure, NonHermitianInput, NonPositiveSpectrum

# Tolerances (absolute-plus-relative where a norm scale exists).
ETA_HERM = 1e-10     # Hermitian symmetry defect
ETA_UNIT = 1e-10     # unitarity defect
TAU_RECON = 1e-10    # eigendecomposition reconstruction residual
EPS_PD = 1e-12       # relative positivity floor: lambda_min > EPS_PD * lambda_max


def ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def hermitize(X: np.ndarray) -> np.ndarray:
    """Return (X + X*)/2 (the sum divided in place unless it is integral)."""
    S = X + ct(X)
    return np.divide(S, 2, out=S) if S.dtype.kind in "fc" else S / 2


def max_abs(X: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a stack."""
    return np.abs(X).max(axis=(-2, -1), initial=0.0)


def any_true(mask) -> bool:
    """``np.any``, cheaper on the numpy bool of a single matrix."""
    return bool(mask.any() if mask.ndim else mask)


def unbatch(x):
    """A single matrix's 0-d result as a Python scalar; a stack's as is."""
    return x.item() if np.ndim(x) == 0 else x


def pymax(a, b):
    """Elementwise builtin ``max(a, b)``: ``a`` unless ``b > a`` (so of
    equal values, and against NaN, the first, unlike ``np.maximum``)."""
    return np.where(b > a, b, a)


def _matrix_defect(X: np.ndarray, square: bool = True) -> str:
    """Why X is not a numeric matrix (or stack) with a row and a column, and
    square if ``square``; '' if it is.  Reads attributes, not entries."""
    if X.ndim < 2 or 0 in X.shape[-2:] or square and X.shape[-1] != X.shape[-2]:
        shape = "square with n >= 1" if square else "a matrix with a row and a column"
        return f"must be {shape}, got shape {X.shape}"
    return "" if X.dtype.kind in "iufc" else f"must be numeric, got dtype {X.dtype}"


def require_matrix(X, name: str = "matrix", square: bool = True) -> np.ndarray:
    X = np.asarray(X)
    if defect := _matrix_defect(X, square):
        raise NonHermitianInput(f"{name} {defect}")
    return X


def require_same_shape(*Xs) -> list[np.ndarray]:
    """The operands as ndarrays; DimensionMismatch unless all have one shape."""
    Xs = [np.asarray(X) for X in Xs]
    for X in Xs[1:]:
        if X.shape != Xs[0].shape:
            raise DimensionMismatch(f"operand shapes differ: {Xs[0].shape} vs {X.shape}")
    return Xs


def _hermitian_mask(X: np.ndarray, tol: float) -> np.ndarray:
    """Finite entries and symmetry of each matrix of a square stack, as a numpy bool (array)."""
    finite = (scale := max_abs(X)) < np.inf   # false for an inf or NaN entry, zeroed before X - X*
    X = np.where(finite[..., None, None], X, 0) if any_true(~finite) else X
    return finite & (max_abs(X - ct(X)) <= tol * (1.0 + scale))


def is_hermitian(X, tol: float = ETA_HERM):
    """Finite entries and symmetry, per matrix: a bool for one matrix, a bool array for a stack."""
    X = np.asarray(X)
    return False if _matrix_defect(X) else unbatch(_hermitian_mask(X, tol))


def require_hermitian(X, tol: float = ETA_HERM) -> np.ndarray:
    """Validate the Hermitian invariant (``is_hermitian``) and return X as an ndarray."""
    X = require_matrix(X)
    if any_true(~_hermitian_mask(X, tol)):
        if not np.all(max_abs(X) < np.inf):
            raise NonHermitianInput("matrix entries must be finite")
        raise NonHermitianInput(f"symmetry defect {max_abs(X - ct(X)).max():.3e} exceeds tolerance")
    return X


def is_unitary(U: np.ndarray, tol: float = ETA_UNIT):
    U = np.asarray(U)
    if _matrix_defect(U):
        return False
    gram = U @ ct(U)
    return unbatch(max_abs(gram - np.eye(U.shape[-1])) <= tol * (1.0 + max_abs(gram)))


def row_power(w: np.ndarray, e) -> np.ndarray:
    """``w ** e`` with one exponent per row of ``w`` (or one for all rows),
    each distinct exponent applied as a Python float to its rows: numpy
    takes sqrt, square or reciprocal for a scalar 0.5, 2 or -1 but pow,
    which can differ in the last bit, for an exponent array."""
    e = np.asarray(e, dtype=float)
    if e.ndim == 0:
        return w ** float(e)
    out = np.empty_like(w)
    for v in sorted(set(e.tolist())):   # np.unique would import numpy.ma
        rows = e == v
        out[rows] = w[rows] ** v
    return out


def _eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, U = np.linalg.eigh(hermitize(H))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailure(str(exc)) from exc
    return w[..., ::-1].copy(), U[..., ::-1].copy()


def _pd_eigh(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, U = _eigh(P)
    top, low = w.T[0], w.T[-1]           # per matrix; scalars for one matrix
    bad = (top <= 0.0) | (low <= EPS_PD * top)
    if any_true(bad):
        i = np.argmax(bad)
        raise NonPositiveSpectrum(
            f"eigenvalue {np.ravel(low)[i]:.3e} at or below relative floor "
            f"{EPS_PD:.0e} * {np.ravel(top)[i]:.3e}"
        )
    return w, U


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (or of each of a stack).

    Returns ``(w, U)`` with ``w`` real and sorted descending and ``U``
    unitary such that ``H = U @ diag(w) @ U*`` within TAU_RECON.

    Raises
    ------
    NonHermitianInput
        If an entry is not finite or the symmetry defect exceeds ETA_HERM.
    EigFailure
        If the decomposition does not converge.
    """
    return _eigh(require_hermitian(H))


def pd_eig(P) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig plus the positive-definite spectrum floor."""
    return _pd_eigh(require_hermitian(P))


def from_eig(U: np.ndarray, f: np.ndarray) -> np.ndarray:
    """U diag(f) U*, re-Hermitized, for each matrix of a stack."""
    return hermitize((U * f[..., None, :]) @ ct(U))


def power_from_eig(w: np.ndarray, U: np.ndarray, r) -> np.ndarray:
    """P^r from the eigensystem of P, with one exponent per matrix (or one
    for all); a zero exponent gives the exact identity."""
    X = from_eig(U, row_power(w, r))
    zero = np.asarray(r) == 0
    if any_true(zero):
        X[zero] = np.eye(w.shape[-1])
    return X


def _power(P: np.ndarray, r) -> np.ndarray:
    return power_from_eig(*_pd_eigh(P), r)


def mat_power(P, r: float) -> np.ndarray:
    """Fractional power of a positive definite matrix via eigendecomposition.

    ``mat_power(P, 0)`` is the exact identity of a valid P; eigenvalues at or
    below the relative floor raise NonPositiveSpectrum rather than being clamped.
    """
    return _power(require_hermitian(P), r)


class _lazy:
    """``functools.cached_property`` without its lock (as in Python 3.12):
    the first access stores the value in the instance ``__dict__``, which
    then shadows this descriptor; racing first accesses build equal values."""

    def __init__(self, build):
        self.build = build

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.build.__name__] = self.build(obj)
        return value


class Spd:
    """A positive definite stack's eigensystem ``w, U``; its square roots
    ``root`` and ``inv_root`` are built on first use."""

    def __init__(self, w: np.ndarray, U: np.ndarray):
        self.w, self.U = w, U

    @_lazy
    def root(self) -> np.ndarray:
        return from_eig(self.U, np.sqrt(self.w))

    @_lazy
    def inv_root(self) -> np.ndarray:
        return hermitize((self.U / np.sqrt(self.w)[..., None, :]) @ ct(self.U))


def spd(P: np.ndarray) -> Spd:
    """Decompose a validated positive definite stack (floor enforced)."""
    return Spd(*_pd_eigh(P))


def mat_sqrt_pair(P) -> tuple[np.ndarray, np.ndarray]:
    """Return (P^{1/2}, P^{-1/2}) from a single eigendecomposition."""
    s = spd(require_hermitian(P))
    return s.root, s.inv_root


def _exp(H: np.ndarray) -> np.ndarray:
    w, U = _eigh(H)
    return from_eig(U, np.exp(w))


def mat_exp(H) -> np.ndarray:
    """Matrix exponential of a Hermitian matrix (eigendecomposition route)."""
    return _exp(require_hermitian(H))


def mat_log(P) -> np.ndarray:
    """Matrix logarithm of a positive definite matrix."""
    w, U = pd_eig(P)
    return from_eig(U, np.log(w))


def spectrum_of_factor(F: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of F F* computed as squared singular values.

    Keeping positive definite intermediates in factored form halves the
    effective condition number seen by the decomposition, which is what
    makes tight log-majorization margins attainable in double precision.
    """
    s = np.linalg.svd(require_matrix(F, "factor", square=False), compute_uv=False)
    return s * s


def _compound(M: np.ndarray, k: int) -> np.ndarray:
    subs = np.array(list(combinations(range(M.shape[-1]), int(k))))
    return np.linalg.det(M[..., subs[:, None, :, None], subs[None, :, None, :]])


def compound(M, k: int) -> np.ndarray:
    """k-th multiplicative compound: all k-by-k minors of M.

    Rows and columns are indexed by the k-subsets of {1..n} in
    lexicographic order, so ``compound(M, 1) == M`` and
    ``compound(M, n) == [[det M]]``.
    """
    M = require_matrix(M, "M")
    n = M.shape[-1]
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n:
        raise BadOrder(f"compound order k={k} outside 1..{n}")
    return _compound(M, k)


# numpy's SeedSequence hash and PCG64 seeding, whose output NEP 19 keeps
# stable across numpy versions.
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def require_seed(seed) -> int:
    """Validate a seed: a nonnegative ``int`` (a ``bool`` is not a seed)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def seed_words(seed: int) -> list[int]:
    """A nonnegative int as numpy coerces it to SeedSequence entropy: its
    32-bit words, least significant first (one word for 0)."""
    return [(seed >> i) & _M32 for i in range(0, max(seed.bit_length(), 1), 32)]


def seed_hash(words, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row of an
    ``(N, L)`` array of 32-bit entropy words, in one vectorised pass.

    numpy hashes an entropy of fewer than four words (its pool size) as if
    it were zero-padded to four, so rows of up to four words may be
    zero-padded to a common length.
    """
    words = np.asarray(words, dtype=np.uint32)
    cols = list(words.T) + [np.zeros(len(words), np.uint32)] * (4 - words.shape[1])
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = (h * _MULT_A) & _M32
        v = v * np.uint32(h)
        return v ^ (v >> 16)

    def mix(x, y):
        v = _MIX_L * x - _MIX_R * y
        return v ^ (v >> 16)

    pool = [hashmix(c) for c in cols[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for c in cols[4:]:                      # the words past the pool
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(c))
    out = np.empty((len(words), n_words), np.uint32)
    h = _INIT_B
    for i in range(n_words):
        v = pool[i % 4] ^ np.uint32(h)
        h = (h * _MULT_B) & _M32
        v = v * np.uint32(h)
        out[:, i] = v ^ (v >> 16)
    return out


def rng_keys(seeds) -> np.ndarray:
    """The key that ``np.random.default_rng(seed)`` seeds PCG64 with, for
    each seed: ``SeedSequence(seed).generate_state(4, np.uint64)``, as an
    ``(N, 4)`` uint64 array hashed in one pass.  ``seeds`` is an int of any
    size (a batch of one) or an array of ints below 2**64."""
    if isinstance(seeds, int):
        words = np.array([seed_words(seeds)], dtype=np.uint32)
    else:
        s = np.asarray(seeds, dtype=np.uint64)
        words = np.stack([s & _M32, s >> 32], axis=-1)
    return seed_hash(words, 8).astype("<u4").view("<u8").astype(np.uint64)


def generators(keys) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the state ``default_rng`` starts from
    for each PCG64 key (a row of ``rng_keys``): draw from it for one key
    before advancing to the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in np.asarray(keys).tolist():
        # PCG64 seeding: the first two words the initial state, the last two the stream
        pcg["inc"] = inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128
        rng.bit_generator.state = state
        yield rng


def pd_draws(n: int, keys, spreads) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of ``sample_pd`` for a stack, one matrix per PCG64
    key and spread: a complex Gaussian matrix and log-uniform eigenvalues
    in ``[1/spread, spread]``."""
    G = np.empty((len(keys), 2, n, n))
    u = np.empty((len(keys), n))
    for i, rng in enumerate(generators(keys)):
        rng.standard_normal(out=G[i])          # the real parts, then the imaginary
        rng.random(out=u[i])
    b = np.log(np.asarray(spreads, dtype=float))[:, None]
    # bitwise numpy's uniform(-b, b): low + (high - low) * random()
    return G[:, 0] + 1j * G[:, 1], np.exp(-b + (b + b) * u)


def pd_compose(Z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q* from stacked draws, with Q the phase-fixed unitary
    factor of Z (so Q is Haar distributed)."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (d / np.abs(d))[..., None, :]
    return from_eig(Q, lam)


def sample_pd(n: int, seed: int, spread: float) -> np.ndarray:
    """Seeded random positive definite matrix Q diag(lam) Q*.

    Q is a Haar-like complex unitary from the seeded generator and the
    eigenvalues are log-uniform in [1/spread, spread].  Deterministic in
    (n, seed, spread), with ``seed`` a nonnegative int of any size; spread 1
    forces a unit spectrum, i.e. the identity.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not 1.0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and >= 1, got {spread}")
    return pd_compose(*pd_draws(n, rng_keys(require_seed(seed)), [spread]))[0]


def spectral_norm(X):
    """Largest singular value (per matrix of a stack; square or not)."""
    X = require_matrix(X, "factor", square=False)
    return unbatch(np.linalg.svd(X, compute_uv=False)[..., 0])
