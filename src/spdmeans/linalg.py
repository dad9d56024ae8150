"""Dense Hermitian linear algebra kernel.

Eigendecomposition, matrix functions of Hermitian/positive definite
arguments, compound matrices and seeded random SPD generation.  Everything
else in the package is built on top of these routines.

Every routine takes a matrix or a stack ``(..., n, n)`` and works matrix
by matrix; a single matrix is a batch of one, and stacked results are
bitwise equal to matrix-by-matrix calls.  All functions are pure.  Matrix
function results are re-Hermitized as (X + X*)/2 against roundoff drift.
Exported functions validate their input by the ``require_*`` rules, the
Hermitian rule returning the Hermitian part, and refuse an overflowing
result.  The underscore kernels behind them take exactly Hermitian input
(the battery's intermediates are) and keep only the positive-definite floor.
"""

from __future__ import annotations

import math
import numbers
from itertools import combinations

import numpy as np

from .errors import (BadOrder, DimensionMismatch, EigFailure, NonFiniteInput, NonHermitianInput,
                     NonPositiveSpectrum, NumericBreakdown)

# Tolerances (absolute-plus-relative where a norm scale exists).
ETA_HERM = 1e-10     # Hermitian symmetry defect
ETA_UNIT = 1e-10     # unitarity defect
TAU_RECON = 1e-10    # eigendecomposition reconstruction residual
EPS_PD = 1e-12       # relative positivity floor: lambda_min > EPS_PD * lambda_max
# Half of each LAPACK precision's largest value: X + X* and X - X* can overflow only beyond it.
_HALF_MAX = {t: np.finfo(t).max / 2 for t in (np.float32, np.float64, np.complex64, np.complex128)}


def ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return X.conj().swapaxes(-1, -2)


def _hermitize(X: np.ndarray) -> np.ndarray:
    S = X + ct(X)
    return np.divide(S, 2, out=S)


def hermitize(X) -> np.ndarray:
    """Return (X + X*)/2 of a square matrix or stack with finite entry moduli."""
    return _hermitian_mask(require_matrix(X, finite=True), math.inf)[2]   # at tol inf every matrix passes


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


def _dtype_defect(X: np.ndarray, real: bool = False) -> str:
    """Why X's dtype is not integer (continuing as float64) or float32/64 or, unless ``real``,
    complex64/128, the precisions numpy.linalg takes; '' if it is."""
    if X.dtype.kind in "iu" or X.dtype.type in _HALF_MAX and X.dtype.kind in ("f" if real else "fc"):
        return ""
    kind = ("integer or float32/64" if real else
            "float32/64 or complex64/128" if X.dtype.kind in "fc" else "numeric")
    return f"must be {kind}, got dtype {X.dtype}"


def _matrix_defect(X: np.ndarray, square: bool = True) -> str:
    """Why X is not a matrix (or stack) with a row and a column, square if
    ``square``, of numbers (``_dtype_defect``); '' if it is.  Reads attributes, not entries."""
    if X.ndim < 2 or 0 in X.shape[-2:] or square and X.shape[-1] != X.shape[-2]:
        shape = "square with n >= 1" if square else "a matrix with a row and a column"
        return f"must be {shape}, got shape {X.shape}"
    return _dtype_defect(X)


def require_finite(X: np.ndarray, name: str, error=NonFiniteInput) -> np.ndarray:
    """X unless an entry's modulus is inf or NaN (as is an overflowing one), raising ``error``."""
    if not np.abs(X).max(initial=0.0) < np.inf:
        raise error(f"{name} {'entry moduli' if np.isfinite(X).all() else 'entries'} must be finite")
    return X


def require_matrix(X, name: str = "matrix", square: bool = True, finite: bool = False) -> np.ndarray:
    X = np.asarray(X)
    if defect := _matrix_defect(X, square):
        raise NonHermitianInput(f"{name} {defect}")
    X = X.astype(float) if X.dtype.kind in "iu" else X   # integer sums would wrap
    return require_finite(X, name) if finite else X


def require_same_shape(*Xs, single: str = "") -> list[np.ndarray]:
    """The operands as ndarrays; DimensionMismatch unless all have one shape,
    and, where ``single`` names them, unless that shape is a single matrix's."""
    Xs = [np.asarray(X) for X in Xs]
    for X in Xs[1:]:
        if X.shape != Xs[0].shape:
            raise DimensionMismatch(f"operand shapes differ: {Xs[0].shape} vs {X.shape}")
    if single and Xs[0].ndim > 2:
        raise DimensionMismatch(f"{single} must be single matrices, got shape {Xs[0].shape}")
    return Xs


def require_integer(v, name: str, lo: int = 0, hi: float = math.inf, error=ValueError) -> int:
    """v as an int: an integer (numpy's too), not a ``bool``, in [lo, hi]."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool) and lo <= v <= hi:
        return int(v)
    where = f"lie in [{lo}, {hi}]" if hi < math.inf else f"be an integer >= {lo}"
    raise error(f"{name} must {where}, got {v!r}")


def require_flag(v, name: str) -> bool:
    """v as a bool: ``True`` or ``False`` (numpy's too), never another truthy value."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    raise ValueError(f"{name} must be true or false, got {v!r}")


def require_real(v, name: str, lo: float = -math.inf, hi: float = math.inf,
                 positive: bool = False) -> float:
    """v as a float: a finite real (numpy's too, not a ``bool``) in [lo, hi], > 0 if ``positive``."""
    if ((type(v) is float or isinstance(v, numbers.Real) and not isinstance(v, bool))
            and abs(v) < math.inf and lo <= v <= hi and (v > 0 or not positive)):
        return float(v)
    interval = f"{'(' if lo == -math.inf else '['}{lo:g}, {hi:g}{')' if hi == math.inf else ']'}"
    where = "be finite and positive" if positive else f"lie in {interval}"
    raise ValueError(f"{name} must {where}, got {v!r}")


def _symmetry(X: np.ndarray, tol: float, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    defect, S = max_abs(X - (C := ct(X))), X + C
    return defect <= tol * (1.0 + scale), defect, np.divide(S, 2, out=S)


def _hermitian_mask(X: np.ndarray, tol: float, part: bool = True):
    """Per matrix of a square stack: finite entry moduli and a symmetry defect max|X - X*| within
    ``tol * (1 + max|X|)`` (a numpy bool or bool array), the defect, and (X + X*)/2.  Beyond
    ``_HALF_MAX`` warnings are off, non-finite matrices zeroed, and (if ``part``) a passing
    matrix whose Hermitian part overflows raises NonFiniteInput."""
    if not any_true(~((scale := max_abs(X)) <= _HALF_MAX[X.dtype.type])):
        return _symmetry(X, tol, scale)
    with np.errstate(over="ignore", invalid="ignore"):   # complex inf / 2 is invalid
        finite = scale < np.inf
        ok, defect, H = _symmetry(np.where(finite[..., None, None], X, 0), tol, scale)
        ok = ok & finite
    if part:
        require_finite(H[ok], "Hermitian part (X + X*)/2")
    return ok, defect, H


def is_hermitian(X, tol: float = ETA_HERM):
    """Finite entry moduli and symmetry, per matrix: a bool for one matrix, a bool array for a stack."""
    X, tol = np.asarray(X), require_real(tol, "tol", 0.0)
    return False if _matrix_defect(X) else unbatch(_hermitian_mask(require_matrix(X), tol, False)[0])


def require_hermitian(X, tol: float = ETA_HERM) -> np.ndarray:
    """Validate the Hermitian invariant (``is_hermitian``); return the Hermitian part (X + X*)/2."""
    ok, defect, H = _hermitian_mask(X := require_matrix(X), tol)
    if any_true(~ok):
        require_finite(X, "matrix")
        raise NonHermitianInput(f"symmetry defect {defect.max():.3e} exceeds tolerance")
    return H


def is_unitary(U: np.ndarray, tol: float = ETA_UNIT):
    """U U* = I within tol, per matrix; false where U U* is not finite."""
    U, tol = np.asarray(U), require_real(tol, "tol", 0.0)
    if _matrix_defect(U):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (U := require_matrix(U)) @ ct(U)
        scale = max_abs(gram)
        return unbatch((max_abs(gram - np.eye(U.shape[-1])) <= tol * (1.0 + scale)) & (scale < np.inf))


def row_power(w: np.ndarray, e) -> np.ndarray:
    """``w ** e`` with one exponent per row of ``w`` (or one for all rows),
    bitwise each row's exponent applied as a Python float: numpy takes
    sqrt, square or reciprocal for a scalar 0.5, 2 or -1 but pow, which
    can differ in the last bit, for an exponent array, so those rows are
    redone with the scalar."""
    e = np.asarray(e, dtype=float)
    if e.ndim == 0:
        return w ** float(e)
    out = w ** e.reshape(e.shape + (1,) * (w.ndim - e.ndim))
    for v in (0.5, 2.0, -1.0):
        if any_true(rows := e == v):
            out[rows] = w[rows] ** v
    return out


def _eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, U = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigFailure(str(exc)) from exc
    return w[..., ::-1].copy(), U[..., ::-1].copy()


def _below_floor(w: np.ndarray):
    """Per spectrum (descending, last axis), whether it is at or below the positive-definite
    floor.  ``[()]`` makes a single spectrum's ends numpy scalars: 0-d array arithmetic is slower."""
    return ((top := w[..., 0][()]) <= 0.0) | (w[..., -1][()] <= EPS_PD * top)


def _above_floor(w: np.ndarray) -> np.ndarray:
    """Descending spectra ``w``, or NonPositiveSpectrum naming the first one at or below the
    positive-definite floor."""
    if any_true(bad := _below_floor(w)):
        lam = w[np.unravel_index(np.argmax(bad), bad.shape)]   # the first spectrum below it
        raise NonPositiveSpectrum(f"eigenvalue {lam[-1]:.3e} at or below relative floor "
                                  f"{EPS_PD:.0e} * {lam[0]:.3e}")
    return w


def _pd_eigh(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, U = _eigh(P)
    return _above_floor(w), U


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
    return _hermitize((U * f[..., None, :]) @ ct(U))


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


def _overflow_checked(name: str, kernel, *args) -> np.ndarray:
    """``kernel(*args)`` of a public function, NumericBreakdown naming it if that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(kernel(*args), f"{name} result", NumericBreakdown)


def mat_power(P, r: float) -> np.ndarray:
    """Fractional power of a positive definite matrix via eigendecomposition.

    ``mat_power(P, 0)`` is the exact identity of a valid P; eigenvalues at or
    below the relative floor raise NonPositiveSpectrum rather than being clamped.
    """
    return _overflow_checked("mat_power", _power, require_hermitian(P), require_real(r, "exponent r"))


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
        return _hermitize((self.U / np.sqrt(self.w)[..., None, :]) @ ct(self.U))


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
    return _overflow_checked("mat_exp", _exp, require_hermitian(H))


def mat_log(P) -> np.ndarray:
    """Matrix logarithm of a positive definite matrix."""
    w, U = pd_eig(P)
    return from_eig(U, np.log(w))


def _spectrum_of_factor(F: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(F, compute_uv=False)
    return s * s


def spectrum_of_factor(F) -> np.ndarray:
    """Eigenvalues (descending) of F F* computed as squared singular values.

    Keeping positive definite intermediates in factored form halves the
    effective condition number seen by the decomposition, which is what
    makes tight log-majorization margins attainable in double precision.
    """
    F = require_matrix(F, "factor", square=False, finite=True)
    return _overflow_checked("spectrum_of_factor", _spectrum_of_factor, F)


def _compound(M: np.ndarray, k: int) -> np.ndarray:
    if k == 1:
        return M.copy()
    subs = np.array(list(combinations(range(M.shape[-1]), k)))
    S = M[..., subs[:, None, :, None], subs[None, :, None, :]]
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0] if k == 2 else np.linalg.det(S)


def compound(M, k: int) -> np.ndarray:
    """k-th multiplicative compound: all k-by-k minors of M.

    Rows and columns are indexed by the k-subsets of {1..n} in
    lexicographic order, so ``compound(M, 1) == M`` and
    ``compound(M, n) == [[det M]]``.  Orders 1 and 2 are closed forms (a
    copy of M; ``a*d - b*c``), higher orders numpy's LU ``det``; the result
    has ``det``'s dtype (float for integer entries).
    """
    M = require_matrix(M, "M", finite=True)
    return _overflow_checked("compound", _compound, M,
                             require_integer(k, "compound order k", 1, M.shape[-1], BadOrder))


# numpy's SeedSequence hash and PCG64 seeding, whose output NEP 19 keeps
# stable across numpy versions.
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def pcg_states(seeds) -> np.ndarray:
    """PCG64's ``(state, inc)`` as ``np.random.default_rng(seed)`` seeds it
    (from the key ``SeedSequence(seed).generate_state(4, np.uint64)``), for
    each seed in one pass: an ``(N, 2)`` object array of ints.  ``seeds`` is
    an int of any size (a batch of one) or an array of ints below 2**64."""
    if isinstance(seeds, int):
        words = np.array([seed_words(seeds)], dtype=np.uint32)
    else:
        s = np.asarray(seeds, dtype=np.uint64)
        words = np.stack([s & _M32, s >> 32], axis=-1)
    s_hi, s_lo, i_hi, i_lo = seed_hash(words, 8).astype("<u4").view("<u8").astype(object).T
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    return np.stack([((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc], axis=-1)


class Lockstep:
    """The generators ``np.random.default_rng(seed)`` of ``seeds`` side by
    side: ``integers(low, high)`` (a range of at most 2**32, per seed or for
    all), ``random()`` and ``bit_generator.random_raw()`` return one entry
    per seed, bitwise that seed's generator's.  As numpy does, integers take
    Lemire's method on the 32-bit halves of 64-bit outputs (the high half
    buffered) and ``random()`` 53-bit doubles.  States are (4, N) arrays of
    32-bit limbs, lowest first."""

    _mult = [np.uint64((_PCG_MULT >> s) & _M32) for s in (0, 32, 64, 96)]
    bit_generator = property(lambda self: self)   # for bit_generator.random_raw(), as on a Generator

    def __init__(self, seeds):
        data = b"".join(v.to_bytes(16, "little") for v in pcg_states(seeds).T.ravel().tolist())
        limbs = np.frombuffer(data, "<u4").reshape(2, -1, 4).transpose(0, 2, 1)
        self.state, self.inc = limbs.astype(np.uint64)
        self.rows = np.arange(n := self.state.shape[1])
        self.has_half, self.half = np.zeros(n, bool), np.zeros(n, np.uint64)

    def random_raw(self, rows=None) -> np.ndarray:
        """Step the LCG (state * mult + inc) of the rows, all by default; return XSL-RR outputs."""
        rows = self.rows if rows is None else rows
        x, out = self.state[:, rows], self.inc[:, rows]
        for j, m in enumerate(self._mult):
            p = x[:4 - j] * m
            out[j:] += p & _M32
            out[j + 1:] += (p >> 32)[:3 - j]
        for k in range(3):
            out[k + 1] += out[k] >> 32
        x = self.state[:, rows] = out & _M32
        v, rot = (x[3] << 32 | x[2]) ^ (x[1] << 32 | x[0]), x[3] >> 26
        return v >> rot | v << (64 - rot & 63)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """The rows' buffered halves, or the low halves of new outputs."""
        had, out = self.has_half[rows], self.half[rows]
        x = self.random_raw(fresh := rows[~had])
        out[~had], self.half[fresh], self.has_half[rows] = x & _M32, x >> 32, ~had
        return out

    def integers(self, low, high) -> np.ndarray:
        span = np.broadcast_to(np.asarray(high) - low, self.rows.shape).astype(np.uint64)
        out = np.zeros(len(span), dtype=np.int64)
        rows = self.rows[span > 1]                 # a range of one draws nothing
        while rows.size:                           # Lemire: redraw rows whose leftover is rejected
            m = self._next32(rows) * span[rows]
            out[rows] = m >> 32
            rows = rows[(m & _M32) < (2**32 - span[rows]) % span[rows]]
        return low + out

    def random(self) -> np.ndarray:
        return (self.random_raw() >> 11) * (1.0 / 9007199254740992.0)


def pd_draws(n: int, states, spreads) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of ``sample_pd`` for a stack, one matrix per PCG64
    state (a row of ``pcg_states``) and spread: a complex Gaussian matrix
    and log-uniform eigenvalues in ``[1/spread, spread]``."""
    G = np.empty((len(states), 2, n, n))
    u = np.empty((len(states), n))
    rng = np.random.Generator(np.random.PCG64(0))   # set to each state in turn
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i, (pcg["state"], pcg["inc"]) in enumerate(np.asarray(states).tolist()):
        rng.bit_generator.state = state
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
    n, spread = require_integer(n, "n", 1), require_real(spread, "spread", 1.0)
    return pd_compose(*pd_draws(n, pcg_states(require_integer(seed, "seed")), [spread]))[0]


def _spectral_norm(X: np.ndarray) -> np.ndarray:
    return np.linalg.svd(X, compute_uv=False)[..., 0]


def spectral_norm(X):
    """Largest singular value (per matrix of a stack; square or not)."""
    return unbatch(_spectral_norm(require_matrix(X, "factor", square=False, finite=True)))
