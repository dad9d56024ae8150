"""Weighted metric and spectral geometric means on the SPD cone.

The two parametrized means of positive definite A, B with weight t in [0,1]:

    metric_mean(A, B, t)   = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}
    spectral_mean(A, B, t) = C^t A C^t   with   C = A^{-1} # B,

where ``#`` is the midpoint metric mean.  Both reduce to A at t=0 and B at
t=1, and for commuting arguments to A^{1-t} B^t.

All compositions are evaluated through square-root factors: every positive
definite intermediate X is carried as F with X = F F*, and powers of X come
from the singular values of F.  This is the same defining formula, but the
decompositions only ever see the square root of each condition number,
which is what keeps endpoint identities and determinant identities tight in
double precision even for badly conditioned inputs.

A and B may be stacks of shape ``(..., n, n)``; the means are then taken
pair by pair.  The underscore functions take operands decomposed once by
``linalg.spd`` and a weight per pair, so callers that combine one pair in
several ways decompose each operand only once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown
from .linalg import (Spd, ct, from_eig, hermitize, require_hermitian, require_same_shape,
                     row_power, spd)

_SINGULAR_FLOOR = 1e4 * np.finfo(float).eps


def _operands(A, B) -> tuple[Spd, Spd]:
    A, B = require_same_shape(A, B)
    return spd(require_hermitian(A)), spd(require_hermitian(B))


def _check_weight(v: float, name: str = "weight t") -> float:
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return v


def gram(F: np.ndarray) -> np.ndarray:
    """The positive definite matrix F F* carried by a Gram factor."""
    return hermitize(F @ ct(F))


def _metric_factor(a: Spd, b: Spd, t) -> np.ndarray:
    K = a.inv_root @ b.root            # K K* = A^{-1/2} B A^{-1/2}
    Uk, s, _ = np.linalg.svd(K)
    return (a.root @ Uk) * row_power(s, t)[..., None, :]


def metric_mean_factor(A, B, t: float) -> np.ndarray:
    """Gram factor F with metric_mean(A, B, t) = F F*."""
    return _metric_factor(*_operands(A, B), _check_weight(t))


def metric_mean(A, B, t: float) -> np.ndarray:
    """t-weighted metric geometric mean A^{1/2}(A^{-1/2}BA^{-1/2})^t A^{1/2}."""
    return gram(metric_mean_factor(A, B, t))


def _inv_sharp(a: Spd, b: Spd) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem (w, U) of C = A^{-1} # B.

    C is evaluated as A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}, which is
    metric_mean(A^{-1}, B, 1/2) written directly in terms of the factors of
    A so the inverse is never formed.
    """
    S = a.root @ b.root                # S S* = A^{1/2} B A^{1/2}
    Us, s, _ = np.linalg.svd(S)
    G = (a.inv_root @ Us) * np.sqrt(s)[..., None, :]   # C = G G*
    Ug, g, _ = np.linalg.svd(G)
    return g * g, Ug


def _spectral_factor(C: tuple[np.ndarray, np.ndarray], a: Spd, t) -> np.ndarray:
    """Gram factor C^t A^{1/2} of the spectral mean, from C = A^{-1} # B."""
    w, U = C
    return ((U * row_power(w, t)[..., None, :]) @ ct(U)) @ a.root


def _nat_factor(a: Spd, b: Spd, t) -> np.ndarray:
    """Gram factor of the spectral mean of decomposed operands."""
    return _spectral_factor(_inv_sharp(a, b), a, t)


def g_factor(A, B, t: float) -> np.ndarray:
    """The conjugating factor G_t = (A^{-1} # B)^t of the spectral mean.

    Satisfies spectral_mean(A, B, t) = G_t A G_t.
    """
    w, U = _inv_sharp(*_operands(A, B))
    return from_eig(U, row_power(w, _check_weight(t)))


def spectral_mean_factor(A, B, t: float) -> np.ndarray:
    """Gram factor F with spectral_mean(A, B, t) = F F*."""
    return _nat_factor(*_operands(A, B), _check_weight(t))


def spectral_mean(A, B, t: float) -> np.ndarray:
    """t-weighted spectral geometric mean (A^{-1}#B)^t A (A^{-1}#B)^t."""
    return gram(spectral_mean_factor(A, B, t))


@dataclass
class SimilarityWitness:
    """Constructive witness that the midpoint metric mean A # B is
    positively similar to (A nat_{1-t} B)^{1/2} U (A nat_t B)^{1/2}.

    Attributes
    ----------
    conjugator:
        Positive definite S with S^{-1} (A # B) S equal to ``target``.
        This is G_t itself; the construction identifies the two.
    rotator:
        The unitary U appearing in the middle of ``target``.
    target:
        The product (A nat_{1-t} B)^{1/2} U (A nat_t B)^{1/2}.  Not
        Hermitian in general, but similar to A # B, hence with the same
        positive spectrum.
    """

    conjugator: np.ndarray
    rotator: np.ndarray
    target: np.ndarray


def _similarity_witness(a: Spd, b: Spd, t) -> SimilarityWitness:
    C = _inv_sharp(a, b)
    Gt = from_eig(C[1], row_power(C[0], t))
    nat_ab = spd(gram(_spectral_factor(C, a, t)))
    nat_ba = spd(gram(_nat_factor(b, a, t)))   # = A nat_{1-t} B

    V = nat_ab.inv_root @ Gt
    W = Gt @ nat_ba.root
    R = V @ W
    Ur, sr, Vr = np.linalg.svd(R)
    if np.any(sr[..., -1] <= _SINGULAR_FLOOR * sr[..., 0]):
        raise NumericBreakdown("R R* is numerically singular")
    U = ct(Vr) @ ct(Ur)                # R^{-1} (R R*)^{1/2}

    target = nat_ba.root @ U @ nat_ab.root
    return SimilarityWitness(conjugator=Gt, rotator=U, target=target)


def similarity_witness(A, B, t: float) -> SimilarityWitness:
    """Construct the positive-similarity witness for A # B.

    The construction goes through V = (A nat_t B)^{-1/2} G_t,
    W = G_t (B nat_t A)^{1/2}, R = V W and U = R^{-1} (R R*)^{1/2};
    U equals the adjoint of the unitary polar factor of R and is computed
    that way (via the SVD of R) for stability.
    """
    return _similarity_witness(*_operands(A, B), _check_weight(t))
