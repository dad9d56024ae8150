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
pair by pair.  The underscore kernels take A decomposed once by
``linalg.spd``, B by any Gram factor L (L L* = B), and a weight per pair,
so callers that combine one pair in several ways decompose each operand
only once.  The means depend on B only through B = L L*: K = A^{-1/2} L
and S = A^{1/2} L carry A^{-1/2} B A^{-1/2} and A^{1/2} B A^{1/2}.  The
battery passes B's Hermitian root ``spd(B).root``.

The public means, their factors and ``g_factor`` decompose A into its
eigensystem (``_inv_sharp`` needs A's Hermitian square root and its
inverse) and take B by its Cholesky factor, once ``eigvalsh`` has passed
B's spectrum through the same positive-definite floor.  With BLAS on one
thread that costs about 260 + 50 us in place of 750 us for the
eigensystem and square root at n = 64, and 7 + 4 us in place of 20 us at
n = 6.  So they agree with their kernels on ``spd`` operands, as the
battery calls them, to roundoff, not bitwise.  From matrix order
``_WORKER_ORDER`` on, they take B's Cholesky factor on one worker thread
while the calling thread decomposes A; the results are the same bits
either way.  ``similarity_witness`` also takes B as the first operand of
B nat A, so it decomposes both operands into eigensystems in the calling
thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown
from .linalg import (Spd, _above_floor, _hermitize, _lapack, ct, from_eig, require_hermitian,
                     require_real, require_same_shape, row_power, spd)

_SINGULAR_FLOOR = 1e4 * np.finfo(float).eps
# Smallest matrix order at which the public means take B's Cholesky factor on a
# worker thread while the calling thread decomposes A: below it, handing B over
# costs more than the overlap saves (measured; see README, "Library").
_WORKER_ORDER = 64

_worker_lock = threading.Lock()
_worker_jobs = None     # the worker's queue of (context, B, reply queue), once it runs


def _cholesky(B) -> np.ndarray:
    """B's Cholesky factor, once its spectrum passes the positive-definite floor."""
    H = require_hermitian(B)
    _above_floor(_lapack(np.linalg.eigvalsh, H)[..., ::-1])
    return _lapack(np.linalg.cholesky, H, NumericBreakdown, "operand B has no Cholesky factor: ")


def _serve(jobs) -> None:
    while True:
        context, B, reply = jobs.get()
        try:
            reply.put(context.run(_cholesky, B))
        except BaseException as exc:   # raised again by the waiting caller
            reply.put(exc)


def _forget_worker() -> None:
    """In a forked child: the worker thread, and any lock holder, stayed in the parent."""
    global _worker_lock, _worker_jobs
    _worker_lock, _worker_jobs = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _operands(A, B, t) -> tuple[Spd, np.ndarray, float]:
    """The public means' inputs: A's eigensystem, then B's Cholesky factor,
    then the weight.  Errors come in that order too, whichever thread
    factors B, and B is factored in the caller's context (its
    ``np.errstate``) either way."""
    global _worker_jobs
    A, B = require_same_shape(A, B)
    if A.ndim < 2 or A.shape[-1] < _WORKER_ORDER:
        return spd(require_hermitian(A)), _cholesky(B), require_real(t, "weight t", 0.0, 1.0)
    import queue                       # on first use: `import spdmeans` does not load it
    reply = queue.SimpleQueue()
    with _worker_lock:
        if _worker_jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="spdmeans-operand",
                             daemon=True).start()
            _worker_jobs = jobs        # only once a thread serves it
        _worker_jobs.put((contextvars.copy_context(), B, reply))
    try:
        a = spd(require_hermitian(A))
    finally:
        L = reply.get()                # even if A fails: the worker is done with B on return
    if isinstance(L, BaseException):
        raise L
    return a, L, require_real(t, "weight t", 0.0, 1.0)


def gram(F: np.ndarray) -> np.ndarray:
    """The positive definite matrix F F* carried by a Gram factor."""
    return _hermitize(F @ ct(F))


def _metric_factor(a: Spd, L: np.ndarray, t) -> np.ndarray:
    """Gram factor of the metric mean of A and B = L L*."""
    K = a.inv_root @ L                 # K K* = A^{-1/2} B A^{-1/2}
    Uk, s, _ = np.linalg.svd(K)
    return (a.root @ Uk) * row_power(s, t)[..., None, :]


def metric_mean_factor(A, B, t: float) -> np.ndarray:
    """Gram factor F with metric_mean(A, B, t) = F F*."""
    return _metric_factor(*_operands(A, B, t))


def metric_mean(A, B, t: float) -> np.ndarray:
    """t-weighted metric geometric mean A^{1/2}(A^{-1/2}BA^{-1/2})^t A^{1/2}."""
    return gram(metric_mean_factor(A, B, t))


def _inv_sharp(a: Spd, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem (w, U) of C = A^{-1} # B, for B = L L*.

    C is evaluated as A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}, which is
    metric_mean(A^{-1}, B, 1/2) written directly in terms of the factors of
    A so the inverse is never formed.
    """
    S = a.root @ L                     # S S* = A^{1/2} B A^{1/2}
    Us, s, _ = np.linalg.svd(S)
    G = (a.inv_root @ Us) * np.sqrt(s)[..., None, :]   # C = G G*
    Ug, g, _ = np.linalg.svd(G)
    return g * g, Ug


def _spectral_factor(C: tuple[np.ndarray, np.ndarray], a: Spd, t) -> np.ndarray:
    """Gram factor C^t A^{1/2} of the spectral mean, from C = A^{-1} # B."""
    w, U = C
    return ((U * row_power(w, t)[..., None, :]) @ ct(U)) @ a.root


def _nat_factor(a: Spd, L: np.ndarray, t) -> np.ndarray:
    """Gram factor of the spectral mean of A and B = L L*."""
    return _spectral_factor(_inv_sharp(a, L), a, t)


def g_factor(A, B, t: float) -> np.ndarray:
    """The conjugating factor G_t = (A^{-1} # B)^t of the spectral mean.

    Satisfies spectral_mean(A, B, t) = G_t A G_t.
    """
    a, L, t = _operands(A, B, t)
    w, U = _inv_sharp(a, L)
    return from_eig(U, row_power(w, t))


def spectral_mean_factor(A, B, t: float) -> np.ndarray:
    """Gram factor F with spectral_mean(A, B, t) = F F*."""
    return _nat_factor(*_operands(A, B, t))


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
    C = _inv_sharp(a, b.root)
    Gt = from_eig(C[1], row_power(C[0], t))
    nat_ab = spd(gram(_spectral_factor(C, a, t)))
    nat_ba = spd(gram(_nat_factor(b, a.root, t)))   # = A nat_{1-t} B

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
    A, B = require_same_shape(A, B)
    a, b = spd(require_hermitian(A)), spd(require_hermitian(B))
    return _similarity_witness(a, b, require_real(t, "weight t", 0.0, 1.0))
