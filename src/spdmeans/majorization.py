"""Majorization, weak majorization and log majorization on spectra and
matrices, plus Ky Fan norms and the compound-matrix cross oracle.

Conventions: ``majorizes(y, x)`` asks whether x is majorized by y, i.e.
whether y dominates.  Margins are reported dominant-minus-dominated per
prefix, so a negative margin is a violation.  For log majorization the
margins live in log space, where an absolute slack corresponds to a
relative slack on the prefix products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadOrder,
    DimensionMismatch,
    EigFailure,
    LengthMismatch,
    NegativeEntry,
    NonrealSpectrum,
    NumericBreakdown,
)
from .linalg import (ETA_HERM, _compound, _eigh, _hermitian_mask, pymax, require_finite,
                     require_integer, require_matrix, require_real, require_same_shape, unbatch)

TAU_MAJ = 1e-9         # default slack: absolute on sums, log-space absolute
LOG_FLOOR = 1e-300     # entries below this are rejected before taking logs
ETA_IMAG = 1e-8        # relative tolerance on imaginary parts of eigenvalues
_EPS = float(np.finfo(float).eps)


@dataclass
class MajorizationReport:
    """Outcome of one majorization comparison.

    ``margins[k-1]`` is the k-prefix slack (dominant minus dominated);
    ``equality_defect`` is the full sum/product mismatch, equal to the last
    margin.  ``verdict`` is true iff all margins clear ``-tol`` and, for
    the kinds that require it, ``abs(equality_defect) <= tol``.
    """

    kind: str
    margins: np.ndarray = field(repr=False)
    equality_defect: float
    verdict: bool

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins))


def _check_lengths(y, x, tol) -> tuple[np.ndarray, np.ndarray, float]:
    """y, x as descending finite float vectors (a scalar is one entry), nonempty, of one length."""
    y, x = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (y, x))
    for name, v in (("y", y), ("x", x)):
        if v.ndim != 1:
            raise DimensionMismatch(f"{name} must be a vector, got shape {v.shape}")
        if v.size == 0:
            raise LengthMismatch(f"{name} is empty")
        require_finite(v, name)
    if y.shape != x.shape:
        raise LengthMismatch(f"length mismatch: {y.size} vs {x.size}")
    return -np.sort(-y, kind="stable"), -np.sort(-x, kind="stable"), require_real(tol, "tol", 0.0)


def _sum_margins(y, x, tol: float) -> tuple[np.ndarray, float, float]:
    """Prefix-sum margins, the slack scaled by max(1, l1-norm of the
    inputs), and the total defect."""
    y, x, tol = _check_lengths(y, x, tol)
    margins = np.cumsum(y) - np.cumsum(x)
    scale = max(1.0, float(np.abs(y).sum()), float(np.abs(x).sum()))
    return margins, tol * scale, float(margins[-1])


def majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """Does y majorize x?  Prefix sums of x below those of y, equal totals."""
    margins, eff, defect = _sum_margins(y, x, tol)
    return MajorizationReport("majorize", margins, defect,
                              bool(np.all(margins >= -eff) and abs(defect) <= eff))


def weak_majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """As majorizes, without the total-equality constraint."""
    margins, eff, defect = _sum_margins(y, x, tol)
    return MajorizationReport("weak_majorize", margins, defect, bool(np.all(margins >= -eff)))


def _log_margins(log_hi, log_lo, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-majorization prefix margins of stacked log-spectra (descending;
    ``log_hi`` dominates), and per row whether every margin clears
    ``-tol`` and the last, the equality defect, is within ``tol``."""
    margins = np.cumsum(log_hi, axis=-1) - np.cumsum(log_lo, axis=-1)
    return margins, (margins.min(axis=-1) >= -tol) & (np.abs(margins[..., -1]) <= tol)


def log_majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """Does y log-majorize x?  Computed as cumulative sums of logarithms.

    Entries must be positive (and above 1e-300, for log-space safety);
    ``tol`` is absolute in log space, i.e. relative on prefix products.
    """
    y, x, tol = _check_lengths(y, x, tol)
    for name, v in (("y", y), ("x", x)):
        if np.any(v < LOG_FLOOR):
            raise NegativeEntry(f"{name} has entries below {LOG_FLOOR:g}")
    margins, verdict = _log_margins(np.log(y), np.log(x), tol)
    return MajorizationReport("log_majorize", margins, float(margins[-1]), bool(verdict))


def _nonneg_spectrum(X: np.ndarray) -> np.ndarray:
    n = X.shape[-1]
    flat = X.reshape(-1, n, n)
    herm = _hermitian_mask(flat, ETA_HERM)
    out = np.empty(flat.shape[:-1])
    if np.any(herm):
        out[herm] = _eigh(flat[herm])[0]
    if not np.all(herm):
        try:
            w = np.linalg.eigvals(flat[~herm])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigFailure(str(exc)) from exc
        scale = 1.0 + np.max(np.abs(w.real), axis=-1)
        if np.any(np.max(np.abs(w.imag), axis=-1) > ETA_IMAG * scale):
            raise NonrealSpectrum("eigenvalues have non-negligible imaginary parts")
        out[~herm] = -np.sort(-w.real, axis=-1, kind="stable")
    return out.reshape(X.shape[:-1])


def nonneg_spectrum(X) -> np.ndarray:
    """Descending real eigenvalues of X (of each matrix of a stack).

    Hermitian inputs go through the symmetric solver.  Non-Hermitian inputs
    are accepted when they are diagonalizable with (near-)real spectrum,
    e.g. products of positive semidefinite factors; imaginary parts beyond
    tolerance raise NonrealSpectrum.  In a stack the choice is made per
    matrix.
    """
    return _nonneg_spectrum(require_matrix(X, "X", finite=True))


def eig_log_majorizes(X, Y, tol: float = TAU_MAJ) -> MajorizationReport:
    """Log majorization of one pair of matrices via their eigenvalue vectors.

    For a product A B of positive definite factors, pass the Hermitian
    similarity A^{1/2} B A^{1/2} instead of the product itself.
    """
    X, Y = require_same_shape(X, Y, single="X and Y")
    return log_majorizes(nonneg_spectrum(Y), nonneg_spectrum(X), tol)


def ky_fan_norm(X, k: int):
    """Sum of the k largest singular values; k=1 is the spectral norm."""
    X = require_matrix(X, "X", finite=True)
    k = require_integer(k, "Ky Fan order k", 1, X.shape[-1], BadOrder)
    return unbatch(np.sum(np.linalg.svd(X, compute_uv=False)[..., :k], axis=-1))


def _compound_spectra(X: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """What the compound oracle needs of each matrix of a validated stack:
    the top eigenvalues of the compounds ``C_k``, k = 1..n, the ratio
    lambda_1 / lambda_n behind the determinant slack, and the determinant.
    Where a compound's minors overflow, NumericBreakdown names the order."""
    tops, n = [], X.shape[-1]
    for k in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            C = _compound(X, k)
        if not np.isfinite(C).all():
            raise NumericBreakdown(f"the compound oracle's order-{k} minors overflow doubles")
        # C_n is 1 x 1, and its eigenvalue is its real part, as LAPACK returns it
        w = np.linalg.eigvalsh(C) if k < n else C.real[..., 0, :]
        if k == 1:
            kappa = w[..., -1] / pymax(w[..., 0], _EPS * w[..., -1])
        tops.append(w[..., -1])
    return tops, kappa, C.real[..., 0, 0]


def _compound_order(x, y, tol: float = TAU_MAJ) -> np.ndarray:
    """The verdicts of ``compound_cross_check`` from the compound spectra
    of the dominated and of the dominant stack."""
    (tops_x, kappa_x, det_x), (tops_y, kappa_y, det_y) = x, y
    n = len(tops_x)
    det_tol = pymax(tol, 64.0 * n * _EPS * (kappa_x + kappa_y))
    ok = ~(np.abs(det_x - det_y) > det_tol * pymax(np.abs(det_x), np.abs(det_y)))
    for k, (top_x, top_y) in enumerate(zip(tops_x, tops_y), 1):
        ok &= ~(top_x > top_y * (1.0 + (det_tol if k == n else tol)))
    return ok


def compound_cross_check(X, Y, tol: float = TAU_MAJ):
    """Independent oracle for eig_log_majorizes on positive definite X, Y.

    True iff lambda_1(C_k(X)) <= lambda_1(C_k(Y)) * (1 + tol) for every
    compound order k and det X = det Y within relative tolerance.  The
    determinant comparisons (order n, full cancellation) are resolution
    limited by the conditioning of the operands, so their slack is widened
    to the corresponding roundoff floor when that exceeds ``tol``; at the
    default ensembles the floor is below ``tol`` and has no effect.
    Restricted to n <= 5 because the compounds grow combinatorially.  On
    stacks the verdict is per pair of matrices.
    """
    X, Y = require_same_shape(require_matrix(X, "X", finite=True),
                              require_matrix(Y, "Y", finite=True))
    if X.shape[-1] > 5:
        raise BadOrder(f"compound cross check limited to n <= 5, got {X.shape[-1]}")
    tol = require_real(tol, "tol", 0.0)
    return unbatch(_compound_order(_compound_spectra(X), _compound_spectra(Y), tol))
