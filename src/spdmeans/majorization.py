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
)
from .linalg import _compound, _eigh, is_hermitian, pymax, require_square, unbatch

TAU_MAJ = 1e-9         # default slack: absolute on sums, log-space absolute
LOG_FLOOR = 1e-300     # entries below this are rejected before taking logs
ETA_IMAG = 1e-8        # relative tolerance on imaginary parts of eigenvalues


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


def _sorted_desc(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise LengthMismatch(f"{name} is empty")
    return -np.sort(-v, kind="stable")


def _check_lengths(y, x) -> tuple[np.ndarray, np.ndarray]:
    y = _sorted_desc(y, "y")
    x = _sorted_desc(x, "x")
    if y.shape != x.shape:
        raise LengthMismatch(f"length mismatch: {y.size} vs {x.size}")
    return y, x


def majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """Does y majorize x?  Prefix sums of x below those of y, equal totals.

    The slack is absolute, scaled by max(1, l1-norm of the inputs).
    """
    y, x = _check_lengths(y, x)
    margins = np.cumsum(y) - np.cumsum(x)
    scale = max(1.0, float(np.abs(y).sum()), float(np.abs(x).sum()))
    eff = tol * scale
    defect = float(margins[-1])
    verdict = bool(np.all(margins >= -eff) and abs(defect) <= eff)
    return MajorizationReport("majorize", margins, defect, verdict)


def weak_majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """As majorizes, without the total-equality constraint."""
    y, x = _check_lengths(y, x)
    margins = np.cumsum(y) - np.cumsum(x)
    scale = max(1.0, float(np.abs(y).sum()), float(np.abs(x).sum()))
    defect = float(margins[-1])
    verdict = bool(np.all(margins >= -tol * scale))
    return MajorizationReport("weak_majorize", margins, defect, verdict)


def log_majorizes(y, x, tol: float = TAU_MAJ) -> MajorizationReport:
    """Does y log-majorize x?  Computed as cumulative sums of logarithms.

    Entries must be positive (and above 1e-300, for log-space safety);
    ``tol`` is absolute in log space, i.e. relative on prefix products.
    """
    y, x = _check_lengths(y, x)
    for name, v in (("y", y), ("x", x)):
        if np.any(v < LOG_FLOOR):
            raise NegativeEntry(f"{name} has entries below {LOG_FLOOR:g}")
    margins = np.cumsum(np.log(y)) - np.cumsum(np.log(x))
    defect = float(margins[-1])
    verdict = bool(np.all(margins >= -tol) and abs(defect) <= tol)
    return MajorizationReport("log_majorize", margins, defect, verdict)


def nonneg_spectrum(X) -> np.ndarray:
    """Descending real eigenvalues of X (of each matrix of a stack).

    Hermitian inputs go through the symmetric solver.  Non-Hermitian inputs
    are accepted when they are diagonalizable with (near-)real spectrum,
    e.g. products of positive semidefinite factors; imaginary parts beyond
    tolerance raise NonrealSpectrum.  In a stack the choice is made per
    matrix.
    """
    X = require_square(X, "X")
    n = X.shape[-1]
    flat = X.reshape(-1, n, n)
    herm = is_hermitian(flat)
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


def eig_log_majorizes(X, Y, tol: float = TAU_MAJ) -> MajorizationReport:
    """Log majorization of matrices via their eigenvalue vectors.

    For a product A B of positive definite factors, pass the Hermitian
    similarity A^{1/2} B A^{1/2} instead of the product itself.
    """
    return log_majorizes(nonneg_spectrum(Y), nonneg_spectrum(X), tol)


def ky_fan_norm(X, k: int):
    """Sum of the k largest singular values; k=1 is the spectral norm."""
    X = require_square(X, "X")
    n = X.shape[-1]
    if not isinstance(k, (int, np.integer)) or k < 1 or k > n:
        raise BadOrder(f"Ky Fan order k={k} outside 1..{n}")
    s = np.linalg.svd(X, compute_uv=False)
    return unbatch(np.sum(s[..., : int(k)], axis=-1))


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
    X = require_square(X, "X")
    Y = require_square(Y, "Y")
    if X.shape != Y.shape:
        raise DimensionMismatch(f"operand shapes differ: {X.shape} vs {Y.shape}")
    n = X.shape[-1]
    if n > 5:
        raise BadOrder(f"compound cross check limited to n <= 5, got {n}")
    eps = float(np.finfo(float).eps)
    ok = np.ones(X.shape[:-2], dtype=bool)
    for k in range(1, n + 1):
        cx = _compound(X, k)
        cy = _compound(Y, k)
        wx = np.linalg.eigvalsh(cx)
        wy = np.linalg.eigvalsh(cy)
        if k == 1:
            kappa = (wx[..., -1] / pymax(wx[..., 0], eps * wx[..., -1])
                     + wy[..., -1] / pymax(wy[..., 0], eps * wy[..., -1]))
            det_tol = pymax(tol, 64.0 * n * eps * kappa)
        gate = det_tol if k == n else tol
        ok &= ~(wx[..., -1] > wy[..., -1] * (1.0 + gate))
    det_x, det_y = cx.real[..., 0, 0], cy.real[..., 0, 0]
    ok &= ~(np.abs(det_x - det_y) > det_tol * pymax(np.abs(det_x), np.abs(det_y)))
    return unbatch(ok)

