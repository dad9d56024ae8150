"""Executable checks for every mean/majorization identity, inequality,
limit and counterexample the package implements, over fixed reference
inputs and randomized SPD ensembles.

Each ``check_*`` function encodes one statement and returns a
:class:`CheckOutcome` whose ``worst_margin`` is the smallest slack seen
across all sub-inequalities (negative means violated).  ``run_suite``
drives the whole battery with per-trial deterministic seeding and feeds
every log-majorization verdict on small matrices through the independent
compound-matrix oracle.

Every check is one group evaluator over stacks of shape ``(k, n, n)``,
with one parameter per row, that returns one outcome per row.
``run_suite`` draws all trials of a check first and evaluates the trials
of each dimension in one call; a public ``check_*`` function is the same
evaluator on a batch of one.

Margin conventions: log-majorization sub-checks contribute both the
minimum prefix margin and ``-abs(equality defect)``; positive semidefinite
verdicts contribute ``lambda_min(difference) / lambda_1(reference)``;
equality sub-checks contribute ``-relative deviation``.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import NumericBreakdown, PreconditionNotMet, SOutOfRange
from .linalg import (
    Lockstep,
    Spd,
    _below_floor,
    _eigh,
    _exp,
    _hermitize,
    _pd_eigh,
    _power,
    _spectral_norm,
    _spectrum_of_factor,
    any_true,
    ct,
    from_eig,
    max_abs,
    pcg_states,
    pd_compose,
    pd_draws,
    power_from_eig,
    pymax,
    require_hermitian,
    require_flag,
    require_integer,
    require_real,
    require_same_shape,
    row_power,
    seed_hash,
    seed_words,
    spd,
)
from .majorization import _compound_order, _compound_spectra, _log_margins, _nonneg_spectrum
from .means import (
    _inv_sharp,
    _metric_factor,
    _nat_factor,
    _similarity_witness,
    _spectral_factor,
    gram,
)

TAU_SIM = 1e-8       # similarity-witness residual, relative
SPECTRUM_TOL = 5e-4  # reproduction of 4-decimal reference spectra
ENTRY_TOL = 1e-3     # reproduction of 4-decimal reference matrices
EIG_TOL = 5e-3       # reproduction of 4-decimal reference eigenvalues

# Matrix entries per stack of trials, and of a limit family's members over
# the p grid.  Batching pays off for small n, where wrapper overhead
# dominates; for large n it gains little and the group's intermediates
# would raise peak memory, so large-n stacks are split.
_STACK_ENTRIES = 4096

# Fixtures with published 4-decimal reference values: a (t, s) pair beyond
# the provable exponent bound 1/max(t, 1-t) where the sandwich power is
# NOT log-majorized by the spectral mean, and a triple showing
# the spectral mean is not jointly Loewner-monotone.
NATLOG_COUNTEREXAMPLE = {
    "t": 1.0 / 3.0,
    "s": 2.1,
    "A": np.array([[79.1784, 19.0569], [19.0569, 85.5520]]),
    "B": np.array([[76.5012, 49.4980], [49.4980, 57.1403]]),
    "printed_sandwich": np.array([[76.2413, 32.5902], [32.5902, 70.2008]]),
    "printed_mean": np.array([[75.6010, 32.6424], [32.6424, 70.8404]]),
    "printed_sandwich_spectrum": np.array([105.9509, 40.4911]),
    "printed_mean_spectrum": np.array([105.9498, 40.4916]),
}
MONOTONE_COUNTEREXAMPLE = {
    "t": 1.0 / 3.0,
    "A": np.array([[36.4987, -34.0028], [-34.0028, 39.8198]]),
    "B1": np.array([[6.8259, -11.0027], [-11.0027, 33.6773]]),
    "B2": np.array([[2.5166, -0.2222], [-0.2222, 3.4253]]),
    "printed_mean_b1": np.array([[21.5984, -24.0515], [-24.0515, 36.6270]]),
    "printed_mean_b2": np.array([[13.4040, -10.9429], [-10.9429, 15.7328]]),
    "printed_diff_eigs": np.array([-0.0213, 29.1098]),
}

# What each fixture must reproduce: its delta entries, each with a label, a
# tolerance and the printed reference it measures.  Their verdict is false.
REPRODUCTION = {
    "counterexample_natlog": (
        ("delta_spectrum_sandwich", "spectrum (sandwich)", SPECTRUM_TOL, "printed_sandwich_spectrum"),
        ("delta_spectrum_mean", "spectrum (mean)", SPECTRUM_TOL, "printed_mean_spectrum"),
        ("delta_entries_sandwich", "entries (sandwich)", ENTRY_TOL, "printed_sandwich"),
        ("delta_entries_mean", "entries (mean)", ENTRY_TOL, "printed_mean")),
    "counterexample_monotone": (
        ("delta_entries_mean_b1", "entries (mean with B1)", ENTRY_TOL, "printed_mean_b1"),
        ("delta_entries_mean_b2", "entries (mean with B2)", ENTRY_TOL, "printed_mean_b2"),
        ("delta_diff_eigs", "difference eigenvalues", EIG_TOL, "printed_diff_eigs")),
}


@dataclass
class CheckOutcome:
    """Structured result of one theorem check."""

    check_id: str
    verdict: bool
    worst_margin: float
    witness: dict | None = None
    detail: dict[str, float] = field(default_factory=dict)
    trial: int = -1
    seed: int = 0

    def __reduce__(self):
        """Pickle (and copy) as the class and the fields in order, with no state dict."""
        return type(self), (self.check_id, self.verdict, self.worst_margin, self.witness,
                            self.detail, self.trial, self.seed)


@dataclass
class OracleTally:
    """Running agreement count between spectral log-majorization verdicts
    and the compound-matrix cross oracle (n <= 4 only)."""

    comparisons: int = 0
    mismatches: int = 0


@dataclass
class SuiteConfig:
    """Deterministic configuration for :func:`run_suite`."""

    seed: int = 1
    trials: int = 500
    limit_trials: int = 50
    dims: tuple[int, int] = (2, 6)
    t_grid: tuple[float, ...] = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
    r_grid: tuple[float, ...] = (0.3, 1.0, 2.0, 3.0)
    s_grid: tuple[float, ...] = (0.5, 1.0)
    s_at_bound: bool = True
    p_min_exp: int = 10
    spread: float = 100.0
    tol: float = 1e-8
    psd_tol: float = 1e-9
    limit_err_threshold: float = 1e-2
    limit_floor: float = 1e-8
    force_out_of_range: bool = False

    def validate(self) -> None:
        """Every field's type and range by the package's rules; a ValueError names a bad field."""
        for key in ("seed", "trials", "limit_trials"):
            require_integer(getattr(self, key), f"config field {key}")
        dyadic_grid(self.p_min_exp)  # raises outside the range it owns
        require_real(self.spread, "config field spread", 1.0)
        for key in ("tol", "psd_tol", "limit_err_threshold", "limit_floor"):
            require_real(getattr(self, key), f"config field {key} (a threshold)", positive=True)
        for key in ("s_at_bound", "force_out_of_range"):
            require_flag(getattr(self, key), f"config field {key}")
        if not isinstance(self.dims, (tuple, list)) or len(self.dims) != 2:
            raise ValueError(f"config field dims must be a pair of integers, got {self.dims!r}")
        require_integer(self.dims[1], "config field dims[1]",
                        require_integer(self.dims[0], "config field dims[0]", 1))
        for key in ("t_grid", "r_grid", "s_grid"):
            if not isinstance(v := getattr(self, key), (tuple, list)) or not v and key != "s_grid":
                raise ValueError(f"config field {key} must be a list (nonempty unless s_grid), got {v!r}")
        for t in self.t_grid:
            require_real(t, "config field t_grid value", 0.0, 1.0)
        for v in (*self.r_grid, *self.s_grid):
            require_real(v, "config field r_grid or s_grid value", positive=True)
        if not self.force_out_of_range and any(s > 2.0 for s in self.s_grid):
            raise ValueError("s grid exceeds 2, the largest provable bound 1/max(t, 1-t); "
                             "set force_out_of_range to run anyway")
        if bare := [t for t in self.t_grid if not _s_choices(self, t)]:
            raise ValueError(f"s_grid has no exponent up to the provable bound 1/max(t, 1-t) "
                             f"for t={bare[0]:g}; set s_at_bound or force_out_of_range")

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()})
        cfg.validate()
        return cfg


def dyadic_grid(p_min_exp: int) -> tuple[float, ...]:
    """Decreasing grid 2^0, ..., 2^-p_min_exp, p_min_exp in [0, 1074] (2^-1075 is 0.0)."""
    return tuple(2.0**-k for k in range(require_integer(p_min_exp, "p_min_exp", 0, 1074) + 1))


# --------------------------------------------------------------------------
# per-row sub-check recording helpers
# --------------------------------------------------------------------------

# Detail entries that are not margins: the check parameters and reported
# values.  Every other entry X is a margin, folded with its X_defect
# sibling, when there is one, as min(X, -abs(X_defect)).
_NOT_MARGINS = frozenset(("t", "r", "s", "final_err", "trace_final", "trace_target", "b1_ge_b2"))


def _logmaj(cols: dict, name: str, lo, hi, tol: float) -> np.ndarray:
    """Record one log-majorization sub-check per row (``hi`` dominates
    ``lo``, both log-spectra); returns the verdicts."""
    margins, ok = _log_margins(hi, lo, tol)
    cols[name] = margins.min(axis=-1)
    cols[f"{name}_defect"] = margins[..., -1]
    return ok


def _oracle_runs(tally: OracleTally | None, A) -> bool:
    """The compound oracle's gate: tallied groups with n <= 4."""
    return tally is not None and A.shape[-1] <= 4


def _oracle(tally: OracleTally | None, A, tol: float, links: Callable) -> None:
    """Feed a group's log-majorization verdicts through the compound
    oracle where it runs.  ``links()`` gives the ``(verdicts, dominated,
    dominant)`` stacks; the compound spectra of all distinct stacks are
    computed in one pass."""
    if not _oracle_runs(tally, A) or not (links := links()):
        return
    mats = list({id(M): M for _, lo, hi in links for M in (lo, hi)}.values())
    index = {id(M): i for i, M in enumerate(mats)}
    tops, kappa, det = _compound_spectra(np.stack(mats))

    def spectra(j):                      # of the j-th entry of every link
        i = [index[id(link[j])] for link in links]
        return [top[i] for top in tops], kappa[i], det[i]
    agree = _compound_order(spectra(1), spectra(2), tol) == np.array([ok for ok, _, _ in links])
    tally.comparisons += agree.size
    tally.mismatches += int(np.count_nonzero(~agree))


def _equality(X, Y) -> np.ndarray:
    """-relative deviation between the matrices of two stacks, per matrix."""
    return -max_abs(X - Y) / pymax(pymax(max_abs(X), max_abs(Y)), 1e-30)


def _psd_margin(X, Y) -> np.ndarray:
    """How far X >= Y holds in the Loewner order, per matrix:
    lambda_min(X - Y) / lambda_1(X)."""
    top = np.linalg.eigvalsh(_hermitize(X))[..., -1]
    return np.linalg.eigvalsh(_hermitize(X - Y))[..., 0] / pymax(top, 1e-30)


def _first_min(values, default=None):
    """Per-row builtin ``min`` over a sequence of arrays: each row keeps its
    first value unless a later one is smaller (cf. ``linalg.pymax``)."""
    out = values[0] if values else default
    for v in values[1:]:
        out = np.where(v < out, v, out)
    return out


def _outcomes(check_id: str, tol: float, cols: dict) -> list[CheckOutcome]:
    """One outcome per row from per-row detail columns.  A row's worst
    margin is the builtin ``min`` of its margins in column order."""
    cols = {key: np.asarray(c, dtype=float) for key, c in cols.items()}
    worst = _first_min([
        c if (d := cols.get(f"{key}_defect")) is None else _first_min([c, -np.abs(d)])
        for key, c in cols.items() if key not in _NOT_MARGINS and not key.endswith("_defect")
    ])
    rows = zip(*(c.tolist() for c in cols.values()))
    return [CheckOutcome(check_id, w >= -tol, w, detail=dict(zip(cols, row)))
            for w, row in zip(worst.tolist(), rows)]


def _one(*matrices) -> list[np.ndarray]:
    """Validated n x n matrices of a public check, of one shape, as stacks of one."""
    return [require_hermitian(M)[None]
            for M in require_same_shape(*matrices, single="a check's matrices")]


def _col(*values) -> list[np.ndarray]:
    """Parameters of a public check, as one-row columns."""
    return [np.array([float(v)]) for v in values]


def _weight(v, name: str = "weight t") -> float:
    """A public check's weight or exponent that must lie in [0, 1]."""
    return require_real(v, name, 0.0, 1.0)


def _positive(**values) -> list[float]:
    """A public check's positive exponents, scales, tolerances and thresholds, in order."""
    return [require_real(v, name, positive=True) for name, v in values.items()]


# --------------------------------------------------------------------------
# power inequalities for the two means
# --------------------------------------------------------------------------

def _power_order(mean, A, B, t, r, tol, tally):
    """Power inequality rows for the ``geometric`` (metric) or ``spectral``
    mean.  For the metric mean the mean of the r-th powers is dominated
    when r >= 1 and the smaller exponent dominates in the monotone family;
    the spectral mean reverses both orderings."""
    reverse = mean == "spectral"
    factor = _nat_factor if reverse else _metric_factor
    a, b = spd(A), spd(B)
    F_base = factor(a, b, t)
    F_pow = factor(spd(power_from_eig(a.w, a.U, r)), spd(power_from_eig(b.w, b.U, r)), t)
    log_base = np.log(_spectrum_of_factor(F_base))
    log_pow = np.log(_spectrum_of_factor(F_pow))

    cols = {"t": t, "r": r}
    low = ((r >= 1.0) != reverse)[:, None]     # the power mean is dominated
    scaled = r[:, None] * log_base
    ok_order = _logmaj(cols, "power_order", np.where(low, log_pow, scaled),
                       np.where(low, scaled, log_pow), tol)

    # exponent monotonicity with (q, p) = (min(r,1), max(r,1))
    q, p = np.minimum(r, 1.0), np.maximum(r, 1.0)
    log_q = np.where((q == 1.0)[:, None], log_base, log_pow) / q[:, None]
    log_p = np.where((p == 1.0)[:, None], log_base, log_pow) / p[:, None]
    ok_mono = _logmaj(cols, "exponent_monotone", *((log_q, log_p) if reverse else (log_p, log_q)), tol)

    def links():
        base, powered = gram(F_base), gram(F_pow)
        eig_base = _pd_eigh(base)
        base_r, m = power_from_eig(*eig_base, r), low[:, :, None]
        # of q and p one is 1, giving base^1, and the other r, giving powered^(1/r)
        one, root = power_from_eig(*eig_base, 1.0), power_from_eig(*_pd_eigh(powered), 1.0 / r)
        mq, mp = (np.where(x[:, None, None], root, one) for x in (r < 1.0, r > 1.0))
        return [(ok_order, np.where(m, powered, base_r), np.where(m, base_r, powered)),
                (ok_mono, *((mq, mp) if reverse else (mp, mq)))]
    _oracle(tally, A, tol, links)
    return _outcomes(f"{mean}_power_order", tol, cols)


def check_geometric_power(A, B, t: float, r: float, tol: float = 1e-8,
                          tally: OracleTally | None = None) -> CheckOutcome:
    """Power inequality for the metric mean: the r-th power of the mean
    dominates the mean of the r-th powers for r >= 1 (reversed for
    r <= 1), plus the induced monotonicity in the exponent."""
    t, r, tol = _weight(t), *_positive(r=r, tol=tol)
    return _power_order("geometric", *_one(A, B), *_col(t, r), tol, tally)[0]


def check_spectral_power(A, B, t: float, r: float, tol: float = 1e-8,
                         tally: OracleTally | None = None) -> CheckOutcome:
    """Power inequality for the spectral mean; the ordering is reversed
    relative to the metric mean: the mean of the r-th powers dominates
    for r >= 1, and the larger exponent dominates in the monotone family."""
    t, r, tol = _weight(t), *_positive(r=r, tol=tol)
    return _power_order("spectral", *_one(A, B), *_col(t, r), tol, tally)[0]


def s_provable_bound(t: float) -> float:
    """Largest exponent for which the sandwich-vs-mean ordering is
    established, 1/max(t, 1-t): the monotonicity argument needs ts <= 1
    and (1-t)s <= 1.  At t = 0, where both sides equal A for every s, it
    is 2, the exponent ``s_at_bound`` draws there."""
    return 2.0 if t == 0.0 else 1.0 / max(t, 1.0 - t)


def _beyond_bound(t: float, s: float) -> bool:
    """Whether s exceeds the provable bound at t, beyond the rounding of a grid value on it."""
    return s > s_provable_bound(t) + 1e-12


def _natlog_factors(a, b, t, s) -> tuple[np.ndarray, np.ndarray]:
    """Gram factors of the sandwich B^{ts/2} A^{(1-t)s} B^{ts/2} and of the
    spectral mean, from the operands decomposed by ``spd``."""
    F_mid = power_from_eig(b.w, b.U, t * s / 2.0) @ power_from_eig(a.w, a.U, (1.0 - t) * s / 2.0)
    return F_mid, _nat_factor(a, b, t)


def _natlog(A, B, t, s, tol, tally, factors=None):
    F_mid, F_nat = _natlog_factors(spd(A), spd(B), t, s) if factors is None else factors
    cols = {"t": t, "s": s}
    ok = _logmaj(cols, "sandwich_vs_mean", np.log(_spectrum_of_factor(F_mid)) / s[:, None],
                 np.log(_spectrum_of_factor(F_nat)), tol)
    _oracle(tally, A, tol, lambda: [(ok, _power(gram(F_mid), 1.0 / s), gram(F_nat))])
    outs = _outcomes("natlog_order", tol, cols)
    for out, u, v in zip(outs, t.tolist(), s.tolist()):
        if _beyond_bound(u, v):         # reached only by force: informational
            out.detail["out_of_range"] = 1.0
    return outs


def check_natlog(A, B, t: float, s: float, tol: float = 1e-8, force: bool = False,
                 tally: OracleTally | None = None) -> CheckOutcome:
    """(B^{ts/2} A^{(1-t)s} B^{ts/2})^{1/s} is log-majorized by the
    spectral mean.

    The ordering provably holds for 0 < s <= s_provable_bound(t); beyond
    it the ordering can fail (see ``check_natlog_counterexample``).
    ``force=True`` runs s beyond the bound (counterexample mode); such a
    row has ``detail["out_of_range"] == 1.0`` and is informational, as
    in the battery.
    """
    t, s, tol = _weight(t), *_positive(s=s, tol=tol)
    if not require_flag(force, "force") and _beyond_bound(t, s):
        raise SOutOfRange(f"s={s} exceeds the provable bound {s_provable_bound(t):.6g} for t={t}")
    return _natlog(*_one(A, B), *_col(t, s), tol, tally)[0]


def _chain(A, B, t, tol, tally):
    a, b = spd(A), spd(B)
    tc = t[:, None, None]
    H = (1.0 - tc) * from_eig(a.U, np.log(a.w)) + tc * from_eig(b.U, np.log(b.w))
    log_le, U_le = _eigh(H)              # log lambda(e^H) = lambda(H)
    F_mid, F_nat = _natlog_factors(a, b, t, np.ones_like(t))   # the natlog pair at s = 1
    F = {"metric": _metric_factor(a, b, t), "sandwich": F_mid, "spectral": F_nat}
    logs = {k: np.log(_spectrum_of_factor(f)) for k, f in F.items()}
    logs["logeuclid"] = log_le

    cols, order = {"t": t}, []
    for lo, hi in (("metric", "logeuclid"), ("logeuclid", "sandwich"),
                   ("sandwich", "spectral"), ("metric", "spectral")):
        order.append((_logmaj(cols, f"{lo}_vs_{hi}", logs[lo], logs[hi], tol), lo, hi))

    def links():
        mats = {k: gram(f) for k, f in F.items()}
        mats["logeuclid"] = from_eig(U_le, np.exp(log_le))
        return [(ok, mats[lo], mats[hi]) for ok, lo, hi in order]
    _oracle(tally, A, tol, links)
    return _outcomes("chain_order", tol, cols)


def check_chain(A, B, t: float, tol: float = 1e-8,
                tally: OracleTally | None = None) -> CheckOutcome:
    """Four-link log-majorization chain between the two means:

    metric mean  <  exp((1-t) log A + t log B)  <  B^{t/2} A^{1-t} B^{t/2}
    < spectral mean, with the outer (metric < spectral) link also checked
    directly."""
    return _chain(*_one(A, B), *_col(_weight(t)), *_positive(tol=tol), tally)[0]


# --------------------------------------------------------------------------
# trace inequality and small-exponent limits
# --------------------------------------------------------------------------

def _validate_p_grid(p_grid) -> tuple[float, ...]:
    p_grid = tuple(require_real(p, "p grid value", positive=True) for p in p_grid)
    if not p_grid or any(b >= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("p grid must be nonempty and strictly decreasing")
    return p_grid


def limit_target(A, B, t) -> np.ndarray:
    """The common limit exp((1-t)A + tB) of both families."""
    tc = t[:, None, None]
    return _exp((1.0 - tc) * A + tc * B)


def limit_factors(family: str, A, B, t, p_grid) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Gram factors of the members of a small-exponent limit family over a
    p grid, for Hermitian stacks A, B with one weight per pair: ``spectral``
    is exp(pA) nat_t exp(pB) and ``sandwich`` exp(ptB/2) exp(p(1-t)A/2).

    Each operand X (A and B, or (1-t)A/2 and tB/2) is decomposed once and
    exp(pX) built as U diag(exp(pw)) U*: eigh is exactly equivariant under
    scaling by a power of two (above LAPACK's rescaling thresholds), so on
    a dyadic grid this is bitwise the exponential of a fresh decomposition
    of pX.  Yields ``(p, F)`` per chunk of grid points whose factors hold
    at most ``_STACK_ENTRIES`` matrix entries (or one point), the rows
    p-major and ``p`` the grid point of each row.  NumericBreakdown names
    the first p where exp(pA) or exp(pB) leaves the positive-definite floor."""
    tc = t[:, None, None]
    ops = (A, B) if family == "spectral" else ((1.0 - tc) * A / 2.0, tc * B / 2.0)
    eigs = [_eigh(X) for X in ops]
    k, n = A.shape[0], A.shape[-1]
    size = max(1, _STACK_ENTRIES // (k * n * n))
    for i in range(0, len(p_grid), size):
        p = np.array(p_grid[i:i + size])
        rows = np.repeat(p, k)
        ea, eb = (from_eig(U, np.exp(p[:, None, None] * w)).reshape(-1, n, n) for w, U in eigs)
        if family == "sandwich":
            yield rows, eb @ ea
            continue
        (wa, Ua), (wb, Ub) = _eigh(ea), _eigh(eb)
        _breakdown(_below_floor(wa) | _below_floor(wb), rows,
                   "exp(pA) or exp(pB) leaves the positive-definite floor")
        yield rows, _nat_factor(Spd(wa, Ua), Spd(wb, Ub), np.tile(t, len(p)))


def _breakdown(bad, p, what: str, why: str = "the spectra of A and B are too wide for doubles"):
    """NumericBreakdown naming the first grid point p (one per row) of a ``bad`` row."""
    if any_true(bad):
        q = float(p[np.argmax(bad)])
        raise NumericBreakdown(f"{what} at p={q:.6g} (2^{math.log2(q):g}): {why}")


def _root(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``w ** (1/p)`` with one grid point p per row, the first p where it overflows named."""
    with np.errstate(over="ignore"):
        x = row_power(w, 1.0 / p)
    _breakdown(~np.isfinite(x).all(axis=-1), p, "the 1/p power of a limit family member "
               "overflows", "doubles do not resolve the limit this close to p = 0")
    return x


def limit_members(family: str, A, B, t, p_grid) -> Iterator[tuple[np.ndarray, ...]]:
    """``limit_factors`` with each member F F* raised to its 1/p power:
    the family (exp(pA) nat_t exp(pB))^{1/p} or (exp(ptB/2) exp(p(1-t)A)
    exp(ptB/2))^{1/p}.  Yields ``(p, F, member)`` per chunk."""
    for p, F in limit_factors(family, A, B, t, p_grid):
        w, U = _eigh(gram(F))
        _breakdown(_below_floor(w), p, "a limit family member leaves the positive-definite floor")
        yield p, F, from_eig(U, _root(w, p))


def _trace(A, B, t, p_grid, tol):
    tc = t[:, None, None]
    w_mix = _eigh((1.0 - tc) * A + tc * B)[0]
    target = np.sum(np.exp(w_mix), axis=-1)
    traces = []
    for p, F in limit_factors("spectral", A, B, t, p_grid):
        traces.extend(np.sum(_root(_spectrum_of_factor(F), p), axis=-1).reshape(-1, len(t)))
    cols = {
        "t": t,
        "trace_lower_bound": _first_min([(tr - target) / target for tr in traces]),
        "trace_monotone": _first_min([(x - y) / target for x, y in zip(traces, traces[1:])],
                                     default=np.zeros_like(target)),
        "trace_final": traces[-1],
        "trace_target": target,
    }
    return _outcomes("trace_descent", tol, cols)


def check_trace_corollary(A, B, t: float, p_grid, tol: float = 1e-8) -> CheckOutcome:
    """tr exp((1-t)A + tB) is a lower bound for tr of the p-family of
    spectral means of exponentials, and the traces decrease with p."""
    p_grid = _validate_p_grid(p_grid)
    return _trace(*_one(A, B), *_col(_weight(t)), p_grid, *_positive(tol=tol))[0]


def _limit(family, A, B, t, p_grid, tol, err_threshold, floor, tally):
    """Group evaluator of the small-exponent limit check of the named
    family of ``limit_members``."""
    n = A.shape[-1]
    target = limit_target(A, B, t)
    kf_scale = np.sum(np.exp(np.log(np.linalg.eigvalsh(target)[..., ::-1])), axis=-1)

    # the oracle's members are kept only where it runs (n <= 4)
    errs, specs, mats = [], [], []
    for p, F, member in limit_members(family, A, B, t, p_grid):
        member = member.reshape(-1, *target.shape)
        errs.extend(_spectral_norm(member - target))
        specs.extend((np.log(_spectrum_of_factor(F)) / p[:, None]).reshape(-1, len(t), n))
        if _oracle_runs(tally, A):
            mats.extend(member)
    cols = {"t": t, "final_err": errs[-1],
            "final_err_margin": (err_threshold - errs[-1]) / err_threshold}

    # error descent, enforced only above the numeric floor
    desc = np.zeros_like(errs[0])
    for e0, e1 in zip(errs, errs[1:]):
        step = (e0 - e1) / pymax(e0, floor)
        desc = np.where((e0 > floor) & (step < desc), step, desc)
    cols["err_monotone"] = desc

    # log-majorization descent between consecutive grid points, plus the
    # induced Ky Fan norm descent (the generating family of unitarily
    # invariant norms)
    oks = []
    for i in range(len(p_grid) - 1):
        oks.append(_logmaj(cols, f"logmaj_step_{i}", specs[i + 1], specs[i], tol))
        lam_hi, lam_lo = np.exp(specs[i]), np.exp(specs[i + 1])
        cols[f"kyfan_step_{i}"] = _first_min([
            (np.sum(lam_hi[:, : k + 1], axis=-1) - np.sum(lam_lo[:, : k + 1], axis=-1)) / kf_scale
            for k in range(n)
        ])
    _oracle(tally, A, tol, lambda: [(ok, mats[i + 1], mats[i]) for i, ok in enumerate(oks)])

    if family == "sandwich":   # bounded above by exp(A) nat_t exp(B)
        upper = np.log(_spectrum_of_factor(next(limit_factors("spectral", A, B, t, (1.0,)))[1]))
        for i, spec in enumerate(specs):
            cols[f"upper_bound_{i}"] = _first_min([
                (np.cumsum(upper, axis=-1) - np.cumsum(spec, axis=-1)).min(axis=-1),
                -np.abs(np.sum(upper, axis=-1) - np.sum(spec, axis=-1)),
            ])
    return _outcomes(f"limit_{family}", tol, cols)


def check_limit_spectral(A, B, t: float, p_grid, tol: float = 1e-8, err_threshold: float = 1e-2,
                         floor: float = 1e-8, tally: OracleTally | None = None) -> CheckOutcome:
    """(exp(pA) nat_t exp(pB))^{1/p} converges down to exp((1-t)A + tB)
    as p -> 0, monotonically in the log-majorization order."""
    return _limit("spectral", *_one(A, B), *_col(_weight(t)), _validate_p_grid(p_grid),
                  *_positive(tol=tol, err_threshold=err_threshold, floor=floor), tally)[0]


def check_limit_sandwich(A, B, t: float, p_grid, tol: float = 1e-8, err_threshold: float = 1e-2,
                         floor: float = 1e-8, tally: OracleTally | None = None) -> CheckOutcome:
    """(exp(ptB/2) exp(p(1-t)A) exp(ptB/2))^{1/p} converges down to
    exp((1-t)A + tB); the family is log-majorization monotone and bounded
    above by the spectral mean of exp(A) and exp(B)."""
    return _limit("sandwich", *_one(A, B), *_col(_weight(t)), _validate_p_grid(p_grid),
                  *_positive(tol=tol, err_threshold=err_threshold, floor=floor), tally)[0]


# --------------------------------------------------------------------------
# Loewner-order checks
# --------------------------------------------------------------------------

def _require_loewner(X, Y, psd_tol: float, what: str) -> None:
    """A public Loewner check's hypothesis X >= Y.  The group evaluators take
    it as given: the battery derives ordered pairs (``_dominated``, ``_dominating``)."""
    if any_true(_psd_margin(X, Y) < -psd_tol):
        raise PreconditionNotMet(f"{what} is not Loewner-ordered")


def _loewner_monotone(A, B, C, D, t, psd_tol):
    top_pair = gram(_metric_factor(spd(A), spd(B), t))
    bottom_pair = gram(_metric_factor(spd(C), spd(D), t))
    cols = {"t": t, "psd_margin": _psd_margin(top_pair, bottom_pair)}
    return _outcomes("loewner_monotone_metric", psd_tol, cols)


def check_loewner_monotone_geometric(A, B, C, D, t: float, psd_tol: float = 1e-9) -> CheckOutcome:
    """Joint Loewner monotonicity of the metric mean: A >= C and B >= D
    imply metric_mean(A, B, t) >= metric_mean(C, D, t)."""
    (A, B, C, D), (t,), (psd_tol,) = _one(A, B, C, D), _col(_weight(t)), _positive(psd_tol=psd_tol)
    _require_loewner(A, C, psd_tol, "A vs C")
    _require_loewner(B, D, psd_tol, "B vs D")
    return _loewner_monotone(A, B, C, D, t, psd_tol)[0]


def _heinz(A, B, r, psd_tol):
    cols = {"r": r, "psd_margin": _psd_margin(_power(A, r), _power(B, r))}
    return _outcomes("loewner_heinz", psd_tol, cols)


def check_loewner_heinz(A, B, r: float, psd_tol: float = 1e-9) -> CheckOutcome:
    """A >= B >= 0 implies A^r >= B^r for r in [0, 1]."""
    (A, B), (r,), (psd_tol,) = _one(A, B), _col(_weight(r, "r")), _positive(psd_tol=psd_tol)
    _require_loewner(A, B, psd_tol, "A vs B")
    return _heinz(A, B, r, psd_tol)[0]


def _lambda1(A, B, s, tol, tally):
    a, b = spd(A), spd(B)
    Fx = power_from_eig(a.w, a.U, s / 2.0) @ power_from_eig(b.w, b.U, s / 2.0)
    log_x = np.log(_spectrum_of_factor(Fx))
    Fy = a.root @ b.root
    log_y = s[:, None] * np.log(_spectrum_of_factor(Fy))
    cols = {"s": s, "lambda1": log_y[:, 0] - log_x[:, 0]}
    ok = _logmaj(cols, "product_power", log_x, log_y, tol)
    _oracle(tally, A, tol, lambda: [(ok, gram(Fx), _power(gram(Fy), s))])
    return _outcomes("lambda1_power_order", tol, cols)


def check_lambda1(A, B, s: float, tol: float = 1e-8,
                  tally: OracleTally | None = None) -> CheckOutcome:
    """Top-eigenvalue inequality for fractional powers of a product,
    lambda_1(A^{s/2} B^s A^{s/2}) <= lambda_1(A^{1/2} B A^{1/2})^s for
    s in [0, 1], together with its full log-majorization lift.  Products
    are evaluated through Hermitian similarity throughout."""
    return _lambda1(*_one(A, B), *_col(_weight(s, "s")), *_positive(tol=tol), tally)[0]


# --------------------------------------------------------------------------
# algebraic identities and the similarity witness
# --------------------------------------------------------------------------

def _means_identities(A, B, t, r, s, alpha, beta, tol):
    a, b = spd(A), spd(B)
    C_ab, C_ba = _inv_sharp(a, b), _inv_sharp(b, a)

    def nat(C, x, w):                    # spectral mean from C = X^{-1} # Y
        return gram(_spectral_factor(C, x, w))

    F_ab = _spectral_factor(C_ab, a, t)
    nat_ab, nat_ba = gram(F_ab), nat(C_ba, b, t)
    inv_a = spd(power_from_eig(a.w, a.U, -1.0))
    inv_b = spd(power_from_eig(b.w, b.U, -1.0))
    n_ab, n_ba = spd(nat_ab), spd(nat_ba)
    Gt = from_eig(C_ab[1], row_power(C_ab[0], t))
    Gti = _power(Gt, -1.0)
    cols = {"t": t, "r": r, "s": s}
    cols["inversion"] = _equality(power_from_eig(n_ab.w, n_ab.U, -1.0),
                                  gram(_nat_factor(inv_a, inv_b, t)))
    cols["reversal"] = _equality(nat_ab, nat(C_ba, b, 1.0 - t))
    cols["factor_left"] = _equality(gram(_metric_factor(inv_a, n_ab, 0.5)), Gt)
    inv_n_ba = spd(power_from_eig(n_ba.w, n_ba.U, -1.0))
    cols["factor_right"] = _equality(gram(_metric_factor(inv_n_ba, b, 0.5)), Gt)
    cols["conjugation"] = _equality(_hermitize(Gt @ A @ Gt), nat_ab)
    cols["conjugation_reverse"] = _equality(_hermitize(Gti @ B @ Gti), nat_ba)
    mix = (1.0 - t) * r + t * s
    cols["interpolation"] = _equality(
        gram(_nat_factor(spd(nat(C_ab, a, r)), spd(nat(C_ab, a, s)), t)), nat(C_ab, a, mix))
    cols["endpoint_a"] = _equality(nat(C_ab, a, 0.0), A)
    cols["endpoint_b"] = _equality(nat(C_ab, a, 1.0), B)

    # determinant identity, in log space
    log_det_nat = np.sum(np.log(_spectrum_of_factor(F_ab)), axis=-1)
    target = (1.0 - t) * np.sum(np.log(a.w), axis=-1) + t * np.sum(np.log(b.w), axis=-1)
    cols["determinant"] = -np.abs(log_det_nat - target)

    scaled = gram(_nat_factor(spd(alpha[:, None, None] * A), spd(beta[:, None, None] * B), t))
    # the scalar factor in Python floats, as libm's pow
    coef = [x ** (1.0 - u) * y**u for x, y, u in zip(alpha.tolist(), beta.tolist(), t.tolist())]
    cols["homogeneity"] = _equality(scaled, np.array(coef)[:, None, None] * nat_ab)

    # midpoint spectrum property: lambda(A nat B) = sqrt(lambda(A B))
    lam_nat = _spectrum_of_factor(_spectral_factor(C_ab, a, 0.5))
    lam_prod = _spectrum_of_factor(a.root @ b.root)
    cols["sqrt_spectrum"] = -np.max(np.abs(lam_nat - np.sqrt(lam_prod)) / np.sqrt(lam_prod), axis=-1)
    return _outcomes("means_identities", tol, cols)


def check_means_identities(A, B, t: float, r: float = 0.25, s: float = 0.75, alpha: float = 2.0,
                           beta: float = 0.5, tol: float = 1e-8) -> CheckOutcome:
    """Algebraic identities of the spectral mean: inversion, reversal,
    the conjugating-factor identities, interpolation, endpoint values,
    determinant and homogeneity identities, and the square-root spectrum
    property of the midpoint mean."""
    weights = _weight(t), _weight(r, "r"), _weight(s, "s")
    alpha, beta, tol = _positive(alpha=alpha, beta=beta, tol=tol)
    return _means_identities(*_one(A, B), *_col(*weights, alpha, beta), tol)[0]


def _similarity(A, B, t, tol):
    a, b = spd(A), spd(B)
    wit = _similarity_witness(a, b, t)
    sharp = gram(_metric_factor(a, b, 0.5))

    S = wit.conjugator
    conjugated = np.linalg.solve(S, sharp) @ S
    resid = _spectral_norm(conjugated - wit.target) / pymax(_spectral_norm(sharp), 1e-30)
    unit = max_abs(wit.rotator @ ct(wit.rotator) - np.eye(A.shape[-1]))
    spec_sharp = np.linalg.eigvalsh(sharp)[..., ::-1]
    spec_dev = np.max(np.abs(spec_sharp - _nonneg_spectrum(wit.target)) / spec_sharp, axis=-1)
    cols = {"t": t, "residual": -resid, "unitarity": -unit, "spectrum_match": -spec_dev}
    return _outcomes("similarity_witness", tol, cols)


def check_similarity(A, B, t: float, tol: float = TAU_SIM) -> CheckOutcome:
    """The constructed witness conjugates the midpoint metric mean onto
    the two-sided spectral-mean product: residual, unitarity of the
    rotator, and equality of the two spectra."""
    return _similarity(*_one(A, B), *_col(_weight(t)), *_positive(tol=tol))[0]


# --------------------------------------------------------------------------
# fixed counterexample checks (expected-false verdicts)
# --------------------------------------------------------------------------

def _reproduce(out: CheckOutcome, ce: dict, computed, holds: bool = True) -> CheckOutcome:
    """Fill a fixture row's ``REPRODUCTION`` deltas, the largest entry deviation
    of each computed value (in table order) from its printed reference, and
    whether all are in tolerance and ``holds``."""
    table, d = REPRODUCTION[out.check_id], out.detail
    for (key, _, _, ref), value in zip(table, computed, strict=True):
        d[key] = float(np.max(np.abs(value - ce[ref])))
    d["reproduction_ok"] = float(holds and all(d[key] <= tol for key, _, tol, _ in table))
    return out


def check_natlog_counterexample(tol: float = 1e-9,
                                tally: OracleTally | None = None) -> CheckOutcome:
    """Reproduce the 2x2 fixture where s = 2.1 > 3/2, the provable bound at
    t = 1/3, breaks the sandwich-vs-mean log majorization.  The passing
    outcome is a FALSE ordering verdict together with reproduction of the
    reference values."""
    ce, (tol,) = NATLOG_COUNTEREXAMPLE, _positive(tol=tol)
    A, B, t, s = ce["A"], ce["B"], ce["t"], ce["s"]
    ops, params = _one(A, B), _col(t, s)
    F_mid, F_nat = factors = _natlog_factors(*map(spd, ops), *params)
    out = _natlog(*ops, *params, tol, tally, factors)[0]
    out.check_id, out.witness = "counterexample_natlog", {"A": A, "B": B, "t": t, "s": s}
    sandwich, nat = _power(gram(F_mid), 1.0 / s)[0], gram(F_nat)[0]
    return _reproduce(out, ce, (np.linalg.eigvalsh(sandwich)[::-1], np.linalg.eigvalsh(nat)[::-1],
                                sandwich, nat))


def check_spectral_not_monotone(psd_tol: float = 1e-9) -> CheckOutcome:
    """Reproduce the 2x2 fixture showing the spectral mean is not jointly
    Loewner-monotone: B1 >= B2 but the difference of the two means has a
    negative eigenvalue.  The passing outcome is a FALSE PSD verdict with
    B1 >= B2 and the reference values reproduced."""
    ce, (psd_tol,) = MONOTONE_COUNTEREXAMPLE, _positive(psd_tol=psd_tol)
    (A, B1, B2), t = _one(ce["A"], ce["B1"], ce["B2"]), ce["t"]
    a = spd(A)
    N1, N2 = (gram(_nat_factor(a, spd(B), t)) for B in (B1, B2))
    cols = {"t": [t], "b1_ge_b2": np.linalg.eigvalsh(B1 - B2)[:, 0],
            "psd_margin": _psd_margin(N1, N2)}
    out = _outcomes("counterexample_monotone", psd_tol, cols)[0]
    out.witness = {key: ce[key] for key in ("A", "B1", "B2", "t")}
    return _reproduce(out, ce, (N1, N2, np.linalg.eigvalsh(N1 - N2)),
                      holds=out.detail["b1_ge_b2"] >= -psd_tol)


# --------------------------------------------------------------------------
# randomized ensemble driver
# --------------------------------------------------------------------------

_POWER_CAP_EXP = 3.0
_ORACLE_SPREAD_CAP = 100.0


def _capped_spread(spread: float, power):
    """Per-trial spread cap for the ensembles whose verdicts feed the
    compound cross oracle, for each power (a scalar or one per trial).

    The end-to-end composition sees condition numbers like kappa^(2*power);
    keeping kappa below 10^(3/power), and below the default ensemble scale
    overall, keeps the attainable double-precision margin noise (for both
    the factored eigenvalue route and the oracle's entrywise determinants)
    well below the 1e-8 gate (measured; see README, numerical notes).
    Direct ``check_*`` calls are not capped."""
    powers = sorted(set(np.ravel(power).tolist()))   # each capped once, by libm's pow
    caps = [min(spread, _ORACLE_SPREAD_CAP, 10.0 ** (_POWER_CAP_EXP / max(p, 1.0))) for p in powers]
    return np.array(caps)[np.searchsorted(powers, power)]


# A trial draws from its own generator in a fixed order: the dimension (in
# ``_run_trials``), the parameters, then its matrices as ``(spread, seed)``
# (a dict display draws in order).  The ``_trial_*`` functions take a numpy
# Generator (one trial) or a ``Lockstep`` stream (a column per draw).

def _uniform(rng, lo: float, hi: float):
    # bitwise rng.uniform(lo, hi)
    return lo + (hi - lo) * rng.random()


def _draw(grid, rng):
    return np.asarray(grid, dtype=float)[rng.integers(0, len(grid))]


def _draw_pd(rng, spread) -> tuple:
    # the seed is rng.integers(0, 2**62): Lemire's method on a power-of-two range is a shift
    return spread, rng.bit_generator.random_raw() >> 2


def _draw_pair(rng, spread) -> dict:
    return {"A": _draw_pd(rng, spread), "B": _draw_pd(rng, spread)}


def _trial_identities(cfg, rng):
    return {**{key: _draw(cfg.t_grid, rng) for key in ("t", "r", "s")},
            **{key: _draw((0.5, 2.0, 10.0), rng) for key in ("alpha", "beta")},
            **_draw_pair(rng, cfg.spread)}


def _trial_pair(cfg, rng, power: float | None = None):
    """A weight and a pair, with the spread capped for ``power`` if given."""
    spread = cfg.spread if power is None else _capped_spread(cfg.spread, power)
    return {"t": _draw(cfg.t_grid, rng), **_draw_pair(rng, spread)}


def _trial_power(cfg, rng):
    t, r = _draw(cfg.t_grid, rng), _draw(cfg.r_grid, rng)
    return {"t": t, "r": r, **_draw_pair(rng, _capped_spread(cfg.spread, r))}


def _s_choices(cfg, t: float) -> list[float]:
    """The exponents a natlog trial at weight t draws from, in order: the
    s grid up to the provable bound 1/max(t, 1-t), the bound itself with
    ``s_at_bound``, and only with ``force_out_of_range`` the grid values
    beyond it, whose rows are informational: beyond the bound the ordering
    can fail, so drawing there would assert a false statement."""
    choices = [s for s in cfg.s_grid if not _beyond_bound(t, s)]
    if cfg.s_at_bound:
        choices.append(s_provable_bound(t))
    if cfg.force_out_of_range:
        choices.extend(s for s in cfg.s_grid if _beyond_bound(t, s))
    return choices


def _trial_natlog(cfg, rng):
    i = rng.integers(0, len(cfg.t_grid))         # draws t = t_grid[i], then s from its choices
    choices = [_s_choices(cfg, t) for t in cfg.t_grid]
    start = np.cumsum([0] + [len(c) for c in choices])
    s = np.array(sum(choices, []), dtype=float)[rng.integers(start[i], start[i + 1])]
    return {"t": np.asarray(cfg.t_grid, dtype=float)[i], "s": s,
            **_draw_pair(rng, _capped_spread(cfg.spread, s))}


def _trial_loewner_monotone(cfg, rng):
    d = _trial_pair(cfg, rng)
    for key in ("C", "D"):                  # the shrink of A, then of B
        d[f"{key}_perturbation"] = _draw_pd(rng, 10.0)
        d[f"{key}_scale"] = _uniform(rng, 0.05, 0.9)
    return d


def _trial_heinz(cfg, rng):
    return {"B": _draw_pd(rng, cfg.spread), "perturbation": _draw_pd(rng, 10.0),
            "scale": _uniform(rng, 0.05, 2.0), "r": _uniform(rng, 0.0, 1.0)}


def _trial_lambda1(cfg, rng):
    return {"s": _uniform(rng, 0.0, 1.0), **_draw_pair(rng, _capped_spread(cfg.spread, 1.0))}


def _stack(column, rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of one draw column, a matrix column (spreads, PCG64 states) composed as an n x n stack."""
    if isinstance(column, tuple):
        spreads, states = column
        return pd_compose(*pd_draws(n, states[rows], np.broadcast_to(spreads, len(states))[rows]))
    return column[rows]


def _bounded_log(P: np.ndarray) -> np.ndarray:
    """Hermitian samples with spectral norm at most 1 (logs of PD draws)."""
    w, U = _pd_eigh(P)
    H = from_eig(U, np.log(w))
    nrm = _spectral_norm(H)[:, None, None]
    return np.where(nrm > 1.0, H / nrm, H)


def _top(P: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(P)[:, -1][:, None, None]


def _exponents(d: dict) -> None:
    """Derive the Hermitian pair of an exponential check from the PD pair drawn."""
    d["A"], d["B"] = _bounded_log(d["A"]), _bounded_log(d["B"])


def _dominated(d: dict) -> None:
    """Derive C and D below A and B: each minus a PSD perturbation with top
    eigenvalue scale * lambda_min."""
    for key, X in (("C", "A"), ("D", "B")):
        P, u = d.pop(f"{key}_perturbation"), d.pop(f"{key}_scale")
        d[key] = d[X] - P * ((u * np.linalg.eigvalsh(d[X])[:, 0])[:, None, None] / _top(P))


def _dominating(d: dict) -> None:
    """Derive A above B: B plus a PSD perturbation with top eigenvalue ``scale``."""
    P = d.pop("perturbation")
    d["A"] = d["B"] + P * (d.pop("scale")[:, None, None] / _top(P))


_DIAG_A = np.diag([1.0, 4.0])
_DIAG_B = np.diag([9.0, 1.0])
_HERM_A = np.diag([0.5, -0.5])
_HERM_B = np.array([[0.2, 0.1], [0.1, -0.1]])

_TOL, _ORACLE, _PSD = ("tol",), ("tol", "tally"), ("psd_tol",)
_LIMIT = ("p_grid", "tol", "err_threshold", "floor", "tally")


class _Check(NamedTuple):
    """One entry of the battery.  ``draw`` makes one trial's draws from a
    Generator, or every trial's as columns from a ``Lockstep`` stream;
    ``derive``, if any, turns a group's stacked draws into the inputs of
    the group evaluator ``evaluate`` in place (adding derived inputs,
    popping the raw draws consumed); ``public`` is the check_* function,
    ``fixed`` the positional inputs of its fixed rows, ``keywords`` the
    options both take (built by :meth:`options`), ``trials`` the config
    field with the trial count.  A fixture has no ``draw`` or ``evaluate``."""

    check_id: str
    draw: Callable | None
    evaluate: Callable | None
    public: Callable
    fixed: tuple
    keywords: tuple[str, ...]
    derive: Callable | None = None
    trials: str = "trials"

    def options(self, cfg: SuiteConfig, tally: OracleTally) -> dict:
        """The keyword options of both functions under ``cfg``."""
        values = {"tol": cfg.tol, "psd_tol": cfg.psd_tol, "tally": tally,
                  "err_threshold": cfg.limit_err_threshold, "floor": cfg.limit_floor}
        return {key: dyadic_grid(cfg.p_min_exp) if key == "p_grid" else values[key]
                for key in self.keywords}

    def run(self, cfg: SuiteConfig, tally: OracleTally, d: dict) -> list[CheckOutcome]:
        """Evaluate a dict of stacked draws, which is left holding exactly
        the inputs evaluated (passed by keyword, so a stray or missing one
        fails): the witness of a failing trial."""
        if self.derive is not None:
            self.derive(d)
        return self.evaluate(**d, **self.options(cfg, tally))


_REGISTRY = (
    _Check("means_identities", _trial_identities, _means_identities, check_means_identities,
           ((_DIAG_A, _DIAG_B, 0.5),), _TOL),
    _Check("similarity_witness", _trial_pair, _similarity, check_similarity,
           ((np.diag([2.0, 1.0]), np.diag([2.0, 1.0]), 0.3),), _TOL),
    _Check("geometric_power_order", _trial_power, partial(_power_order, "geometric"),
           check_geometric_power, ((_DIAG_A, _DIAG_B, 0.4, 2.0),), _ORACLE),
    _Check("spectral_power_order", _trial_power, partial(_power_order, "spectral"),
           check_spectral_power, ((_DIAG_A, _DIAG_B, 0.4, 2.0),), _ORACLE),
    _Check("natlog_order", _trial_natlog, _natlog, check_natlog,
           ((_DIAG_A, _DIAG_B, 0.5, 1.0),), _ORACLE),
    _Check("chain_order", partial(_trial_pair, power=1.0), _chain, check_chain,
           ((_DIAG_A, _DIAG_A, 0.7), (_DIAG_A, _DIAG_B, 0.0)), _ORACLE),
    _Check("trace_descent", _trial_pair, _trace, check_trace_corollary,
           ((np.zeros((2, 2)), np.zeros((2, 2)), 0.5),), ("p_grid", "tol"),
           _exponents, "limit_trials"),
    _Check("limit_spectral", _trial_pair, partial(_limit, "spectral"), check_limit_spectral,
           ((_HERM_A, _HERM_A, 0.5),), _LIMIT, _exponents, "limit_trials"),
    _Check("limit_sandwich", _trial_pair, partial(_limit, "sandwich"), check_limit_sandwich,
           ((_HERM_A, _HERM_B, 0.0),), _LIMIT, _exponents, "limit_trials"),
    _Check("loewner_monotone_metric", _trial_loewner_monotone, _loewner_monotone,
           check_loewner_monotone_geometric,
           ((_DIAG_A, _DIAG_B, _DIAG_A, _DIAG_B, 0.5),
            (np.array([[4.0]]), np.array([[9.0]]), np.array([[1.0]]), np.array([[1.0]]), 0.5)),
           _PSD, _dominated),
    _Check("loewner_heinz", _trial_heinz, _heinz, check_loewner_heinz,
           tuple((_DIAG_A + np.eye(2), _DIAG_A, r) for r in (1.0, 0.0)), _PSD, _dominating),
    _Check("lambda1_power_order", _trial_lambda1, _lambda1, check_lambda1,
           tuple((_DIAG_A, _DIAG_B, s) for s in (1.0, 0.0)), _ORACLE),
    _Check("counterexample_natlog", None, None, check_natlog_counterexample, ((),), _ORACLE),
    _Check("counterexample_monotone", None, None, check_spectral_not_monotone, ((),), _PSD),
)


def _run_trials(cfg: SuiteConfig, idx: int, check: _Check, tally: OracleTally):
    """All trials of one check: draw them in lockstep, each bitwise as from
    its own generator (seeded as ``default_rng(SeedSequence([seed, idx,
    k]).generate_state(1)[0])``), then evaluate the trials of each
    dimension in stacks of at most ``_STACK_ENTRIES`` matrix entries."""
    if cfg.trials == 0 or check.draw is None or not (n_trials := int(getattr(cfg, check.trials))):
        return
    entropy = seed_words(int(cfg.seed)) + seed_words(idx)
    seeds = seed_hash([[*entropy, k] for k in range(n_trials)], 1)[:, 0]
    stream = Lockstep(seeds)
    dims = stream.integers(cfg.dims[0], cfg.dims[1] + 1)   # every trial draws it first
    draws = check.draw(cfg, stream)
    mats = [key for key, v in draws.items() if isinstance(v, tuple)]
    states = pcg_states(np.concatenate([draws[key][1] for key in mats]))
    draws.update((key, (draws[key][0], s)) for key, s in zip(mats, states.reshape(-1, n_trials, 2)))
    for n in dict.fromkeys(dims.tolist()):
        group, size = np.flatnonzero(dims == n), max(1, _STACK_ENTRIES // (n * n))
        for rows in (group[i:i + size] for i in range(0, len(group), size)):
            d = {key: _stack(column, rows, n) for key, column in draws.items()}
            for i, (k, out) in enumerate(zip(rows.tolist(), check.run(cfg, tally, d))):
                out.trial, out.seed = k, int(seeds[k])
                if not out.verdict:         # matrices in key order, then scalars in draw order
                    out.witness = {**{key: d[key][i].copy() for key in sorted(d) if d[key].ndim > 1},
                                   **{key: float(d[key][i]) for key in d if d[key].ndim == 1}}
                yield out


def _check_rows(cfg: SuiteConfig, idx: int) -> tuple[list[CheckOutcome], OracleTally]:
    """The fixed and randomized rows of registry check ``idx``, with the
    oracle tally of those rows alone."""
    check, tally = _REGISTRY[idx], OracleTally()
    rows = [check.public(*inputs, **check.options(cfg, tally)) for inputs in check.fixed]
    for j, out in enumerate(rows):
        out.trial, out.seed = -1 - j, cfg.seed
    rows.extend(_run_trials(cfg, idx, check, tally))
    return rows, tally


def _share(cfg: SuiteConfig, indices) -> dict:
    """``_check_rows`` of each index in ascending order, up to and including
    the first that raises, which maps to its exception."""
    results = {}
    for idx in indices:
        try:
            results[idx] = _check_rows(cfg, idx)
        except Exception as exc:        # re-raised by _registry_rows in registry order
            results[idx] = exc
            break
    return results


def _registry_rows(cfg: SuiteConfig, workers: int, tally: OracleTally) -> list[CheckOutcome]:
    """Every registry check's rows in registry order, their oracle counts
    added to ``tally``.  Check i runs in worker i mod W: worker 0 is this
    process, each other a forked child that pickles its results into a
    pipe (a failed fork leaves its checks to this process).  Each worker
    stops at its first exception; the first in registry order is raised,
    as in a serial run."""
    count = len(_REGISTRY)
    workers = max(1, min(workers, count)) if hasattr(os, "fork") else 1
    children, results = {}, {}          # worker -> [pid, read end of its pipe until read]
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                try:
                    for fd in (read_fd, *(fd for _, fd in children.values())):
                        os.close(fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(_share(cfg, range(w, count, workers))))
                finally:
                    os._exit(0)
            os.close(write_fd)
            children[w] = [pid, read_fd]
        results.update(_share(cfg, [i for i in range(count) if i % workers not in children]))
        for child in children.values():
            fd, child[1] = child[1], None
            with open(fd, "rb") as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"check worker {child[0]} ended without a result")
            results.update(pickle.loads(data))
    finally:
        for pid, fd in children.values():
            if fd is not None:          # this process is raising: stop the child
                os.close(fd)
                os.kill(pid, 9)         # SIGKILL
            os.waitpid(pid, 0)
    rows = []
    for idx in range(count):
        if isinstance(results[idx], BaseException):
            raise results[idx]
        rows += results[idx][0]
        tally.comparisons += results[idx][1].comparisons
        tally.mismatches += results[idx][1].mismatches
    return rows


def run_suite(config: SuiteConfig | None = None) -> list[CheckOutcome]:
    """Run every check over its fixed cases plus the randomized ensemble.

    Deterministic in the config (each trial owns a generator derived from
    (seed, check index, trial index)); results are sorted by check id and
    trial index.  With trials=0 only the fixed-input rows are produced.
    The registry checks, fixtures last, run in one process per available
    CPU (at most one per check); the result does not depend on how many.
    """
    cfg = config if config is not None else SuiteConfig()
    cfg.validate()
    tally = OracleTally()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    outcomes = _registry_rows(cfg, cpus or 1, tally)

    outcomes.append(CheckOutcome(
        check_id="oracle_agreement",
        verdict=tally.mismatches == 0,
        worst_margin=float(-tally.mismatches),
        detail={
            "comparisons": float(tally.comparisons),
            "mismatches": float(tally.mismatches),
        },
        seed=cfg.seed,
    ))
    outcomes.sort(key=lambda o: (o.check_id, o.trial))
    return outcomes


def is_failure(out: CheckOutcome) -> bool:
    """Whether a row fails its expectation.

    A theorem check meets expectations when its verdict is true; the two
    embedded counterexamples when their verdict is false and the reference
    values reproduce.  Out-of-range forced theorem rows are informational
    and never fail.
    """
    if out.check_id in REPRODUCTION:
        return out.verdict or out.detail.get("reproduction_ok", 1.0) != 1.0
    return not out.verdict and out.detail.get("out_of_range", 0.0) != 1.0


def summarize(outcomes: list[CheckOutcome], config: SuiteConfig) -> dict:
    """The JSON report: the config, each check's counts (failures as decided
    by :func:`is_failure`), whether no row fails, and each failing row."""
    checks: dict[str, dict] = {}
    failure_rows = []
    for out in outcomes:
        entry = checks.setdefault(out.check_id, {
            "expected": "false" if out.check_id in REPRODUCTION else "true",
            "rows": 0,
            "failures": 0,
            "worst_margin": math.inf,
        })
        entry["rows"] += 1
        entry["worst_margin"] = min(entry["worst_margin"], out.worst_margin)
        if is_failure(out):
            entry["failures"] += 1
            failure_rows.append({key: getattr(out, key) for key in (
                "check_id", "trial", "seed", "worst_margin", "detail", "witness")})
    return {
        "config": config.to_dict(),
        "checks": {cid: checks[cid] for cid in sorted(checks)},
        "ok": not failure_rows,
        "failure_rows": failure_rows,
    }
