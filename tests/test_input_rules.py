"""The package's input rules at its public boundary.

Every public scalar parameter (of the functions in ``spdmeans.__all__``
and the fields of ``SuiteConfig``) refuses a ``bool`` and a NaN or
infinite value by name, and takes a numpy number wherever it takes the
Python number of the same value.  The verification battery's group
evaluators call none of the validating public functions: they take the
battery's own draws as given and call the kernels behind those functions.
A matrix that enters is replaced by its Hermitian part once, at the
boundary, and the kernels decompose only exactly Hermitian matrices.
Every array that enters passes one element rule: a matrix entry is a
number with a finite modulus, a spectrum entry a real number and a matrix
file entry a JSON number (the table at the end).
"""

import dataclasses
import inspect
import math
import pickle
import re
import sys

import numpy as np
import pytest

import spdmeans
from spdmeans import linalg, majorization, matrixio, means, suite
from spdmeans.errors import (DimensionMismatch, NonFiniteInput, NonHermitianInput, NonrealSpectrum,
                            SpdMeansError)
from spdmeans.suite import OracleTally, SuiteConfig, run_suite, summarize

A3, B3 = spdmeans.sample_pd(3, 1, 10.0), spdmeans.sample_pd(3, 2, 10.0)
M3 = np.diag([3.0, 2.0, 1.0])
# the non-scalar arguments of the public functions, by parameter name
OPERANDS = {"A": A3, "B": B3, "P": A3, "H": A3, "M": M3, "X": M3, "Y": M3, "U": np.eye(3),
            "y": [3.0, 1.0], "x": [2.0, 2.0]}
# a valid value of each scalar kind that is exact as an np.int64 and an np.float32
BASE = {"int": 2, "float": 1}


def _call(fn, params: dict, name: str):
    return lambda v: fn(**{**params, name: v})


def _scalar_parameters():
    """(id, parameter name, call taking its value, valid base value) for
    every scalar parameter of a public function or config field."""
    cases = []
    for fname in spdmeans.__all__:
        fn = getattr(spdmeans, fname)
        if not inspect.isfunction(fn) or fname.startswith("check_"):
            continue
        sig = inspect.signature(fn).parameters
        for p in sig.values():
            if p.annotation in BASE:
                params = {q: OPERANDS[q] if q in OPERANDS else BASE[sig[q].annotation]
                          for q in sig if sig[q].default is inspect.Parameter.empty}
                cases.append((f"{fname}-{p.name}", p.name, _call(fn, params, p.name),
                              BASE[p.annotation]))
    for check in suite._REGISTRY:            # the checks at their first fixed row
        sig = inspect.signature(check.public).parameters
        params = {**dict(zip(sig, check.fixed[0])), **check.options(SuiteConfig(), None)}
        for p in sig.values():
            if p.annotation == "float":
                cases.append((f"{check.public.__name__}-{p.name}", p.name,
                              _call(check.public, params, p.name), 1))
    for f in dataclasses.fields(SuiteConfig):
        if f.type in BASE:
            cases.append((f"SuiteConfig-{f.name}", f.name,
                          lambda v, key=f.name: SuiteConfig(**{key: v}).validate(), 1))
    return cases


SCALARS = _scalar_parameters()


def _outcome(call, v):
    """What a call does with ``v``: its pickled result, or its error class
    and message up to the value it quotes."""
    try:
        return "ok", pickle.dumps(call(v))
    except (ValueError, SpdMeansError) as exc:
        return type(exc), str(exc).split(", got ")[0]


def test_every_public_scalar_kind_is_covered():
    ids = {case[0] for case in SCALARS}
    assert {"metric_mean-t", "mat_power-r", "sample_pd-n", "sample_pd-seed", "sample_pd-spread",
            "compound-k", "ky_fan_norm-k", "log_majorizes-tol", "compound_cross_check-tol",
            "check_means_identities-alpha", "check_limit_sandwich-floor",
            "check_spectral_not_monotone-psd_tol", "SuiteConfig-seed",
            "SuiteConfig-limit_err_threshold"} <= ids
    assert len(ids) == len(SCALARS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf],
                         ids=["True", "nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", [case[1:3] for case in SCALARS], ids=[c[0] for c in SCALARS])
def test_bool_and_non_finite_scalars_are_refused_by_name(name, call, bad):
    """A bool, or an infinite or NaN value, would be taken as a number and
    give a NaN margin, a gate turned off or a meaningless result."""
    with pytest.raises((ValueError, SpdMeansError), match=rf"\b{name}\b.* got {bad!r}$"):
        call(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [np.int64, np.float32])
@pytest.mark.parametrize("call, base", [case[2:] for case in SCALARS], ids=[c[0] for c in SCALARS])
def test_numpy_scalars_are_accepted_wherever_python_ones_are(call, base, kind):
    v = kind(base)
    assert _outcome(call, v) == _outcome(call, v.item())
    if kind is np.int64:                   # every scalar takes its integer base value
        assert _outcome(call, v)[0] == "ok"


def test_a_numpy_seed_writes_the_report_of_its_int():
    reports = []
    for seed in (np.int64(3), 3):
        cfg = SuiteConfig(seed=seed, trials=2, limit_trials=1)
        rows = run_suite(cfg)
        reports.append((matrixio.report_csv_text(rows),
                        matrixio.dumps(matrixio.sanitize(summarize(rows, cfg)))))
    assert reports[0] == reports[1]


VALIDATING = [getattr(spdmeans, name) for name in spdmeans.__all__
              if inspect.isfunction(getattr(spdmeans, name))]
VALIDATING += [fn for name, fn in vars(linalg).items() if name.startswith("require_")]


def test_group_evaluators_reach_no_validating_public_function(monkeypatch):
    """The battery's derive steps and group evaluators call kernels only, so
    the public functions can check their input (entries included) without
    the battery paying for it on its own intermediates."""
    public = {"spectrum_of_factor", "spectral_norm", "nonneg_spectrum", "hermitize"}
    assert not public & set(vars(suite))
    calls, inside = [], [False]
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "spdmeans"]
    assert {linalg, means, majorization, suite} <= set(modules)
    for fn in VALIDATING:
        def spy(*args, _fn=fn, **kwargs):
            if inside[0]:
                calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, spy)

    def flagged(fn):
        def run(*args, **kwargs):
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return run

    flagged(lambda: linalg.spectral_norm(np.eye(2)))()     # the spies record
    assert calls == ["spectral_norm", "require_matrix", "require_finite"]
    calls.clear()
    cfg = SuiteConfig(trials=8, limit_trials=2, p_min_exp=4)
    for idx, check in enumerate(suite._REGISTRY):
        if check.evaluate is not None:
            spied = check._replace(evaluate=flagged(check.evaluate),
                                   derive=check.derive and flagged(check.derive))
            assert list(suite._run_trials(cfg, idx, spied, OracleTally()))
    assert calls == []


# every flag: a public function's bool parameter, a bool config field and a
# matrix file's "complex" (with the data_im block a true one needs)
FLAGS = {
    "check_natlog-force": lambda v: spdmeans.check_natlog(
        np.diag([1.0, 4.0]), np.diag([9.0, 1.0]), 0.5, 2.5, force=v),
    "SuiteConfig-s_at_bound": lambda v: SuiteConfig(s_grid=(), s_at_bound=v).validate(),
    "SuiteConfig-force_out_of_range": lambda v: SuiteConfig(
        s_grid=(0.5, 2.5), force_out_of_range=v).validate(),
    "matrix_file-complex": lambda v: matrixio.matrix_from_dict(
        {"n": 1, "complex": v, "data_re": [[2.0]], **({"data_im": [[0.5]]} if v else {})}),
}


def test_every_flag_is_covered():
    public = {f"{name}-{p.name}" for name in spdmeans.__all__
              if inspect.isfunction(fn := getattr(spdmeans, name))
              for p in inspect.signature(fn).parameters.values() if p.annotation == "bool"}
    config = {f"SuiteConfig-{f.name}" for f in dataclasses.fields(SuiteConfig) if f.type == "bool"}
    assert public | config | {"matrix_file-complex"} == set(FLAGS)


@pytest.mark.parametrize("bad", ["no", "", 1, 0, None, 1.0, np.int64(1)],
                         ids=["no", "empty", "1", "0", "None", "1.0", "int64"])
@pytest.mark.parametrize("flag", FLAGS)
def test_flags_take_true_or_false_only(flag, bad):
    """Any truthy value used to count as true: force="no" ran an s beyond
    the provable bound."""
    name = flag.split("-")[1]
    message = rf"\b{name} must be true or false, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        FLAGS[flag](bad)


@pytest.mark.parametrize("flag", FLAGS)
def test_numpy_flags_are_accepted_as_bools(flag):
    outcomes = {value: _outcome(FLAGS[flag], value) for value in (True, False)}
    assert outcomes[True] != outcomes[False]   # each flag matters here
    for value in (True, False):
        assert _outcome(FLAGS[flag], np.bool_(value)) == outcomes[value]


def test_a_numpy_flag_writes_the_report_of_its_bool():
    reports = []
    for flag in (np.True_, True):
        cfg = SuiteConfig(trials=2, limit_trials=1, s_at_bound=flag)
        rows = run_suite(cfg)
        reports.append((matrixio.report_csv_text(rows),
                        matrixio.dumps(matrixio.sanitize(summarize(rows, cfg)))))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("n", [True, False, 1.9, "1", 0, -1, None, np.float64(1.0)],
                         ids=["True", "False", "1.9", "str", "0", "-1", "None", "float64"])
def test_matrix_file_n_takes_the_integer_rule(n):
    message = rf"\bn must be an integer >= 1, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        matrixio.matrix_from_dict({"n": n, "complex": False, "data_re": [[1.0]]})
    one = matrixio.matrix_from_dict({"n": np.int64(1), "complex": False, "data_re": [[1.0]]})
    assert one.shape == (1, 1) and one[0, 0] == 1.0


@pytest.mark.parametrize("M, error, message", [
    (np.eye(2, dtype=bool), NonHermitianInput, "must be numeric, got dtype bool"),
    (np.ones((2, 3)), NonHermitianInput, r"must be square with n >= 1, got shape \(2, 3\)"),
    (np.ones(3), NonHermitianInput, r"must be square with n >= 1, got shape \(3,\)"),
    (np.zeros((0, 0)), NonHermitianInput, r"must be square with n >= 1, got shape \(0, 0\)"),
    (np.ones((2, 2, 2)), DimensionMismatch, r"must be single matrices, got shape \(2, 2, 2\)"),
], ids=["bool", "2x3", "1-D", "0x0", "stack"])
def test_matrix_to_dict_takes_the_matrix_rules(M, error, message):
    with pytest.raises(error, match=message):
        matrixio.matrix_to_dict(M)


def _skewed(M: np.ndarray) -> np.ndarray:
    """M with a symmetry defect of 1e-13, within ETA_HERM: one entry above the diagonal moved."""
    M = np.array(M, dtype=complex if np.iscomplexobj(M) else float)
    M[..., 0, -1] += 1e-13
    return M


# the public functions that decompose a caller's matrix, on a pair of operands
DECOMPOSING = {
    "hermitian_eig": lambda A, B: linalg.hermitian_eig(A),
    "pd_eig": lambda A, B: linalg.pd_eig(A),
    "mat_power": lambda A, B: linalg.mat_power(A, 0.3),
    "mat_exp": lambda A, B: linalg.mat_exp(A),
    "mat_log": lambda A, B: linalg.mat_log(A),
    "mat_sqrt_pair": lambda A, B: linalg.mat_sqrt_pair(A),
    **{name: lambda A, B, fn=getattr(means, name): fn(A, B, 0.3) for name in (
        "metric_mean", "metric_mean_factor", "spectral_mean", "spectral_mean_factor",
        "g_factor", "similarity_witness")},
}
PAIRS = {"complex": (A3, B3),
         "real-stack": tuple(np.stack([spdmeans.sample_pd(4, s, 1e3).real + 4 * np.eye(4)
                                       for s in (seed, seed + 1)]) for seed in (3, 5)),
         # at the order from which the means decompose B on their worker thread
         "worker-order": tuple(spdmeans.sample_pd(means._WORKER_ORDER, s, 10.0) for s in (1, 2))}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("name", DECOMPOSING)
def test_decomposing_functions_take_the_hermitian_part_of_their_input(name, pair):
    A, B = (_skewed(M) for M in PAIRS[pair])
    for M in (A, B):
        assert np.all(spdmeans.is_hermitian(M)) and not np.array_equal(M, linalg.ct(M))
    got = DECOMPOSING[name](A, B)
    assert pickle.dumps(got) == pickle.dumps(DECOMPOSING[name](spdmeans.hermitize(A),
                                                               spdmeans.hermitize(B)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("check", [c for c in suite._REGISTRY if c.evaluate is not None],
                         ids=lambda c: c.check_id)
def test_public_checks_compare_against_the_hermitian_part_of_their_input(check):
    """A public check given matrices that are Hermitian within ETA_HERM
    returns, detail and oracle tally included, exactly its result on their
    Hermitian parts."""
    for inputs in check.fixed:
        results = []
        for prepare in (_skewed, lambda M: spdmeans.hermitize(_skewed(M))):
            tally = OracleTally()
            args = [prepare(v) if isinstance(v, np.ndarray) else v for v in inputs]
            results.append(pickle.dumps((check.public(*args, **check.options(SuiteConfig(), tally)),
                                         tally)))
        assert results[0] == results[1]


@pytest.mark.parametrize("cfg", [SuiteConfig(trials=4, limit_trials=2),
                                 SuiteConfig(dims=(40, 41), trials=2, limit_trials=1)],
                         ids=["default-dims", "large-n"])
def test_battery_decomposes_only_exactly_hermitian_matrices(cfg, monkeypatch):
    """``_eigh`` hands its input to ``numpy.linalg.eigh`` as it is, and
    ``_psd_margin`` to ``eigvalsh``: every matrix the battery gives either
    must equal its conjugate transpose by value (a product must leave
    ``from_eig``, ``gram`` or ``_hermitize`` first).  The run is serial, so
    every call is made in this process."""
    calls = {"eigh": 0, "_psd_margin": 0}

    def exact(name, fn):
        def wrapped(*Xs):
            for X in Xs:
                assert np.array_equal(X, linalg.ct(X)), name
            calls[name] += 1
            return fn(*Xs)
        return wrapped
    monkeypatch.setattr(np.linalg, "eigh", exact("eigh", np.linalg.eigh))
    monkeypatch.setattr(suite, "_psd_margin", exact("_psd_margin", suite._psd_margin))
    assert suite._registry_rows(cfg, 1, OracleTally())
    assert all(calls.values()), calls


# The element rule, one table: each public entry point that takes an array
# (a row) against each kind of entry it refuses (a column).  A matrix entry is
# a number whose modulus is finite, a spectrum entry a real number, and a
# matrix file entry a JSON number.  The cells here are those the rule changed;
# each row's dtype and inf-or-NaN cells that were already refused are pinned
# in test_linalg.py (UNSUPPORTED) and test_majorization.py.
Z = 1.5e308 + 1.5e308j
MATRIX_KINDS = {
    "inf-or-nan-part": np.array([[1.0, complex(0.0, math.inf)], [complex(0.0, -math.inf), 1.0]]),
    "overflowing-modulus": np.array([[1.0, Z], [np.conj(Z), 1.0]]),   # Hermitian, parts finite
    "skew-above-half-max": np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]),  # X - X* overflows
}
SPECTRUM_KINDS = {"bool": [True, False], "str": ["1", "0"],
                  "object": np.array([1.0, 0.0], dtype=object), "complex-spectrum": [1 + 1j, 0.0]}
FILE_KINDS = {"bool": True, "str": "1", "object": None}     # JSON true, "1" and null
MODULI = (NonFiniteInput, r"^\w+ entry moduli must be finite$")
# what each group of rows does with each kind: an error class and message, or False
GROUPS = {
    "hermitian": {"overflowing-modulus": MODULI,
                  "skew-above-half-max": (NonHermitianInput, r"^symmetry defect inf exceeds tolerance$")},
    "eigenvalues": {"overflowing-modulus": MODULI,
                    "skew-above-half-max": (NonrealSpectrum, "non-negligible imaginary parts")},
    "any-matrix": {"overflowing-modulus": MODULI},
    "is_hermitian": {"skew-above-half-max": False},
    "is_unitary": {kind: False for kind in MATRIX_KINDS},
    "spectrum": {kind: (ValueError, r"^y must be integer or float32/64, got dtype \S+$")
                 for kind in SPECTRUM_KINDS},
}
ROW_GROUPS = {"is_hermitian": "is_hermitian", "is_unitary": "is_unitary",
              **dict.fromkeys(("majorizes", "weak_majorizes", "log_majorizes"), "spectrum"),
              **dict.fromkeys(("nonneg_spectrum", "eig_log_majorizes"), "eigenvalues"),
              **dict.fromkeys(("spectral_norm", "spectrum_of_factor", "ky_fan_norm", "compound",
                               "compound_cross_check", "hermitize"), "any-matrix")}
ARRAYS = set("ABCDFHMPUXY") | {"x", "y"}


def _array_rows() -> dict:
    """name -> call putting its argument in a public function's first array
    parameter, with valid 2 x 2 (or length-2) operands and scalars elsewhere."""
    fns = {name: getattr(spdmeans, name) for name in spdmeans.__all__}
    fns.update(pd_eig=linalg.pd_eig, mat_sqrt_pair=linalg.mat_sqrt_pair,
               nonneg_spectrum=majorization.nonneg_spectrum)
    rows = {}
    for name, fn in fns.items():
        if not inspect.isfunction(fn) or not ARRAYS & set(sig := inspect.signature(fn).parameters):
            continue
        arrays = [p for p in sig if p in ARRAYS]
        check = next((c for c in suite._REGISTRY if c.public is fn), None)
        params = ({**dict(zip(sig, check.fixed[0])), **check.options(SuiteConfig(), None)} if check
                  else {q: BASE[sig[q].annotation] for q in sig
                        if sig[q].default is inspect.Parameter.empty and q not in arrays})
        params.update({p: [1.0, 1.0] if p in "xy" else np.eye(2) for p in arrays[1:]})
        rows[name] = lambda v, fn=fn, params=params, first=arrays[0]: fn(**{**params, first: v})
    return rows


def _cells() -> dict:
    """id -> (call with the refused value, what it must do), one per cell of the table."""
    cells = {}
    for name, call in ROWS.items():
        group = ROW_GROUPS.get(name, "hermitian")
        values = SPECTRUM_KINDS if group == "spectrum" else MATRIX_KINDS
        for kind, expected in GROUPS[group].items():
            cells[f"{name}-{kind}"] = (lambda call=call, v=values[kind]: call(v)), expected
    for block in ("data_re", "data_im"):
        for kind, v in FILE_KINDS.items():
            d = {"n": 1, "complex": block == "data_im", "data_re": [[1.0]], block: [[v]]}
            cells[f"matrix_file-{block}-{kind}"] = (
                lambda d=d: matrixio.matrix_from_dict(d),
                (ValueError, rf"\b{block} entries must be JSON numbers, got {re.escape(repr(v))}$"))
    return cells


ROWS = _array_rows()
CELLS = _cells()


def test_every_array_entry_point_is_a_row():
    assert {"hermitian_eig", "pd_eig", "mat_sqrt_pair", "metric_mean", "g_factor", "hermitize",
            "is_unitary", "spectral_norm", "compound_cross_check", "nonneg_spectrum", "majorizes",
            "check_chain", "check_loewner_monotone_geometric"} <= set(ROWS)
    assert len(ROWS) == 37          # 22 exported functions, 12 checks and 3 module-level ones
    assert set(ROW_GROUPS) <= set(ROWS)
    columns = {kind for key in CELLS for kind in [*MATRIX_KINDS, *SPECTRUM_KINDS] if key.endswith(kind)}
    assert columns == {*MATRIX_KINDS, *SPECTRUM_KINDS}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, expected", CELLS.values(), ids=CELLS)
def test_each_entry_point_refuses_each_kind_by_name(call, expected):
    """No numpy warning, no raw TypeError, no NaN result and no coercion of a
    bool, a string or an object to a number: a package error or ValueError
    naming the argument, or False from a predicate."""
    if expected is False:
        assert call() is False
        return
    error, message = expected
    with pytest.raises(error, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_is_unitary_is_false_where_u_u_star_wraps_or_overflows():
    """U U* of integers is formed in float64: in int64, (2**63 - 1)**2 is 1
    modulo 2**64, and this diagonal passed as unitary.  A finite entry whose
    square overflows made U U* inf, which passed the scaled test inf <= inf."""
    assert spdmeans.is_unitary(np.array([[2**63 - 1, 0], [0, 1]])) is False
    assert spdmeans.is_unitary(np.diag([8e307, 1.0])) is False
    assert spdmeans.is_unitary(np.array([[0, 1], [-1, 0]])) is True
