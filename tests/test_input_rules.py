"""The package's input rules at its public boundary.

Every public scalar parameter (of the functions in ``spdmeans.__all__``
and the fields of ``SuiteConfig``) refuses a ``bool`` and a NaN or
infinite value by name, and takes a numpy number wherever it takes the
Python number of the same value.  The verification battery's group
evaluators call none of the validating public functions: they take the
battery's own draws as given and call the kernels behind those functions.
"""

import dataclasses
import inspect
import math
import pickle
import sys

import numpy as np
import pytest

import spdmeans
from spdmeans import linalg, majorization, matrixio, means, suite
from spdmeans.errors import SpdMeansError
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
