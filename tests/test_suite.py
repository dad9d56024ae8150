"""Tests for the theorem-check battery and the suite driver."""

import dataclasses
import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdmeans import (
    CheckOutcome,
    OracleTally,
    SuiteConfig,
    check_chain,
    check_geometric_power,
    check_lambda1,
    check_limit_sandwich,
    check_limit_spectral,
    check_loewner_heinz,
    check_loewner_monotone_geometric,
    check_means_identities,
    check_natlog,
    check_natlog_counterexample,
    check_similarity,
    check_spectral_not_monotone,
    check_spectral_power,
    check_trace_corollary,
    run_suite,
    sample_pd,
    summarize,
)
from spdmeans.errors import DimensionMismatch, PreconditionNotMet, SOutOfRange
from spdmeans.suite import (
    _REGISTRY,
    MONOTONE_COUNTEREXAMPLE,
    NATLOG_COUNTEREXAMPLE,
    REPRODUCTION,
    _beyond_bound,
    _psd_margin,
    _run_trials,
    _s_choices,
    dyadic_grid,
    is_failure,
    s_provable_bound,
)

DIAG_A = np.diag([1.0, 4.0])
DIAG_B = np.diag([9.0, 1.0])

# Frozen refutation of the wider exponent gate min(1/t, 2), which
# check_natlog once accepted: at t = 1/3 and s = 2.0 (inside that gate,
# beyond the provable bound 3/2) this pair
# violates the sandwich-vs-mean ordering; the top-prefix log margin is
# -1.2270644e-4, confirmed with 50-digit arithmetic.
GATE_REFUTATION = {
    "t": 1.0 / 3.0,
    "s": 2.0,
    "A": np.array([
        [0.5491268716385025, 0.028127532844051718],
        [0.028127532844051718, 1.2730660176672972],
    ]),
    "B": np.array([
        [6.474714607305535, -0.9121578595115005],
        [-0.9121578595115005, 0.25290787052925184],
    ]),
    "margin": -1.2270644e-4,
}


class TestGeometricPower:
    def test_unit_power_is_equality(self):
        out = check_geometric_power(sample_pd(3, 1, 20.0), sample_pd(3, 2, 20.0), 0.4, 1.0)
        assert out.verdict
        assert abs(out.worst_margin) <= 1e-12

    def test_commuting_inputs_give_equality(self):
        out = check_geometric_power(DIAG_A, DIAG_B, 0.4, 2.0)
        assert out.verdict
        assert abs(out.worst_margin) <= 1e-12

    def test_random_power_two(self):
        tally = OracleTally()
        out = check_geometric_power(
            sample_pd(3, 3, 10.0), sample_pd(3, 4, 10.0), 0.4, 2.0, tally=tally
        )
        assert out.verdict
        assert tally.comparisons == 2 and tally.mismatches == 0

    def test_fractional_power(self):
        out = check_geometric_power(sample_pd(4, 5, 10.0), sample_pd(4, 6, 10.0), 0.7, 0.3)
        assert out.verdict

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            check_geometric_power(DIAG_A, DIAG_B, 0.5, 0.0)


class TestSpectralPower:
    def test_unit_power_is_equality(self):
        out = check_spectral_power(sample_pd(3, 7, 20.0), sample_pd(3, 8, 20.0), 0.5, 1.0)
        assert out.verdict and abs(out.worst_margin) <= 1e-12

    def test_random_power_three_two_by_two(self):
        out = check_spectral_power(sample_pd(2, 9, 10.0), sample_pd(2, 10, 10.0), 0.5, 3.0)
        assert out.verdict

    def test_exponent_pair_half_and_two(self):
        # (q, p) = (0.5, 2) exercised through the r=0.5 and r=2 trials
        for r in (0.5, 2.0):
            out = check_spectral_power(
                sample_pd(3, 11, 10.0), sample_pd(3, 12, 10.0), 0.25, r
            )
            assert out.verdict
            assert "exponent_monotone" in out.detail


class TestNatlog:
    def test_unit_exponent_commuting_equality(self):
        out = check_natlog(DIAG_A, DIAG_B, 0.5, 1.0)
        assert out.verdict and abs(out.worst_margin) <= 1e-12

    def test_unit_exponent_random(self):
        out = check_natlog(sample_pd(4, 13, 50.0), sample_pd(4, 14, 50.0), 0.6, 1.0)
        assert out.verdict

    def test_provable_bound_holds(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            t = float(rng.uniform(0.05, 0.95))
            s = s_provable_bound(t)
            out = check_natlog(
                sample_pd(3, int(rng.integers(2**62)), 30.0),
                sample_pd(3, int(rng.integers(2**62)), 30.0),
                t,
                s,
            )
            assert out.verdict, (t, s, out.worst_margin)

    def test_out_of_range_requires_force(self):
        with pytest.raises(SOutOfRange):
            check_natlog(DIAG_A, DIAG_B, 1.0 / 3.0, 2.1)
        out = check_natlog(*NATLOG_COUNTEREXAMPLE_ARGS, force=True)
        assert not out.verdict

    def test_forced_row_beyond_the_bound_is_informational(self):
        # as in the battery: flagged out of range, so a false verdict is no failure
        out = check_natlog(*NATLOG_COUNTEREXAMPLE_ARGS, force=True)
        assert not out.verdict
        assert out.detail["out_of_range"] == 1.0 and not is_failure(out)
        inside = check_natlog(DIAG_A, DIAG_B, 1.0 / 3.0, 1.5, force=True)
        assert "out_of_range" not in inside.detail

    def test_gate_wider_than_provable_bound_is_refuted(self):
        # the gate min(1/t, 2) admits genuine counterexamples for t < 1/2,
        # so the check refuses them unless forced
        ref = GATE_REFUTATION
        assert ref["s"] <= min(1.0 / ref["t"], 2.0)
        assert ref["s"] > s_provable_bound(ref["t"])
        with pytest.raises(SOutOfRange):
            check_natlog(ref["A"], ref["B"], ref["t"], ref["s"])
        out = check_natlog(ref["A"], ref["B"], ref["t"], ref["s"], force=True)
        assert not out.verdict
        assert out.worst_margin == pytest.approx(ref["margin"], rel=1e-5)

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 3.0, exclude_min=True))
    @example(1.0 / 3.0, 1.9)            # inside min(1/t, 2), beyond 3/2
    @example(1.0 / 3.0, 1.5)            # on the bound
    def test_gate_is_the_provable_bound(self, t, s):
        beyond = _beyond_bound(t, s)
        if beyond:
            with pytest.raises(SOutOfRange):
                check_natlog(DIAG_A, DIAG_B, t, s)
        else:
            check_natlog(DIAG_A, DIAG_B, t, s)
        for force in (False, True):
            choices = _s_choices(SuiteConfig(s_grid=(s,), force_out_of_range=force), t)
            assert force or not any(_beyond_bound(t, c) for c in choices)
            assert (s in choices) == (force or not beyond)


NATLOG_COUNTEREXAMPLE_ARGS = (
    NATLOG_COUNTEREXAMPLE["A"],
    NATLOG_COUNTEREXAMPLE["B"],
    NATLOG_COUNTEREXAMPLE["t"],
    NATLOG_COUNTEREXAMPLE["s"],
)


class TestChain:
    def test_equal_arguments_all_links_tight(self):
        A = sample_pd(3, 15, 20.0)
        out = check_chain(A, A, 0.7)
        assert out.verdict and abs(out.worst_margin) <= 1e-11

    def test_endpoint_t_zero(self):
        out = check_chain(DIAG_A, DIAG_B, 0.0)
        assert out.verdict and abs(out.worst_margin) <= 1e-12

    def test_random_four_by_four(self):
        out = check_chain(sample_pd(4, 16, 100.0), sample_pd(4, 17, 100.0), 0.7)
        assert out.verdict
        for key in (
            "metric_vs_logeuclid",
            "logeuclid_vs_sandwich",
            "sandwich_vs_spectral",
            "metric_vs_spectral",
        ):
            assert out.detail[key] >= -1e-8


class TestTraceCorollary:
    def test_zero_matrices(self):
        out = check_trace_corollary(np.zeros((2, 2)), np.zeros((2, 2)), 0.5, dyadic_grid(6))
        assert out.verdict
        assert out.detail["trace_target"] == pytest.approx(2.0)
        assert abs(out.worst_margin) <= 1e-13

    def test_commuting_equality(self):
        A = np.diag([0.5, -0.3])
        B = np.diag([0.1, 0.4])
        out = check_trace_corollary(A, B, 0.3, dyadic_grid(6))
        assert out.verdict and abs(out.worst_margin) <= 1e-10

    def test_random_descent(self):
        rng = np.random.default_rng(18)
        Z = rng.standard_normal((3, 3))
        A = (Z + Z.T) / 2
        A /= np.max(np.abs(np.linalg.eigvalsh(A)))
        Z = rng.standard_normal((3, 3))
        B = (Z + Z.T) / 2
        B /= np.max(np.abs(np.linalg.eigvalsh(B)))
        out = check_trace_corollary(A, B, 0.5, dyadic_grid(10))
        assert out.verdict

    def test_single_point_grid_has_no_descent_to_check(self):
        out = check_trace_corollary(np.zeros((2, 2)), np.diag([0.1, 0.2]), 0.5, (1.0,))
        assert out.detail["trace_monotone"] == 0.0

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            check_trace_corollary(np.zeros((2, 2)), np.zeros((2, 2)), 0.5, (0.5, 1.0))


class TestLimits:
    def setup_method(self):
        rng = np.random.default_rng(19)
        Z = rng.standard_normal((3, 3))
        self.A = (Z + Z.T) / 2
        self.A /= np.max(np.abs(np.linalg.eigvalsh(self.A)))
        Z = rng.standard_normal((3, 3))
        self.B = (Z + Z.T) / 2
        self.B /= np.max(np.abs(np.linalg.eigvalsh(self.B)))

    def test_spectral_equal_arguments_zero_error(self):
        out = check_limit_spectral(self.A, self.A, 0.5, dyadic_grid(10))
        assert out.verdict
        assert out.detail["final_err"] <= 1e-11

    def test_spectral_commuting_zero_error(self):
        A = np.diag([0.9, -0.4])
        B = np.diag([0.2, 0.6])
        out = check_limit_spectral(A, B, 0.3, dyadic_grid(10))
        assert out.verdict and out.detail["final_err"] <= 1e-11

    def test_spectral_random_descent(self):
        out = check_limit_spectral(self.A, self.B, 0.6, dyadic_grid(10))
        assert out.verdict
        assert out.detail["final_err"] <= 1e-2
        assert out.detail["err_monotone"] >= -1e-8

    def test_sandwich_equal_arguments(self):
        out = check_limit_sandwich(self.A, self.A, 0.4, dyadic_grid(10))
        assert out.verdict and out.detail["final_err"] <= 1e-11

    def test_sandwich_endpoint_t_zero(self):
        out = check_limit_sandwich(self.A, self.B, 0.0, dyadic_grid(10))
        assert out.verdict and out.detail["final_err"] <= 1e-11

    def test_sandwich_random_descent_and_upper_bound(self):
        out = check_limit_sandwich(self.A, self.B, 0.5, dyadic_grid(10))
        assert out.verdict
        assert any(k.startswith("upper_bound_") for k in out.detail)


class TestLoewnerChecks:
    def test_monotone_equal_pairs(self):
        out = check_loewner_monotone_geometric(DIAG_A, DIAG_B, DIAG_A, DIAG_B, 0.5)
        assert out.verdict and abs(out.worst_margin) <= 1e-12

    def test_monotone_scalars(self):
        out = check_loewner_monotone_geometric(
            np.array([[4.0]]), np.array([[9.0]]), np.array([[1.0]]), np.array([[1.0]]), 0.5
        )
        assert out.verdict
        assert out.worst_margin > 0

    def test_monotone_random_shrunk(self):
        rng = np.random.default_rng(20)
        A = sample_pd(3, 21, 30.0)
        B = sample_pd(3, 22, 30.0)
        wA = np.linalg.eigvalsh(A)[0]
        wB = np.linalg.eigvalsh(B)[0]
        P = sample_pd(3, 23, 5.0)
        Q = sample_pd(3, 24, 5.0)
        C = A - P * (0.5 * wA / np.linalg.eigvalsh(P)[-1])
        D = B - Q * (0.5 * wB / np.linalg.eigvalsh(Q)[-1])
        out = check_loewner_monotone_geometric(A, B, C, D, 0.35)
        assert out.verdict

    def test_monotone_precondition(self):
        with pytest.raises(PreconditionNotMet):
            check_loewner_monotone_geometric(DIAG_A, DIAG_B, 2 * DIAG_A, DIAG_B, 0.5)

    def test_heinz_endpoints(self):
        A = DIAG_A + np.eye(2)
        for r in (1.0, 0.0):
            out = check_loewner_heinz(A, DIAG_A, r)
            assert out.verdict

    def test_heinz_random_half(self):
        B = sample_pd(3, 25, 20.0)
        P = sample_pd(3, 26, 5.0)
        A = B + P
        out = check_loewner_heinz(A, B, 0.5)
        assert out.verdict

    def test_heinz_precondition_and_range(self):
        with pytest.raises(PreconditionNotMet):
            check_loewner_heinz(DIAG_A, DIAG_A + np.eye(2), 0.5)
        with pytest.raises(ValueError):
            check_loewner_heinz(DIAG_A + np.eye(2), DIAG_A, 1.5)


class TestLambda1:
    def test_unit_exponent_equality(self):
        out = check_lambda1(DIAG_A, DIAG_B, 1.0)
        assert out.verdict and abs(out.worst_margin) <= 1e-12

    def test_zero_exponent_identity(self):
        out = check_lambda1(DIAG_A, DIAG_B, 0.0)
        assert out.verdict and abs(out.worst_margin) <= 1e-13

    def test_random_half(self):
        tally = OracleTally()
        out = check_lambda1(sample_pd(3, 27, 50.0), sample_pd(3, 28, 50.0), 0.5, tally=tally)
        assert out.verdict
        assert tally.mismatches == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            check_lambda1(DIAG_A, DIAG_B, 1.2)


class TestIdentityAndWitnessChecks:
    def test_means_identities_random(self):
        out = check_means_identities(sample_pd(3, 29, 100.0), sample_pd(3, 30, 100.0), 0.4)
        assert out.verdict

    def test_similarity_random(self):
        out = check_similarity(sample_pd(3, 31, 50.0), sample_pd(3, 32, 50.0), 0.3)
        assert out.verdict


class TestCounterexampleChecks:
    def test_natlog_counterexample(self):
        out = check_natlog_counterexample()
        assert not out.verdict
        assert out.detail["reproduction_ok"] == 1.0
        assert out.detail["delta_spectrum_sandwich"] <= 5e-4
        assert out.detail["delta_spectrum_mean"] <= 5e-4
        assert out.detail["delta_entries_sandwich"] <= 1e-3
        assert out.detail["delta_entries_mean"] <= 1e-3

    def test_monotone_counterexample(self):
        out = check_spectral_not_monotone()
        assert not out.verdict
        assert out.detail["reproduction_ok"] == 1.0
        assert out.detail["b1_ge_b2"] >= 0.0
        assert out.detail["delta_diff_eigs"] <= 5e-3
        # one negative and one positive eigenvalue around the references
        N1 = MONOTONE_COUNTEREXAMPLE["printed_mean_b1"]
        diff_eigs = MONOTONE_COUNTEREXAMPLE["printed_diff_eigs"]
        assert diff_eigs[0] < 0 < diff_eigs[1]
        assert out.detail["delta_entries_mean_b1"] <= 1e-3
        assert N1.shape == (2, 2)

    @pytest.mark.parametrize("check", [check_natlog_counterexample, check_spectral_not_monotone])
    def test_reproduction_table_lists_every_delta(self, check):
        out = check()
        deltas = [key for key in out.detail if key.startswith("delta_")]
        assert [entry[0] for entry in REPRODUCTION[out.check_id]] == deltas


@pytest.mark.parametrize("check, name", [
    (check_loewner_heinz, "r"), (check_lambda1, "s"),
    pytest.param(partial(check_natlog, s=1.0), "weight t", id="check_natlog-t"),
    pytest.param(lambda A, B, r: check_means_identities(A, B, 0.5, r=r), "r",
                 id="check_means_identities-r"),
    pytest.param(lambda A, B, s: check_means_identities(A, B, 0.5, s=s), "s",
                 id="check_means_identities-s"),
])
@pytest.mark.parametrize("value", [-0.5, 1.5])
def test_unit_interval_parameters_are_range_checked(check, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got {value}$"):
        check(DIAG_A + np.eye(2), DIAG_A, value)


HERM_A, HERM_B = np.diag([0.5, -0.5]), np.array([[0.2, 0.1], [0.1, -0.1]])
# each public check's tolerance and limit thresholds, at its first fixed
# inputs and otherwise the options the battery passes
THRESHOLD_CALLS = [
    (key, partial(check.public, *check.fixed[0], **{**check.options(SuiteConfig(), None), key: bad}),
     f"{check.check_id}-{key}={bad}")
    for check in _REGISTRY for key in ("tol", "psd_tol", "err_threshold", "floor")
    if key in check.keywords for bad in (math.nan, math.inf, 0.0, -1e-4)
]
PARAMETER_CALLS = [
    ("r", partial(check_geometric_power, DIAG_A, DIAG_B, 0.5, math.nan), "geometric-r=nan"),
    ("r", partial(check_geometric_power, DIAG_A, DIAG_B, 0.5, math.inf), "geometric-r=inf"),
    ("r", partial(check_spectral_power, DIAG_A, DIAG_B, 0.5, math.inf), "spectral-r=inf"),
    ("r", partial(check_spectral_power, DIAG_A, DIAG_B, 0.5, 0.0), "spectral-r=0"),
    ("s", partial(check_natlog, DIAG_A, DIAG_B, 0.5, math.nan), "natlog-s=nan"),
    ("s", partial(check_natlog, DIAG_A, DIAG_B, 0.5, math.inf, force=True), "natlog-s=inf"),
    ("s", partial(check_natlog, DIAG_A, DIAG_B, 0.5, -1.0), "natlog-s=-1"),
    ("alpha", partial(check_means_identities, DIAG_A, DIAG_B, 0.5, alpha=math.nan), "alpha=nan"),
    ("beta", partial(check_means_identities, DIAG_A, DIAG_B, 0.5, beta=math.inf), "beta=inf"),
    ("err_threshold", partial(check_limit_sandwich, HERM_A, HERM_B, 0.5, [1.0], err_threshold=-1e-4),
     "sandwich-err_threshold=-1e-4"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call", [case[:2] for case in PARAMETER_CALLS + THRESHOLD_CALLS],
                         ids=[case[2] for case in PARAMETER_CALLS + THRESHOLD_CALLS])
def test_scalar_options_must_be_finite_and_positive(name, call):
    """A NaN, infinite, zero or negative exponent, scale factor, tolerance or
    limit threshold is refused by name, before any numpy warning: each would
    otherwise give a NaN margin, a verdict that always passes or always
    fails, or a gate turned off."""
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive, got "):
        call()


class TestRunSuite:
    def test_zero_trials_runs_only_fixed_rows(self):
        cfg = SuiteConfig(trials=0, limit_trials=0)
        outs = run_suite(cfg)
        assert all(out.trial < 0 for out in outs)
        ids = {out.check_id for out in outs}
        assert "counterexample_natlog" in ids and "counterexample_monotone" in ids
        assert summarize(outs, cfg)["ok"]

    def test_deterministic_for_equal_configs(self):
        cfg = SuiteConfig(trials=6, limit_trials=2, seed=77)
        a = run_suite(cfg)
        b = run_suite(SuiteConfig(trials=6, limit_trials=2, seed=77))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.check_id, x.trial, x.seed, x.verdict) == (
                y.check_id,
                y.trial,
                y.seed,
                y.verdict,
            )
            assert x.worst_margin == y.worst_margin
            assert x.detail == y.detail

    def test_small_run_meets_expectations(self):
        cfg = SuiteConfig(trials=10, limit_trials=3, seed=5)
        outs = run_suite(cfg)
        summary = summarize(outs, cfg)
        assert summary["ok"]
        assert summary["checks"]["oracle_agreement"]["failures"] == 0

    def test_forced_out_of_range_rows_are_informational(self):
        cfg = SuiteConfig(
            trials=40, limit_trials=0, seed=11,
            s_grid=(0.5, 1.0, 2.1), force_out_of_range=True,
        )
        outs = run_suite(cfg)
        forced = [
            o for o in outs
            if o.check_id == "natlog_order" and o.detail.get("out_of_range") == 1.0
        ]
        assert forced
        assert summarize(outs, cfg)["ok"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(trials=-1).validate()
        with pytest.raises(ValueError):
            SuiteConfig(dims=(4, 2)).validate()
        with pytest.raises(ValueError):
            SuiteConfig(t_grid=(0.0, 1.5)).validate()
        with pytest.raises(ValueError):
            SuiteConfig(s_grid=(0.5, 2.5)).validate()
        SuiteConfig(s_grid=(0.5, 2.5), force_out_of_range=True).validate()

    @pytest.mark.parametrize("field, value", [
        ("trials", "7"), ("trials", 1.5), ("trials", True), ("limit_trials", 2.0),
        ("dims", (2, "6")), ("dims", (2,)), ("dims", (2, 3, 4)), ("dims", 5), ("dims", (2.0, 6)),
        ("p_min_exp", 3.0), ("p_min_exp", None),
        ("spread", "10"), ("spread", False), ("spread", math.nan), ("tol", None),
        ("tol", math.inf), ("psd_tol", "1e-9"), ("t_grid", (0.5, math.nan)),
        ("limit_err_threshold", True), ("limit_floor", [1e-8]),
        ("t_grid", 0.5), ("t_grid", "0.5"), ("t_grid", (0.5, "1")), ("r_grid", (1.0, True)),
        ("s_grid", None), ("s_at_bound", 1), ("force_out_of_range", "yes"),
    ])
    def test_every_field_is_type_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            SuiteConfig(**{field: value}).validate()
        with pytest.raises(ValueError, match=field):
            SuiteConfig.from_dict({field: list(value) if isinstance(value, tuple) else value})

    @pytest.mark.parametrize("field, value", [
        ("t_grid", ()), ("r_grid", ()), ("limit_err_threshold", 0.0),
        ("limit_err_threshold", -1e-2), ("limit_floor", 0.0), ("limit_floor", -1.0),
    ])
    def test_ranges_that_would_break_a_run_are_rejected(self, field, value):
        with pytest.raises(ValueError, match="grid|threshold"):
            SuiteConfig(**{field: value}).validate()

    @pytest.mark.parametrize("p_min_exp", [-1, 1075])
    def test_p_min_exp_beyond_the_double_range_is_rejected(self, p_min_exp):
        # 2^-1075 underflows to 0.0, which is no grid point
        with pytest.raises(ValueError, match="p_min_exp"):
            SuiteConfig(p_min_exp=p_min_exp).validate()
        with pytest.raises(ValueError, match="p_min_exp"):
            dyadic_grid(p_min_exp)

    def test_dyadic_grid_reaches_the_smallest_double(self):
        grid = dyadic_grid(1074)
        assert len(grid) == 1075 and grid[0] == 1.0 and grid[-1] == 5e-324

    @pytest.mark.parametrize("trials", [2, 0])
    def test_s_grid_leaving_a_weight_without_exponent_is_rejected(self, trials):
        # t = 0.25 has the provable bound 4/3, below every value of the grid
        data = {"trials": trials, "limit_trials": 1, "s_grid": [1.9], "s_at_bound": False}
        with pytest.raises(ValueError, match="s_grid"):
            SuiteConfig.from_dict(data)
        for fix in ({"s_at_bound": True}, {"force_out_of_range": True}, {"t_grid": [0.0, 0.5]}):
            SuiteConfig.from_dict({**data, **fix})

    def test_field_types_admit_numbers_and_lists(self):
        cfg = SuiteConfig.from_dict({"trials": 2, "limit_trials": 1, "dims": [2, 3], "spread": 10,
                                     "tol": 1, "t_grid": [0, 0.5, 1], "r_grid": [2],
                                     "s_at_bound": False})
        assert cfg.dims == (2, 3) and cfg.t_grid == (0, 0.5, 1)
        SuiteConfig(trials=np.int64(3), spread=np.float64(10.0), t_grid=[0.5]).validate()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SuiteConfig(seed=seed).validate()
        with pytest.raises(ValueError, match="seed"):
            SuiteConfig.from_dict({"seed": seed})
        with pytest.raises(ValueError, match="seed"):
            sample_pd(2, seed, 10.0)

    def test_large_seeds_are_valid(self):
        for seed in (0, 2**64, 2**130):
            SuiteConfig(seed=seed).validate()
        assert run_suite(SuiteConfig(seed=2**130, trials=2, limit_trials=1))

    def test_config_roundtrip(self):
        cfg = SuiteConfig(trials=3, dims=(2, 4), t_grid=(0.25, 0.5))
        again = SuiteConfig.from_dict(cfg.to_dict())
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)
        with pytest.raises(ValueError):
            SuiteConfig.from_dict({"bogus": 1})

    def test_outcome_shape(self):
        out = check_chain(DIAG_A, DIAG_B, 0.5)
        assert isinstance(out, CheckOutcome)
        assert out.witness is None
        assert isinstance(out.detail, dict)


@pytest.mark.parametrize("idx", [i for i, c in enumerate(_REGISTRY) if c.draw],
                         ids=[c.check_id for c in _REGISTRY if c.draw])
def test_witness_replays_its_row(idx):
    """Every row is marked failing, so every row gets a witness; the
    witness holds the leading arguments of the registry's public check, in
    order, and with the registry's options replays the row's worst margin
    bitwise.  Trial 16 of means_identities has its homogeneity identity,
    which depends on alpha and beta, as its worst margin."""
    cfg = SuiteConfig(seed=1, trials=40, limit_trials=8, p_min_exp=6)
    check = _REGISTRY[idx]

    def failing(**inputs):
        outs = check.evaluate(**inputs)
        for out in outs:
            out.verdict = False
        return outs

    options = check.options(cfg, OracleTally())
    params = list(inspect.signature(check.public).parameters)
    outs = list(_run_trials(cfg, idx, check._replace(evaluate=failing), OracleTally()))
    assert len(outs) == getattr(cfg, check.trials)
    for out in outs:
        assert list(out.witness) == params[:len(out.witness)]
        replay = check.public(**out.witness, **options)
        assert replay.worst_margin.hex() == out.worst_margin.hex(), out.trial


@pytest.mark.parametrize("check", [c for c in _REGISTRY if c.fixed[0]], ids=lambda c: c.check_id)
def test_public_check_takes_single_matrices_of_one_shape(check):
    """A public check called with one matrix of its first fixed row resized,
    or with every matrix stacked, names the shape rule instead of failing
    inside numpy."""
    row = check.fixed[0]
    last = max(i for i, v in enumerate(row) if np.ndim(v) == 2)
    mismatched = [2.0 * np.eye(len(v) + 1) if i == last else v for i, v in enumerate(row)]
    stacked = [np.stack([v] * 3) if np.ndim(v) == 2 else v for v in row]
    options = check.options(SuiteConfig(), OracleTally())
    for inputs in (mismatched, stacked):
        with pytest.raises(DimensionMismatch):
            check.public(*inputs, **options)


@pytest.mark.parametrize("check_id, pairs", [
    ("loewner_monotone_metric", (("A", "C"), ("B", "D"))),
    ("loewner_heinz", (("A", "B"),)),
], ids=["loewner_monotone_metric", "loewner_heinz"])
@pytest.mark.parametrize("seed", [0, 1, 40])
@pytest.mark.parametrize("spread", [1e2, 1e4, 1e6])
def test_battery_derives_loewner_ordered_pairs(check_id, pairs, seed, spread):
    """The group evaluators of the Loewner checks take their hypotheses as
    given (only the public checks test them): every trial the battery
    draws and derives must satisfy them."""
    idx = [c.check_id for c in _REGISTRY].index(check_id)
    cfg = SuiteConfig(seed=seed, spread=spread)
    rows = 0

    def ordered(psd_tol, **inputs):
        nonlocal rows
        for hi, lo in pairs:
            assert np.all(_psd_margin(inputs[hi], inputs[lo]) >= -psd_tol), (hi, lo)
        rows += len(inputs["A"])
        return [CheckOutcome(check_id, True, 0.0) for _ in inputs["A"]]

    check = _REGISTRY[idx]._replace(evaluate=ordered)
    assert len(list(_run_trials(cfg, idx, check, OracleTally()))) == rows == cfg.trials
