"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines.  Criterion 3's randomized battery draws the sandwich exponent
at the provable bound 1/max(t, 1-t), the gate of the public check_natlog,
rather than the wider gate min(1/t, 2): that gate is refuted for t < 1/2
by an explicit 2x2 input pair
(see tests/test_suite.py::TestNatlog::test_gate_wider_than_provable_bound_is_refuted),
so zero violations are only attainable, and only meaningful, at the
provable bound.
"""

import time

import numpy as np
import pytest

from spdmeans import (
    SuiteConfig,
    check_natlog_counterexample,
    check_spectral_not_monotone,
    cli,
    mat_power,
    run_suite,
    sample_pd,
    spectral_mean,
    spectral_mean_factor,
    spectrum_of_factor,
)
from spdmeans.linalg import pd_eig

MARGIN_GATE = -1e-8

THEOREM_CHECKS = (
    "means_identities",        # algebraic identity battery
    "similarity_witness",      # constructive similarity
    "geometric_power_order",   # metric-mean power inequality
    "spectral_power_order",    # spectral-mean power inequality
    "chain_order",             # four-link ordering chain (incl. direct link)
    "natlog_order",            # sandwich-vs-mean ordering
    "loewner_monotone_metric", # joint monotonicity of the metric mean
    "loewner_heinz",           # fractional-power order preservation
    "lambda1_power_order",     # top-eigenvalue product inequality
)


@pytest.fixture(scope="module")
def suite_run():
    cfg = SuiteConfig()
    t0 = time.perf_counter()
    outcomes = run_suite(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, outcomes, elapsed


def rows_for(outcomes, check_id):
    return [o for o in outcomes if o.check_id == check_id]


def test_criterion_1_sandwich_counterexample_reproduction():
    t0 = time.perf_counter()
    out = check_natlog_counterexample()
    elapsed = time.perf_counter() - t0
    assert out.detail["delta_spectrum_sandwich"] <= 5e-4
    assert out.detail["delta_spectrum_mean"] <= 5e-4
    assert out.detail["delta_entries_sandwich"] <= 1e-3
    assert out.detail["delta_entries_mean"] <= 1e-3
    assert out.verdict is False
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: sandwich counterexample reproduced "
        f"(spectra within {max(out.detail['delta_spectrum_sandwich'], out.detail['delta_spectrum_mean']):.2e}, "
        f"entries within {max(out.detail['delta_entries_sandwich'], out.detail['delta_entries_mean']):.2e}, "
        f"ordering verdict False, {elapsed:.3f}s)"
    )


def test_criterion_2_monotonicity_counterexample_reproduction():
    t0 = time.perf_counter()
    out = check_spectral_not_monotone()
    elapsed = time.perf_counter() - t0
    assert out.detail["delta_diff_eigs"] <= 5e-3
    assert out.detail["b1_ge_b2"] >= 0.0
    assert out.verdict is False
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 2: non-monotonicity counterexample reproduced "
        f"(difference eigenvalues within {out.detail['delta_diff_eigs']:.2e}, "
        f"operand order confirmed, PSD verdict False, {elapsed:.3f}s)"
    )


def test_criterion_3_randomized_theorem_suite(suite_run):
    cfg, outcomes, elapsed = suite_run
    assert cfg.trials == 500 and cfg.dims == (2, 6)
    worst = 0.0
    for cid in THEOREM_CHECKS:
        rows = rows_for(outcomes, cid)
        assert len(rows) >= cfg.trials
        for out in rows:
            assert out.verdict, (cid, out.trial, out.worst_margin)
            assert out.worst_margin >= MARGIN_GATE, (cid, out.trial, out.worst_margin)
            worst = min(worst, out.worst_margin)
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 3: {cfg.trials} trials/check over dims 2-6, "
        f"zero violations (worst margin {worst:+.2e} vs gate {MARGIN_GATE:+.0e}), "
        f"{elapsed:.1f}s"
    )


def test_criterion_4_sqrt_spectrum_property():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        A = sample_pd(n, int(rng.integers(2**62)), 100.0)
        B = sample_pd(n, int(rng.integers(2**62)), 100.0)
        lam_nat = spectrum_of_factor(spectral_mean_factor(A, B, 0.5))
        lam_prod = spectrum_of_factor(mat_power(A, 0.5) @ mat_power(B, 0.5))
        dev = float(np.max(np.abs(lam_nat - np.sqrt(lam_prod)) / np.sqrt(lam_prod)))
        worst = max(worst, dev)
        assert dev <= 1e-9
    print(
        f"\nPASS criterion 4: midpoint spectrum equals sqrt of product spectrum "
        f"over 200 pairs (worst relative deviation {worst:.2e} vs 1e-9)"
    )


def test_criterion_5_determinant_and_homogeneity():
    rng = np.random.default_rng(50)
    worst_det = 0.0
    worst_hom = 0.0
    scales = (0.5, 2.0, 10.0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        A = sample_pd(n, int(rng.integers(2**62)), 100.0)
        B = sample_pd(n, int(rng.integers(2**62)), 100.0)
        t = float(rng.uniform(0.0, 1.0))
        wa, _ = pd_eig(A)
        wb, _ = pd_eig(B)
        log_det = float(np.sum(np.log(spectrum_of_factor(spectral_mean_factor(A, B, t)))))
        target = (1 - t) * float(np.sum(np.log(wa))) + t * float(np.sum(np.log(wb)))
        worst_det = max(worst_det, abs(log_det - target))
        assert abs(log_det - target) <= 1e-9

        base = spectral_mean(A, B, t)
        for alpha in scales:
            for beta in scales:
                got = spectral_mean(alpha * A, beta * B, t)
                want = alpha ** (1 - t) * beta**t * base
                dev = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
                worst_hom = max(worst_hom, dev)
                assert dev <= 1e-9
    print(
        f"\nPASS criterion 5: determinant identity (worst {worst_det:.2e}) and "
        f"homogeneity (worst {worst_hom:.2e}) within 1e-9 over 200 pairs"
    )


def test_criterion_6_limit_studies(suite_run):
    cfg, outcomes, _ = suite_run
    for cid in ("limit_spectral", "limit_sandwich"):
        rows = [o for o in rows_for(outcomes, cid) if o.trial >= 0]
        assert len(rows) == cfg.limit_trials == 50
        for out in rows:
            assert out.verdict, (cid, out.trial, out.worst_margin)
            assert out.detail["final_err"] <= 1e-2
            assert out.detail["err_monotone"] >= MARGIN_GATE
            step_margins = [
                v for k, v in out.detail.items() if k.startswith("logmaj_step_")
                and not k.endswith("_defect")
            ]
            assert step_margins and min(step_margins) >= MARGIN_GATE
    trace_rows = [o for o in rows_for(outcomes, "trace_descent") if o.trial >= 0]
    assert len(trace_rows) == 50
    for out in trace_rows:
        assert out.verdict
        assert out.detail["trace_lower_bound"] >= MARGIN_GATE
        assert out.detail["trace_monotone"] >= MARGIN_GATE
    print(
        "\nPASS criterion 6: 50-pair limit studies, errors descend to <= 1e-2 "
        "on the dyadic grid with ordered descent, trace bound and descent hold"
    )


def test_criterion_7_oracle_agreement(suite_run):
    _, outcomes, _ = suite_run
    oracle = rows_for(outcomes, "oracle_agreement")[0]
    assert oracle.verdict
    assert oracle.detail["comparisons"] > 1000
    assert oracle.detail["mismatches"] == 0
    print(
        f"\nPASS criterion 7: compound oracle agreed with the eigenvalue route "
        f"on all {int(oracle.detail['comparisons'])} comparisons"
    )


def test_criterion_8_report_determinism(tmp_path):
    args = ["verify", "--trials", "25", "--limit-trials", "5", "--seed", "2024"]
    paths = []
    for tag in ("x", "y"):
        csv_path = tmp_path / f"report_{tag}.csv"
        code = cli.main(args + [
            "--out-csv", str(csv_path),
            "--out-json", str(tmp_path / f"report_{tag}.json"),
        ])
        assert code == 0
        paths.append(csv_path)
    a = paths[0].read_bytes()
    b = paths[1].read_bytes()
    assert a == b
    print(
        f"\nPASS criterion 8: identical configs produced byte-identical "
        f"reports ({len(a)} bytes)"
    )
