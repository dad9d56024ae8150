"""Weighted metric and spectral geometric means of positive definite
matrices, majorization orderings on their spectra, and an executable
verification suite for the identities, inequalities, limits and
counterexamples relating them."""

from . import errors
from .linalg import (
    compound,
    hermitian_eig,
    hermitize,
    is_hermitian,
    is_unitary,
    mat_exp,
    mat_log,
    mat_power,
    sample_pd,
    spectral_norm,
    spectrum_of_factor,
)
from .majorization import (
    MajorizationReport,
    compound_cross_check,
    eig_log_majorizes,
    ky_fan_norm,
    log_majorizes,
    majorizes,
    weak_majorizes,
)
from .means import (
    SimilarityWitness,
    g_factor,
    metric_mean,
    metric_mean_factor,
    similarity_witness,
    spectral_mean,
    spectral_mean_factor,
)
from .suite import (
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
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CheckOutcome", "MajorizationReport", "OracleTally", "SimilarityWitness",
    "SuiteConfig", "check_chain", "check_geometric_power", "check_lambda1",
    "check_limit_sandwich", "check_limit_spectral", "check_loewner_heinz",
    "check_loewner_monotone_geometric", "check_means_identities",
    "check_natlog", "check_natlog_counterexample", "check_similarity",
    "check_spectral_not_monotone", "check_spectral_power",
    "check_trace_corollary", "compound", "compound_cross_check",
    "eig_log_majorizes", "errors", "g_factor", "hermitian_eig", "hermitize",
    "is_hermitian", "is_unitary", "ky_fan_norm", "log_majorizes", "majorizes",
    "mat_exp", "mat_log", "mat_power", "metric_mean", "metric_mean_factor",
    "run_suite", "sample_pd", "similarity_witness", "spectral_mean",
    "spectral_mean_factor", "spectral_norm", "spectrum_of_factor", "summarize",
    "weak_majorizes",
]
