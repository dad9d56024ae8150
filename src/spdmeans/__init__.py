"""Weighted metric and spectral geometric means of positive definite
matrices, majorization orderings on their spectra, and an executable
verification suite for the identities, inequalities, limits and
counterexamples relating them.  The majorization and suite modules load
on the first use of one of their names (PEP 562)."""

from importlib import import_module as _import_module

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
from .means import (
    SimilarityWitness,
    g_factor,
    metric_mean,
    metric_mean_factor,
    similarity_witness,
    spectral_mean,
    spectral_mean_factor,
)

__version__ = "0.1.0"

# name -> module, for what loads on first use.  Names are looked up on every access,
# never stored here, so a patched module attribute shows through the package.
_LAZY = {name: module for module, names in {
    "majorization": ("MajorizationReport compound_cross_check eig_log_majorizes ky_fan_norm "
                     "log_majorizes majorizes weak_majorizes"),
    "suite": ("CheckOutcome OracleTally SuiteConfig check_chain check_geometric_power "
              "check_lambda1 check_limit_sandwich check_limit_spectral check_loewner_heinz "
              "check_loewner_monotone_geometric check_means_identities check_natlog "
              "check_natlog_counterexample check_similarity check_spectral_not_monotone "
              "check_spectral_power check_trace_corollary run_suite summarize"),
}.items() for name in (module, *names.split())}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
