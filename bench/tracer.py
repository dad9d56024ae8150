"""In-memory span tracer for the spdmeans benchmark.

The tracer wraps public functions of each spdmeans layer, and the LAPACK
entry points of ``numpy.linalg``, from outside the package: nothing under
``src/`` is edited.  A wrapper is bound wherever the original function
object is bound, because ``suite``, ``means``, ``majorization`` and ``cli``
import kernels with ``from .linalg import ...``; patching only the defining
module would miss those calls.

Each call records one span: name, start, end and the enclosing span.
Spans are kept in flat arrays and
reduced to per-layer metrics when the run ends.  Self time is a span's
duration minus the durations of its direct children (spans nest and do not
overlap, since the program is single-threaded).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

LAPACK = ("eigh", "svd", "eigvalsh", "det", "qr", "solve", "eigvals")

# Layer name -> (module, public functions wrapped in that module).
LAYERS = {
    "lapack": ("numpy.linalg", LAPACK),
    "linalg": ("spdmeans.linalg", (
        "hermitian_eig", "pd_eig", "mat_power", "mat_sqrt_pair", "mat_exp",
        "mat_log", "spectrum_of_factor", "sample_pd", "require_hermitian",
        "compound",
    )),
    "means": ("spdmeans.means", (
        "metric_mean_factor", "spectral_mean_factor", "g_factor",
        "similarity_witness", "metric_mean", "spectral_mean",
    )),
    "majorization": ("spdmeans.majorization", (
        "compound_cross_check", "nonneg_spectrum",
    )),
    "suite": ("spdmeans.suite", (
        "check_means_identities", "check_similarity", "check_geometric_power",
        "check_spectral_power", "check_natlog", "check_chain",
        "check_trace_corollary", "check_limit_spectral", "check_limit_sandwich",
        "check_loewner_monotone_geometric", "check_loewner_heinz",
        "check_lambda1", "check_natlog_counterexample",
        "check_spectral_not_monotone", "run_suite",
    )),
    "matrixio": ("spdmeans.matrixio", ("report_csv_text", "dumps", "sanitize")),
    "cli": ("spdmeans.cli", ("main",)),
}


class Tracer:
    """Records one span per wrapped call; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = self.clock, self._stack
        sid, parent, start, end = self.sid, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            sid.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever spdmeans binds it."""
        import spdmeans.cli  # noqa: F401  (loads every spdmeans module)

        modules = [m for k, m in sys.modules.items()
                   if k == "spdmeans" or k.startswith("spdmeans.")]
        for layer, (modname, fns) in LAYERS.items():
            home = importlib.import_module(modname)
            for fn in fns:
                orig = getattr(home, fn)
                wrapped = self.wrap(f"{layer}.{fn}", orig)
                for mod in [home, *modules]:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time."""
        sid = np.frombuffer(self.sid, dtype=np.intc)
        dur, own = self_times(np.frombuffer(self.parent, dtype=np.intc), self.start, self.end)
        k = len(self.names)
        calls = np.bincount(sid, minlength=k)
        total = np.bincount(sid, weights=dur, minlength=k)
        self_s = np.bincount(sid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}


def self_times(parent, start, end):
    """Return (duration, self time) per span.

    ``parent[i]`` is the index of the span that directly encloses span i,
    or -1 for a root span.  Self time is the duration minus the summed
    durations of the direct children.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur, dur - child
