"""Command-line front end.

Subcommands::

    spdmeans mean            compute a weighted mean of two matrix files
    spdmeans verify          run the verification suite, write CSV + JSON
    spdmeans limit           tabulate the small-exponent limit errors
    spdmeans counterexample  reproduce an embedded counterexample
    spdmeans sample          write a seeded random SPD matrix file

Exit codes: 0 all expectations met, 1 mathematical violation found,
2 input/config error.  The default output directory can be overridden
with the SPDMEANS_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import matrixio
from .errors import SpdMeansError
from .linalg import require_hermitian, require_same_shape, sample_pd, spectral_norm
from .means import _check_weight, metric_mean, spectral_mean
from .suite import (
    MONOTONE_COUNTEREXAMPLE,
    NATLOG_COUNTEREXAMPLE,
    REPRODUCTION,
    SuiteConfig,
    check_natlog_counterexample,
    check_spectral_not_monotone,
    dyadic_grid,
    is_failure,
    limit_members,
    limit_target,
    run_suite,
    summarize,
)


def _out_dir() -> str:
    return os.environ.get("SPDMEANS_OUT_DIR", ".")


def _resolve(path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(_out_dir(), path)


def _print_matrix(label: str, M: np.ndarray) -> None:
    print(f"{label}:")
    for row in np.asarray(M):
        print("  " + "  ".join(f"{v: .6f}" for v in row.real))


def _load_hermitian(path: str) -> np.ndarray:
    return require_hermitian(matrixio.read_matrix(path))


def _cmd_mean(args) -> int:
    fn = metric_mean if args.kind == "sharp" else spectral_mean
    M = fn(matrixio.read_matrix(args.a_file), matrixio.read_matrix(args.b_file), args.t)
    matrixio.write_matrix(_resolve(args.out), M)
    w = np.linalg.eigvalsh(M)[::-1]
    print("eigenvalues: " + " ".join(matrixio.format_float(v) for v in w))
    print("determinant: " + matrixio.format_float(float(np.prod(w))))
    return 0


def _grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from exc


def _config_from_args(args) -> SuiteConfig:
    """The config file's fields (if one is given), each given flag on top."""
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object of SuiteConfig fields")
    data.update({name: getattr(args, name)
                 for name in ("seed", "trials", "limit_trials", "p_min_exp", "spread", "tol")
                 if getattr(args, name) is not None})
    if args.dims is not None:
        data["dims"] = tuple(int(v) for v in args.dims.split(","))
    for flag in ("t", "r", "s"):
        if getattr(args, flag) is not None:
            data[f"{flag}_grid"] = _grid(getattr(args, flag))
    if args.force_out_of_range:
        data["force_out_of_range"] = True
    return SuiteConfig.from_dict(data)


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.out:
        args.out_csv = args.out + ".csv"
        args.out_json = args.out + ".json"
    outcomes = run_suite(cfg)
    summary = summarize(outcomes, cfg)

    matrixio.write_text(_resolve(args.out_csv), matrixio.report_csv_text(outcomes))
    failures = [
        {
            "check_id": out.check_id,
            "trial": out.trial,
            "seed": out.seed,
            "worst_margin": out.worst_margin,
            "detail": out.detail,
            "witness": out.witness,
        }
        for out in outcomes
        if is_failure(out)
    ]
    summary["failure_rows"] = failures
    matrixio.write_text(_resolve(args.out_json), matrixio.dumps(matrixio.sanitize(summary)))

    for cid, entry in summary["checks"].items():
        print(
            f"{cid}: rows={entry['rows']} failures={entry['failures']} "
            f"worst_margin={entry['worst_margin']:.3e} expected={entry['expected']}"
        )
    print(f"suite {'PASS' if summary['ok'] else 'FAIL'}")
    return 0 if summary["ok"] else 1


def _cmd_limit(args) -> int:
    A, B = require_same_shape(_load_hermitian(args.a_file), _load_hermitian(args.b_file))
    A, B, t = A[None], B[None], np.array([_check_weight(args.t, "t")])
    grid = dyadic_grid(args.p_min_exp)
    target = limit_target(A, B, t)
    errs = {"spectral": [], "sandwich": []}
    traces = []
    for family, err in errs.items():
        for _, _, members in limit_members(family, A, B, t, grid):
            err.extend(spectral_norm(members - target))
            if family == "spectral":
                traces.extend(float(np.trace(X).real) for X in members)
    trace_target = float(np.trace(target[0]).real)
    rows = [(p, *row, trace_target)
            for p, *row in zip(grid, errs["spectral"], errs["sandwich"], traces)]
    matrixio.write_text(_resolve(args.out), matrixio.limit_csv_text(rows))
    print(f"wrote {len(rows)} grid points to {_resolve(args.out)}")
    return 0


def _cmd_counterexample(args) -> int:
    if args.name == "remark37":
        ce = NATLOG_COUNTEREXAMPLE
        out = check_natlog_counterexample()
        print(f"inputs (t={ce['t']:.6g}, s={ce['s']}):")
        _print_matrix("A", ce["A"])
        _print_matrix("B", ce["B"])
        _print_matrix("reference sandwich power", ce["printed_sandwich"])
        _print_matrix("reference spectral mean", ce["printed_mean"])
        print(f"reference spectra: sandwich {ce['printed_sandwich_spectrum']}, "
              f"mean {ce['printed_mean_spectrum']}")
        verdict = "log-majorization verdict"
    else:
        ce = MONOTONE_COUNTEREXAMPLE
        out = check_spectral_not_monotone()
        print(f"inputs (t={ce['t']:.6g}):")
        _print_matrix("A", ce["A"])
        _print_matrix("B1", ce["B1"])
        _print_matrix("B2", ce["B2"])
        _print_matrix("reference mean with B1", ce["printed_mean_b1"])
        _print_matrix("reference mean with B2", ce["printed_mean_b2"])
        print(f"reference eigenvalues of the difference: {ce['printed_diff_eigs']}")
        verdict = f"B1 >= B2 margin: {out.detail['b1_ge_b2']:.3e}\nPSD verdict for the difference"
    print("computed deltas:")
    for key, label, tol in REPRODUCTION[out.check_id]:
        value = out.detail[key]
        print(f"  {label}: {value:.3e} (tolerance {tol:g}) {'ok' if value <= tol else 'FAIL'}")
    print(f"{verdict}: {out.verdict} (expected False), worst margin {out.worst_margin:.3e}")
    ok = not is_failure(out)
    print("reproduction " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_sample(args) -> int:
    M = sample_pd(args.n, args.seed, args.spread)
    matrixio.write_matrix(_resolve(args.out), M)
    print(f"wrote {args.n}x{args.n} matrix to {_resolve(args.out)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdmeans",
        description="Weighted metric/spectral geometric means and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="compute a weighted mean of two SPD matrix files")
    p.add_argument("kind", choices=("sharp", "natural"),
                   help="sharp = metric mean, natural = spectral mean")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--t", type=float, required=True, help="weight in [0, 1]")
    p.add_argument("--out", default="mean.json")
    p.set_defaults(fn=_cmd_mean)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--config", help="JSON file with SuiteConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--limit-trials", type=int, dest="limit_trials")
    p.add_argument("--dims", help="dimension range, e.g. 2,6")
    p.add_argument("--t", help="comma-separated weight grid")
    p.add_argument("--r", help="comma-separated power grid")
    p.add_argument("--s", help="comma-separated sandwich exponent grid")
    p.add_argument("--p-min-exp", type=int, dest="p_min_exp")
    p.add_argument("--spread", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--force-out-of-range", action="store_true",
                   help="add the s grid values beyond the provable bound 1/max(t, 1-t) "
                        "as informational rows, and admit s > 2")
    p.add_argument("--out", help="report path prefix (writes <out>.csv and <out>.json)")
    p.add_argument("--out-csv", default="report.csv", dest="out_csv")
    p.add_argument("--out-json", default="report.json", dest="out_json")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("limit", help="tabulate small-exponent limit errors")
    p.add_argument("a_file")
    p.add_argument("b_file")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--p-min-exp", type=int, default=10, dest="p_min_exp")
    p.add_argument("--out", default="limit.csv")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("counterexample", help="reproduce an embedded counterexample")
    p.add_argument("name", choices=("remark37", "loewner"))
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("sample", help="write a seeded random SPD matrix file")
    p.add_argument("n", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("spread", type=float)
    p.add_argument("--out", default="sample.json")
    p.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpdMeansError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
