"""Command-line front end.

Subcommands::

    spdmeans mean            compute a weighted mean of two matrix files
    spdmeans verify          run the verification suite, write CSV + JSON
    spdmeans limit           tabulate the small-exponent limit errors
    spdmeans counterexample  reproduce an embedded counterexample
    spdmeans sample          write a seeded random SPD matrix file

Exit codes: 0 all expectations met, 1 mathematical violation found,
2 input/config error or numerical abort.  The default output directory
can be overridden with the SPDMEANS_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import matrixio
from .errors import SpdMeansError
from .linalg import _spectral_norm, require_real, sample_pd
from .means import metric_mean, spectral_mean
from .suite import (
    MONOTONE_COUNTEREXAMPLE,
    NATLOG_COUNTEREXAMPLE,
    REPRODUCTION,
    SuiteConfig,
    _one,
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
    for row in np.atleast_2d(M):
        print("  " + "  ".join(f"{v: .6f}" for v in row.real))


def _cmd_mean(args) -> int:
    fn = metric_mean if args.kind == "sharp" else spectral_mean
    M = fn(matrixio.read_matrix(args.a_file), matrixio.read_matrix(args.b_file), args.t)
    matrixio.write_matrix(_resolve(args.out), M)
    w = np.linalg.eigvalsh(M)[::-1]
    print("eigenvalues: " + " ".join(matrixio.format_float(v) for v in w))
    print("determinant: " + matrixio.format_float(float(np.prod(w))))
    return 0


def _grid(text: str, kind=float) -> tuple:
    """A comma-separated flag value as a tuple of ``kind``; argparse's error if one is not."""
    try:
        return tuple(map(kind, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of {kind.__name__}s: {text!r}")


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
    flags = {field.name: v for field in dataclasses.fields(SuiteConfig)
             if (v := getattr(args, field.name, None)) is not None}
    return SuiteConfig.from_dict({**data, **flags})


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    if args.out:
        args.out_csv = args.out + ".csv"
        args.out_json = args.out + ".json"
    outcomes = run_suite(cfg)
    summary = summarize(outcomes, cfg)

    matrixio.write_text(_resolve(args.out_csv), matrixio.report_csv_text(outcomes))
    matrixio.write_text(_resolve(args.out_json), matrixio.dumps(matrixio.sanitize(summary)))

    for cid, entry in summary["checks"].items():
        print(
            f"{cid}: rows={entry['rows']} failures={entry['failures']} "
            f"worst_margin={entry['worst_margin']:.3e} expected={entry['expected']}"
        )
    print(f"suite {'PASS' if summary['ok'] else 'FAIL'}")
    return 0 if summary["ok"] else 1


def _cmd_limit(args) -> int:
    A, B = _one(matrixio.read_matrix(args.a_file), matrixio.read_matrix(args.b_file))
    t = np.array([require_real(args.t, "t", 0.0, 1.0)])
    grid = dyadic_grid(args.p_min_exp)
    target = limit_target(A, B, t)
    errs = {"spectral": [], "sandwich": []}
    traces = []
    for family, err in errs.items():
        for _, _, members in limit_members(family, A, B, t, grid):
            err.extend(_spectral_norm(members[:, 0] - target[0]))
            if family == "spectral":
                traces.extend(float(np.trace(X).real) for X in members[:, 0])
    trace_target = float(np.trace(target[0]).real)
    rows = [(p, *row, trace_target)
            for p, *row in zip(grid, errs["spectral"], errs["sandwich"], traces)]
    matrixio.write_text(_resolve(args.out), matrixio.limit_csv_text(rows))
    print(f"wrote {len(rows)} grid points to {_resolve(args.out)}")
    return 0


# Each fixture's command-line name, its check and its inputs and printed references.
_FIXTURES = {"remark37": (check_natlog_counterexample, NATLOG_COUNTEREXAMPLE),
             "loewner": (check_spectral_not_monotone, MONOTONE_COUNTEREXAMPLE)}


def _cmd_counterexample(args) -> int:
    check, ce = _FIXTURES[args.name]
    out = check()
    scalars = {key: v for key, v in out.witness.items() if np.ndim(v) == 0}
    print("inputs (" + ", ".join(f"{key}={v:.6g}" for key, v in scalars.items()) + "):")
    for key, M in out.witness.items():
        if key not in scalars:
            _print_matrix(key, M)
    for key, label, tol, ref in REPRODUCTION[out.check_id]:
        _print_matrix(f"reference {label}", ce[ref])
        value = out.detail[key]
        print(f"  {label}: {value:.3e} (tolerance {tol:g}) {'ok' if value <= tol else 'FAIL'}")
    if "b1_ge_b2" in out.detail:
        print(f"B1 >= B2 margin: {out.detail['b1_ge_b2']:.3e}")
    print(f"verdict: {out.verdict} (expected False), worst margin {out.worst_margin:.3e}")
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
    p.add_argument("--dims", type=lambda text: _grid(text, int), help="dimension range, e.g. 2,6")
    p.add_argument("--t", type=_grid, dest="t_grid", help="comma-separated weight grid")
    p.add_argument("--r", type=_grid, dest="r_grid", help="comma-separated power grid")
    p.add_argument("--s", type=_grid, dest="s_grid", help="comma-separated sandwich exponent grid")
    p.add_argument("--p-min-exp", type=int, dest="p_min_exp")
    p.add_argument("--spread", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--force-out-of-range", action="store_const", const=True,
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
    p.add_argument("--p-min-exp", type=int, default=SuiteConfig.p_min_exp, dest="p_min_exp")
    p.add_argument("--out", default="limit.csv")
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("counterexample", help="reproduce an embedded counterexample")
    p.add_argument("name", choices=_FIXTURES)
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
