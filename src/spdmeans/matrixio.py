"""Matrix JSON files and CSV/JSON reports.

Schema of a matrix file::

    {"n": 2, "complex": false, "data_re": [[...], [...]]}

with an additional ``data_im`` block when ``complex`` is true.  Floats are
serialized with 17 significant decimal digits, which round-trips doubles
exactly and keeps reports byte-reproducible.
"""

from __future__ import annotations

import json
import math
from numbers import Real
from typing import Any

import numpy as np

from .linalg import require_flag, require_integer, require_matrix, require_same_shape


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def _dump(value: Any, pad: str = "") -> str:
    """JSON text of ``value`` on lines indented by ``pad``: a dict, or a list
    not all of bool/int/float/str, is one entry per line; a flat list is one line."""
    if isinstance(value, dict):
        brackets, entries = "{}", [(json.dumps(str(k)) + ": ", v) for k, v in value.items()]
    elif not isinstance(value, (list, tuple)):
        return _scalar(value)
    elif all(isinstance(v, (bool, int, float, str)) for v in value):
        return "[" + ", ".join(map(_scalar, value)) + "]"
    else:
        brackets, entries = "[]", [("", v) for v in value]
    if not entries:
        return brackets
    inner = pad + "  "
    body = ",\n".join(inner + key + _dump(v, inner) for key, v in entries)
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"


def _scalar(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


def dumps(obj: Any) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _dump(obj) + "\n"


def matrix_to_dict(M: np.ndarray) -> dict:
    (M,) = require_same_shape(require_matrix(M), single="matrix files")
    d = {"n": int(M.shape[0]), "complex": bool(np.iscomplexobj(M) and np.any(M.imag != 0)),
         "data_re": M.real.tolist()}
    if d["complex"]:
        d["data_im"] = M.imag.tolist()
    return d


def _numbers(d: dict, key: str, n: int) -> np.ndarray:
    """A matrix file's ``key`` block as float64: n rows of n JSON numbers, a NaN or Infinity
    literal too (the finite rule refuses it where the matrix is used)."""
    if bad := [v for row in d[key] for v in row if not isinstance(v, Real) or isinstance(v, bool)]:
        raise ValueError(f"{key} entries must be JSON numbers, got {bad[0]!r}")
    if (X := np.array(d[key], np.float64)).shape != (n, n):
        raise ValueError(f"{key} has shape {X.shape}, expected ({n}, {n})")
    return X


def matrix_from_dict(d: Any) -> np.ndarray:
    if not isinstance(d, dict):
        raise ValueError("matrix file must contain a JSON object")
    try:
        n = require_integer(d["n"], "n", 1)
        is_complex = require_flag(d["complex"], "complex")
        if is_complex != ("data_im" in d):
            raise ValueError("complex matrix file is missing data_im" if is_complex else
                             "real matrix file must not carry data_im")
        re = _numbers(d, "data_re", n)
        return re + 1j * _numbers(d, "data_im", n) if is_complex else re
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc


def write_matrix(path, M: np.ndarray) -> None:
    write_text(path, dumps(matrix_to_dict(M)))   # serialized first: no empty file on error


def read_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return matrix_from_dict(data)


REPORT_COLUMNS = ("check_id", "trial", "verdict", "worst_margin", "seed")
LIMIT_COLUMNS = (
    "p", "err_spectral_mean", "err_sandwich", "trace_spectral", "trace_target",
)


def _csv_text(columns, rows) -> str:
    """A header line of ``columns``, then one line per row of string fields."""
    return ",".join(columns) + "\n" + "".join(",".join(fields) + "\n" for fields in rows)


def report_csv_text(outcomes) -> str:
    return _csv_text(REPORT_COLUMNS, ((o.check_id, str(o.trial), "true" if o.verdict else "false",
                                       format_float(o.worst_margin), str(o.seed)) for o in outcomes))


def limit_csv_text(rows) -> str:
    return _csv_text(LIMIT_COLUMNS, (map(format_float, row) for row in rows))


def sanitize(obj: Any) -> Any:
    """Make nested report data JSON-serializable (arrays become matrix dicts)."""
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return matrix_to_dict(obj)
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):   # Python's or numpy's: an infinity is null
        return None if math.isinf(obj) else float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
