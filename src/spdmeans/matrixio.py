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
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return f"{x:.17g}"


def _dump(value: Any, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _dump(v, indent + 2, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        flat = all(isinstance(v, (bool, int, float, str)) for v in seq)
        if flat:
            out.append("[" + ", ".join(_scalar(v) for v in seq) + "]")
        else:
            out.append("[\n")
            for i, v in enumerate(seq):
                out.append(pad + "  ")
                _dump(v, indent + 2, out)
                out.append(",\n" if i < len(seq) - 1 else "\n")
            out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
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
    out: list[str] = []
    _dump(obj, 0, out)
    out.append("\n")
    return "".join(out)


def matrix_to_dict(M: np.ndarray) -> dict:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    is_complex = bool(np.iscomplexobj(M) and np.any(M.imag != 0))
    d: dict[str, Any] = {
        "n": int(M.shape[0]),
        "complex": is_complex,
        "data_re": [[float(v) for v in row] for row in M.real],
    }
    if is_complex:
        d["data_im"] = [[float(v) for v in row] for row in M.imag]
    return d


def matrix_from_dict(d: Any) -> np.ndarray:
    if not isinstance(d, dict):
        raise ValueError("matrix file must contain a JSON object")
    try:
        n = int(d["n"])
        is_complex = bool(d["complex"])
        re = np.array(d["data_re"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix file: {exc}") from exc
    if re.shape != (n, n):
        raise ValueError(f"data_re has shape {re.shape}, expected ({n}, {n})")
    if is_complex:
        if "data_im" not in d:
            raise ValueError("complex matrix file is missing data_im")
        im = np.array(d["data_im"], dtype=float)
        if im.shape != (n, n):
            raise ValueError(f"data_im has shape {im.shape}, expected ({n}, {n})")
        return re + 1j * im
    if "data_im" in d:
        raise ValueError("real matrix file must not carry data_im")
    return re


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
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float,)) and math.isinf(obj):
        return None
    return obj


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
