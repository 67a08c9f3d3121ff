"""Canonical JSON and CSV emission.

All numeric output is printed with 17 significant digits so parsing it back
and re-serializing reproduces byte-identical text.  Dict key order is the
construction order; complex values are emitted as [re, im] pairs by the
callers before they reach this module.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["canonical_json", "csv_lines", "complex_pair"]


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite value in canonical output")
    if x == 0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # "-0" would parse back as the integer 0
    return f"{x:.17g}"


def _emit(obj: Any) -> str:
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON with 17-significant-digit floats, one trailing newline."""
    return _emit(obj) + "\n"


def csv_lines(header: list[str], rows: list[list[Any]]) -> str:
    """Minimal CSV with the same float discipline as the JSON writer."""
    def cell(v: Any) -> str:
        if isinstance(v, float):
            return _fmt_float(v)
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
