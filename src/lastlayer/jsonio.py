"""Deterministic JSON and number formatting used by every file format.

All floats are written with 17 significant digits, which round-trips any
IEEE-754 double exactly and makes output files byte-reproducible across
runs.  Non-finite values are rejected at the boundary: no file produced
by this package ever contains NaN or Inf.
"""

from __future__ import annotations

import json
import math
from typing import Any


def format_float(x: float) -> str:
    """Render a double as a decimal literal that parses back bit-exactly;
    negative zero is written ``-0.0``, as ``-0`` would parse as the integer 0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def _render(obj: Any, indent: int | None, level: int) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + _render(v, indent, level + 1) for v in obj]
        return "[" + ",".join(items) + end + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(pad + json.dumps(key) + ": " + _render(value, indent, level + 1))
        return "{" + ",".join(items) + end + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialize to JSON with exact float round-trip and stable layout."""
    return _render(obj, indent, 0)


def dump(obj: Any, path: str) -> None:
    """Write ``dumps(obj, indent=2)`` and a newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=2))
        fh.write("\n")


def loads(text: str) -> Any:
    return json.loads(text)


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
