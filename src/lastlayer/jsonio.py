"""Deterministic JSON and number formatting used by every file format, and
the one reader and writer of the package's JSON documents.

All floats are written with 17 significant digits, which round-trips any
IEEE-754 double exactly and makes output files byte-reproducible across
runs.  Non-finite values are rejected at the boundary: no file produced
by this package ever contains NaN or Inf, and no document it reads may
hold one.

A document is read into a dataclass by ``from_doc`` and written from one
by ``to_doc``, both led by the dataclass's fields and their types.  The
config and the network document differ only in the noun their messages
use and in their key tables.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from typing import Annotated, Any, Union, get_args, get_origin, get_type_hints

import numpy as np


def format_float(x: float) -> str:
    """Render a double as a decimal literal that parses back bit-exactly;
    negative zero is written ``-0.0``, as ``-0`` would parse as the integer 0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def _render(obj: Any, indent: int | None, level: int) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
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


def check_format_version(version: Any, expected: int, what: str) -> None:
    """Refuse a document's ``format_version`` unless it is the integer
    ``expected`` itself: ``true`` and ``1.0`` equal 1 in Python, but are not
    a version this package writes."""
    if type(version) is not int or version != expected:
        raise ValueError(f"unsupported {what} format_version {version!r}")


def _is_number(value: Any) -> bool:
    """An int or a float, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a CSV column, selected by header name or by 0-based index
Column = Union[str, int]

# a float64 array field, spelt in a document as a list of numbers or as a
# matrix: a list of rows of numbers, every row as long as the first
Vector = Annotated[np.ndarray, list[float]]
Matrix = Annotated[np.ndarray, list[list[float]]]

# what a document's scalar of each type accepts, and how an error names it:
# 3.0 is an integer, but 2.9, true and "3" are not, and "false" is no boolean
_SCALARS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    Column: ("a column name or a 0-based index",
             lambda v: isinstance(v, str) or (_is_number(v) and isinstance(v, int) and v >= 0)),
}


class FieldError(ValueError):
    """A dataclass's refusal of the value of its field ``field``, which
    ``from_doc`` reports under that field's path in the document."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@contextmanager
def refused_as(field: str):
    """Re-raise a ValueError raised inside the ``with`` block as a
    ``FieldError`` of ``field``, with the same message."""
    try:
        yield
    except ValueError as err:
        raise FieldError(field, str(err)) from None


def _key(what: str, where: str) -> str:
    return f"{what} key {where!r}" if where else f"{what} document"


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where and key else where or key


def expect(value, kind: type, where: str, what: str):
    """``value`` when it is a ``kind`` (dict or list), else ValueError naming
    its path ``where`` in a ``what`` document, or the document itself."""
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise ValueError(f"{_key(what, where)} must be {noun}, got {value!r}")
    return value


def from_doc(cls, doc, where: str, what: str, keys: dict):
    """``cls`` read from the object ``doc`` at path ``where`` in a ``what``
    document.  ``keys`` spells each field by its name, except those it maps
    to a dotted key, which puts the value in a section of its own, or to
    "", which puts the fields of the field's dataclass in ``doc`` itself.
    A key that no field reads, a missing key of a field without a default,
    a value of the wrong kind and a value the dataclass refuses with a
    ``FieldError`` each raise ValueError naming the path."""
    doc = expect(doc, dict, where, what)
    hints = get_type_hints(cls, include_extras=True)
    paths = {f.name: keys.get(f.name, f.name) for f in fields(cls)}
    inline = {name: {keys.get(f.name, f.name) for f in fields(hints[name])}
              for name, path in paths.items() if not path}
    known = {path for path in paths.values() if path}.union(*inline.values())
    sections = {path.split(".")[0] for path in known if "." in path}
    for key, value in doc.items():
        subs = expect(value, dict, _join(where, key), what) if key in sections else [""]
        for path in (_join(key, sub) for sub in subs):
            if path not in known:
                raise ValueError(f"unknown {what} key {_join(where, path)!r}")
    kwargs = {}
    for f in fields(cls):
        section, _, key = paths[f.name].rpartition(".")
        source = doc.get(section, {}) if section else doc
        if not key:
            part = {k: v for k, v in doc.items() if k in inline[f.name]}
            kwargs[f.name] = from_doc(hints[f.name], part, where, what, keys)
        elif key in source:
            kwargs[f.name] = _value_from_doc(hints[f.name], source[key],
                                             _join(where, paths[f.name]), what, keys)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{_key(what, _join(where, paths[f.name]))} is missing")
    try:
        return cls(**kwargs)
    except FieldError as err:
        raise ValueError(f"{_key(what, _join(where, paths[err.field]))}: {err}") from None


def _value_from_doc(kind, value, where: str, what: str, keys: dict):
    """``value`` read as a ``kind``; a scalar that ``_SCALARS`` refuses, a
    non-finite float, or a row of a matrix that is not as long as its first
    raises ValueError naming its path ``where``.  An ``Optional`` kind takes
    None or a value of the kind it wraps."""
    if get_origin(kind) is Union and type(None) in get_args(kind):
        if value is None:
            return None
        (kind,) = [arg for arg in get_args(kind) if arg is not type(None)]
    if get_origin(kind) is Annotated:
        kind = get_args(kind)[1]
    if is_dataclass(kind):
        return from_doc(kind, value, where, what, keys)
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        items = []
        for i, v in enumerate(expect(value, list, where, what)):
            items.append(_value_from_doc(item, v, f"{where}[{i}]", what, keys))
            if get_origin(item) is list and len(items[i]) != len(items[0]):
                raise ValueError(f"{_key(what, f'{where}[{i}]')} must be a row of "
                                 f"{len(items[0])} entries, got {v!r}")
        return items
    noun, accepts = _SCALARS[kind]
    if not accepts(value):
        raise ValueError(f"{_key(what, where)} must be {noun}, got {value!r}")
    # NaN and +-inf fail this test, and so does an int too large for a float
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{_key(what, where)} must be finite, got {value!r}")
    return kind(value) if isinstance(kind, type) else value


def to_doc(obj, keys: dict) -> dict:
    """The document of the dataclass ``obj`` that ``from_doc`` reads back,
    spelt by the same ``keys``; an array is written as nested lists."""
    doc = {}
    for f in fields(obj):
        section, _, key = keys.get(f.name, f.name).rpartition(".")
        value = getattr(obj, f.name)
        target = doc.setdefault(section, {}) if section else doc
        target.update({key: _value_to_doc(value, keys)} if key else to_doc(value, keys))
    return doc


def _value_to_doc(value, keys: dict):
    if is_dataclass(value):
        return to_doc(value, keys)
    if isinstance(value, list):
        return [_value_to_doc(v, keys) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _unique_keys(pairs: list) -> dict:
    """An object's members; a repeated key, which ``json`` keeps the last of, raises."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def loads(text: str) -> Any:
    return _DECODER.decode(text)


def load(path: str) -> Any:
    """The JSON document in the file ``path``; text that is not valid JSON,
    or an object that repeats a key, raises ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
