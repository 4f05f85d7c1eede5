"""Byte-stable JSON and CSV emission.

All reals are written with 17 significant digits so that files round-trip
double precision exactly and repeated runs are byte-identical. Dicts are
emitted in insertion order.
"""

import json

import numpy as np

from .errors import ToolkitError


def format_real(x) -> str:
    """17-significant-digit decimal form of a float, always a JSON float:
    ``format_reals`` of the one value."""
    return format_reals([float(x)])[0]


def format_reals(values) -> list:
    """The 17-significant-digit decimal form of each float in ``values``,
    with ".0" added where it would read as an integer, so each is a JSON
    float; one pass over the list, which a table's columns take, as a call
    per cell would cost more."""
    texts = [format(v, ".17g") for v in values]
    return [s if "." in s or "e" in s or "E" in s or "n" in s else s + ".0" for s in texts]


def _emit(obj, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_real(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_emit(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_emit(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_fixed(obj, indent=2) -> str:
    """Deterministic JSON text (trailing newline included)."""
    return _emit(obj, indent, 0) + "\n"


class RowWriter:
    """Writes a table to the text file ``fh`` a block of rows at a time:
    as CSV (a header row of ``names``, then one comma-delimited line per
    row), or as the bytes ``dumps_fixed`` gives for the list of rows as
    dicts keyed by ``names``. No name or cell may need CSV quoting.

    ``write`` takes one block's columns and formats each in one pass: a
    float array as ``format_real``, a bool array as true/false, an integer
    array as digits, a str array as is (in JSON as a string). A column given
    as a pair (values, where) holds values only for the rows where the bool
    array ``where`` is true, in row order; its other cells are empty in CSV
    and null in JSON. ``close`` ends the JSON list.
    """

    def __init__(self, fh, names, fmt: str):
        self._fh = fh
        self._json = fmt == "json"
        self._rows = 0
        if self._json:
            keys = (json.dumps(name).replace("{", "{{").replace("}", "}}") for name in names)
            self._template = "  {{\n" + ",\n".join(f"    {key}: {{}}" for key in keys) + "\n  }}"
        else:
            fh.write(",".join(names) + "\n")

    def _cells(self, column) -> list:
        values, where = column if isinstance(column, tuple) else (column, None)
        kind = values.dtype.kind
        if kind == "f":
            texts = format_reals(values.tolist())
        elif kind == "b":
            texts = np.where(values, "true", "false").tolist()
        elif kind in "iu":
            texts = [str(v) for v in values.tolist()]
        else:
            texts = values.tolist()
            if self._json:
                quoted = {text: json.dumps(text) for text in set(texts)}
                texts = [quoted[text] for text in texts]
        if where is None or where.all():
            return texts
        cells = np.full(where.shape, "null" if self._json else "", dtype=object)
        cells[where] = texts
        return cells.tolist()

    def write(self, columns) -> None:
        cells = [self._cells(column) for column in columns]
        n = len(cells[0])
        if not n:
            return
        if self._json:
            opening = ",\n" if self._rows else "[\n"
            self._fh.write(opening + ",\n".join(map(self._template.format, *cells)))
        else:
            self._fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        self._rows += n

    def close(self) -> None:
        if self._json:
            self._fh.write("\n]\n" if self._rows else "[]\n")


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (an int, not a bool), else TypeError.

    Input files must spell counts and dimensions as integers: ``int()`` would
    truncate 3.7 to 3 and read "3" or true as valid.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name!r} must be an integer, got {value!r}")
    return value


def json_real(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (an int or float, not a
    bool), else TypeError; OverflowError for an int beyond the float range.

    ``float()`` alone would read "1", "nan" and true as numbers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name!r} must be a number, got {value!r}")
    return float(value)


def json_complex(pair, name: str) -> complex:
    """A JSON ``[re, im]`` pair, exactly two numbers as ``json_real`` reads
    them, as a complex, else TypeError (or OverflowError)."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise TypeError(f"{name!r} must be an [re, im] pair of numbers, got {pair!r}")
    return complex(json_real(pair[0], name), json_real(pair[1], name))


def load_json(path):
    """Parse a JSON file, raising ToolkitError for text that is not valid JSON.

    ``json.load`` signals bad text with ``ValueError`` (``JSONDecodeError``,
    undecodable bytes, integer literals beyond the interpreter's digit limit)
    and too-deep nesting with ``RecursionError``.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ToolkitError(f"malformed JSON in {path}: {exc}") from exc
