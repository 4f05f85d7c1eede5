"""Byte-stable JSON and CSV emission.

All reals are written with 17 significant digits so that files round-trip
double precision exactly and repeated runs are byte-identical. Dicts are
emitted in insertion order.
"""

import json

from .errors import ToolkitError


def format_real(x) -> str:
    """17-significant-digit decimal form of a float, always a JSON float."""
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s


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


def dump_fixed_items(items, fh, indent=2):
    """Write ``dumps_fixed(list(items))`` to the text file ``fh``, one item
    at a time, so the items need not all be held at once."""
    opening = "[\n"
    for item in items:
        fh.write(f"{opening}{' ' * indent}{_emit(item, indent, 1)}")
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")


def csv_cell(value) -> str:
    """Render one CSV cell: reals at 17 significant digits, bools lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


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
