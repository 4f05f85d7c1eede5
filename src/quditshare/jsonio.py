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


def csv_cell(value) -> str:
    """Render one CSV cell: reals at 17 significant digits, bools lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


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
