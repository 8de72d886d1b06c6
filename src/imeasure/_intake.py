"""Reading JSON inputs: every `from_json` and every CLI input reads through here
(subset keys and atom texts through `_labels`), by the rules under "Input rules"
in README.md.  A fault raises ValueError with a one-line message: CLI exit 2."""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from typing import TYPE_CHECKING

from ._bits import as_mask, check_var_count

if TYPE_CHECKING:  # numpy is imported where an array is built
    import numpy as np

show = reprlib.repr  # bounded depth and length: a message never recurses or grows with its input


def loads(text: str, source: str = "JSON text"):
    """The JSON value of a string; `source` names it in messages."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply") from None
    except ValueError as e:  # malformed text, or an integer past Python's digit limit
        raise ValueError(f"{source}: malformed JSON ({e})") from None


def load(path: str):
    """The JSON value of a UTF-8 file."""
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), repr(path))


def int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers from the command line, such as "1,2,5"."""
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise ValueError(f"bad {what} {show(text)}: comma-separated integers expected") from None


def expect(value, kind: type, what: str):
    """`value`, which must be a JSON list (`kind` list) or object (dict)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {'a list' if kind is list else 'an object'}, got {type(value).__name__}")
    return value


def fields(d, what: str, *names: str) -> tuple:
    """The named fields of a JSON object."""
    expect(d, dict, what)
    for name in names:
        if name not in d:
            raise ValueError(f"{what} missing field {name!r}")
    return tuple(d[name] for name in names)


def columns(rows, what: str, *names: str) -> tuple[list, ...]:
    """The named fields of every object in a JSON list, one list per name."""
    try:
        return tuple([r[name] for r in expect(rows, list, what)] for name in names)
    except (KeyError, TypeError):
        raise ValueError(f"{what} entries must be objects with fields {', '.join(map(repr, names))}") from None


def var_count(value, cap: int) -> int:
    """A variable count: an int (not a bool or a float) in 1..cap."""
    if type(value) is not int:
        raise ValueError(f"variable count must be an integer, got {show(value)}")
    return check_var_count(value, cap)


def vertex_mask(values, n: int, what: str) -> int:
    """Mask of a JSON vertex list, each an int (not a bool or a float) in 1..n."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of vertices, got {show(values)}")
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} holds {show(v)}, not an integer vertex")
    return as_mask(values, n)


def vertex_lists(rows, n: int, what: str, each=None) -> np.ndarray:
    """Masks of a JSON list of vertex lists, read in bulk.  On a fault the
    lists are read one by one, each mask passed to `each`, so the first
    faulty list decides the message."""
    import numpy as np

    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{what} must be a list of vertex lists")
    flat = list(itertools.chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int} or (flat and not 1 <= min(flat) <= max(flat) <= n):
        for r in rows:
            m = vertex_mask(r, n, what)
            if each is not None:
                each(m)
    hit = np.zeros((len(rows), n), dtype=bool)
    hit[np.repeat(np.arange(len(rows)), [len(r) for r in rows]), np.array(flat, dtype=np.intp) - 1] = True
    return hit @ (1 << np.arange(n))


def lattice_table(d, what: str, field: str, noun: str, masks_of, cap: int) -> tuple[int, float, np.ndarray]:
    """`n`, `base` and the 2^n-entry table of an entropy or measure JSON, whose
    `field` maps a key for every subset or atom (`masks_of` reads the keys) to
    its value; each must be named exactly once."""
    import numpy as np

    n, base, values = fields(d, f"{what} JSON", "n", "base", field)
    n = var_count(n, cap)
    keys = list(expect(values, dict, f"{what} JSON field {field!r}"))
    masks = masks_of(keys, n, f"{what} JSON")
    table = np.zeros(1 << n)
    table[masks] = numbers(list(values.values()), what, lambda i: f"{noun} {keys[i]}")
    if len(set(masks)) != len(masks):
        first: dict[int, str] = {}
        for m, key in zip(masks, keys):
            if first.setdefault(m, key) != key:
                raise ValueError(f"{what} JSON keys {first[m]!r} and {key!r} name the same {noun}")
    if len(masks) != (1 << n) - 1:
        raise ValueError(f"{what} JSON must name all {(1 << n) - 1} {noun}s, got {len(masks)}")
    return n, numbers([base], "log base", lambda i: f"{what} JSON field 'base'")[0], table


def finite(value, what: str, low: float, above: bool = False) -> float:
    """A finite number >= `low`, or > `low` when `above`; NaN fails both tests."""
    value = float(value)
    if not (value > low if above else value >= low) or value == math.inf:
        raise ValueError(f"{what} must be a finite number {'above' if above else '>='} {low:g}, got {value}")
    return value


def check_finite(table: np.ndarray, what: str, where) -> None:
    """Reject a table holding NaN or an infinity; `where(i)` places entry i."""
    import numpy as np

    bad = ~np.isfinite(table)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"non-finite {what} {table[i]} at {where(i)}")


def numbers(values: list, what: str, where) -> np.ndarray:
    """Finite JSON numbers (ints or floats, not bools or strings) as a float array."""
    import numpy as np

    if not set(map(type, values)) <= {int, float}:
        i, v = next((i, v) for i, v in enumerate(values) if type(v) not in (int, float))
        try:  # a string such as "NaN" names a non-finite value: say so
            lead = "" if math.isfinite(float(v)) else "non-finite "
        except (TypeError, ValueError):
            lead = ""
        raise ValueError(f"{lead}{what} {show(v)} at {where(i)} is a {type(v).__name__}, not a number")
    try:
        table = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"an integer {what} is too large to convert to float") from None
    check_finite(table, what, where)
    return table

