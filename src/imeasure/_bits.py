"""Bitmask helpers for vertex sets, and the checks on counts and vertices read from JSON.

Vertices are 1-based; vertex i occupies bit i-1.  All set-valued quantities
in the hot paths are plain ints so that subset tests, unions and complements
are single machine operations.
"""

from __future__ import annotations

from typing import Iterable


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of 1-based vertices into a bitmask."""
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex {v} is not 1-based")
        m |= 1 << (v - 1)
    return m


def verts_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of 1-based vertices."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length())
        mask ^= b
    return tuple(out)


def iter_bits(mask: int):
    """Yield the individual one-bit masks of `mask`, lowest first."""
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def submasks(mask: int):
    """Yield every submask of `mask`, from `mask` itself down to 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def as_mask(vertices, n: int | None = None) -> int:
    """Coerce an int mask or an iterable of vertices to a mask.

    When `n` is given, reject vertices outside 1..n.
    """
    if isinstance(vertices, int):
        m = vertices
    else:
        m = mask_of(vertices)
    if n is not None and m & ~((1 << n) - 1):
        raise ValueError(f"vertex set 0b{m:b} exceeds universe 1..{n}")
    return m


def check_var_count(n: int, cap: int) -> int:
    """A variable count in 1..cap, checked before anything is allocated."""
    if not 1 <= n <= cap:
        raise ValueError(f"variable count {n} outside 1..{cap}")
    return n


def json_var_count(value, cap: int) -> int:
    """A variable count read from JSON: an int (not a bool or a float) in 1..cap."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"variable count must be an integer, got {value!r}")
    return check_var_count(value, cap)


def json_vertex_mask(values, n: int, field: str) -> int:
    """Mask of a JSON vertex list, each an int (not a bool or a float) in 1..n,
    checked before any shift; `field` names the list in messages."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list of vertices, got {values!r}")
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{field} holds {v!r}, not an integer vertex")
        if v < 1:
            raise ValueError(f"vertex {v} is not 1-based")
        if v > n:
            raise ValueError(f"vertex {v} exceeds universe 1..{n}")
    return mask_of(values)
