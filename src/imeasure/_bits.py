"""Bitmask helpers for vertex sets, and the range checks on counts and vertices.

Vertices are 1-based; vertex i occupies bit i-1.  All set-valued quantities
in the hot paths are plain ints so that subset tests, unions and complements
are single machine operations.
"""

from __future__ import annotations


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


def as_mask(vertices, n: int | None = None) -> int:
    """Coerce an int mask or an iterable of vertices to a mask.

    When `n` is given, reject vertices outside 1..n, each before its shift.
    """
    if isinstance(vertices, int):
        if n is not None and vertices & ~((1 << n) - 1):
            raise ValueError(f"vertex set 0b{vertices:b} exceeds universe 1..{n}")
        return vertices
    m = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex {v} is not 1-based")
        if n is not None and v > n:
            raise ValueError(f"vertex {v} exceeds universe 1..{n}")
        m |= 1 << (v - 1)
    return m


def check_var_count(n: int, cap: int) -> int:
    """A variable count in 1..cap, checked before anything is allocated."""
    if not 1 <= n <= cap:
        raise ValueError(f"variable count {n} outside 1..{cap}")
    return n
