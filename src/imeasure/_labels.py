"""Every label of the two lattice objects is written and read here: subset
keys ("1,3,9") of entropy vectors, atom texts ("1 2' 3", an apostrophe marking
a complemented variable) and complemented lists ([2]) of the measure."""

from __future__ import annotations

import functools

from ._bits import check_var_count
from ._intake import expect, show

PIECE_VARS = 8  # variables per label piece
BAR = chr(0x0304)  # combining macron, rendered over the preceding digit
TEXTS, COMPLEMENTS, KEYS, TEXT_MASKS = range(4)  # the piece kinds, and the inverse of TEXTS


@functools.lru_cache(maxsize=None)  # keyed by piece bounds: a few dozen entries at most
def _piece(lo: int, hi: int) -> tuple[list, list, list, dict]:
    """Texts, complemented lists and keys of every mask c over lo..hi (bit i
    of c stands for lo + i), and the mask of every text.  Texts of a piece
    above 1 open with a space and nonempty keys with a comma, so that pieces
    concatenate."""
    vs = range(lo, hi + 1)
    lead = " " if lo > 1 and vs else ""
    flags = [[(c >> (v - lo)) & 1 for v in vs] for c in range(1 << len(vs))]
    comps = [[v for v, f in zip(vs, fs) if f] for fs in flags]
    texts = [lead + " ".join(f"{v}'" if f else str(v) for v, f in zip(vs, fs)) for fs in flags]
    return texts, comps, ["".join(f",{v}" for v in c) for c in comps], {t: c for c, t in enumerate(texts)}


def _write(n: int, masks, kind: int) -> list:
    """Label `kind` of every mask over 1..n: its pieces for 1..8, 9..16 and
    17..24 joined, each sum a new str or list."""
    check_var_count(n, 3 * PIECE_VARS)
    h = min(n, PIECE_VARS)
    low, m = _piece(1, h)[kind], (1 << h) - 1
    if n <= 2 * PIECE_VARS:
        high = _piece(h + 1, n)[kind]
        return [low[c & m] + high[c >> h] for c in masks]
    mid, high = _piece(h + 1, 2 * h)[kind], _piece(2 * h + 1, n)[kind]  # single atoms past 16 variables
    return [low[c & m] + mid[c >> h & m] + high[c >> 2 * h] for c in masks]


def subset_keys(n: int, masks) -> list[str]:
    """The key ("1,3,9") of every nonempty subset mask."""
    return [k[1:] for k in _write(n, masks, KEYS)]  # drop the opening comma


def atom_texts(n: int, cmasks) -> list[str]:
    """The text ("1 2' 3") of the atom of every complemented mask."""
    return _write(n, cmasks, TEXTS)


def atom_complements(n: int, cmasks) -> list[list[int]]:
    """The sorted complemented variables of every complemented mask."""
    return _write(n, cmasks, COMPLEMENTS)


def barred(text: str) -> str:
    """The display form of atom texts: a macron over each complemented variable."""
    return text.replace("'", BAR)


def _vertex(tok: str) -> int:
    """The vertex a token spells, by the one token rule: ASCII digits, so no
    sign, space, underscore or other script.  Any other token raises."""
    if tok.isascii() and tok.isdigit():
        return int(tok)  # past Python's digit limit this raises ValueError too
    raise ValueError(tok)


def subset_masks(keys: list, n: int, what: str) -> list[int]:
    """Masks of subset keys such as "1,3": vertices in 1..n, each named once.
    Repeats are looked for last, so a key with another fault names that one."""
    masks = []
    for key in keys:
        toks, m = key.split(","), 0
        for t in toks:
            try:
                v = _vertex(t)
            except ValueError:
                raise ValueError(f"{what} key {show(key)} is not a comma-separated vertex list") from None
            if not 1 <= v <= n:  # checked before the shift: a huge v would allocate a huge mask
                raise ValueError(f"{what} key {show(key)} names vertex {v} outside 1..{n}")
            m |= 1 << (v - 1)
        if m.bit_count() < len(toks):
            vs = [int(t) for t in toks]
            raise ValueError(f"{what} key {show(key)} names vertex {next(v for v in vs if vs.count(v) > 1)} twice")
        masks.append(m)
    return masks


def atom_mask(text, n: int | None = None) -> tuple[int, int]:
    """`n` and the complemented mask of an atom text in any form: each
    variable once in any order, complemented ones marked by trailing
    apostrophes or macrons, not all of them.  `n` defaults to the largest
    variable."""
    if not isinstance(text, str):
        raise ValueError(f"atom text must be a string, got {show(text)}")
    vs, comp = [], []
    for tok in text.split():
        digits = tok.rstrip("'" + BAR)
        try:
            vs.append(_vertex(digits))
        except ValueError:
            raise ValueError(f"bad atom token {tok!r}") from None
        if digits != tok:
            comp.append(vs[-1])
    nn = n if n is not None else max(vs, default=0)
    if len(vs) != nn or sorted(vs) != list(range(1, nn + 1)):  # the length first: no huge range
        raise ValueError(f"atom text {text!r} must list each variable 1..{nn} once")
    c = sum(1 << (v - 1) for v in comp)
    if nn and c == (1 << nn) - 1:  # the empty atom, in the words of Atom's own check
        raise ValueError(f"complemented mask 0b{c:b} must be a proper subset of 1..{nn}")
    return nn, c


def atom_cmasks(texts: list, n: int, what: str) -> list[int]:
    """Complemented masks of atom texts over 1..n, with the verdicts of
    `atom_mask`.  Library texts are read in bulk: split before " 9", a low
    and a high piece text, each looked up in a dict."""
    expect(texts, list, what)
    h = min(check_var_count(n, 2 * PIECE_VARS), PIECE_VARS)
    low, high = _piece(1, h)[TEXT_MASKS], _piece(h + 1, n)[TEXT_MASKS]
    try:
        parts = (str.partition(t, f" {PIECE_VARS + 1}") for t in texts)
        cmasks = [low[a] | high[s + b] << PIECE_VARS for a, s, b in parts]
        if max(cmasks, default=0) < (1 << n) - 1:
            return cmasks
    except (TypeError, KeyError):  # not a string, or not in the library's form
        pass
    return [atom_mask(t, n)[1] for t in texts]  # the first faulty text decides the message
