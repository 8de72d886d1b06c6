"""Atoms of the set-variable field, independency images, and their inverses.

An atom over variables 1..n intersects every set variable either plainly or
complemented; it is identified by the mask of complemented indices.  The one
atom with everything complemented is empty and excluded, so there are 2^n - 1
atoms.  Independency statements and graphs both project to sets of atoms
("images"); this module computes those images and recovers the originating
statement or graph from them.
Atom sets convert to numpy flag vectors and back (`AtomSet.flags`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import _intake as intake
from ._bits import as_mask, check_var_count, iter_bits, submasks, verts_of
from ._labels import atom_complements, atom_mask, atom_texts, barred
from .graphs import MAX_ATOM_VARS, MAX_VERTICES, Graph

if TYPE_CHECKING:  # numpy is imported where an array is built
    import numpy as np


class NotAnFcmiImage(ValueError):
    """Raised when an atom set is not the image of any independency."""


@dataclass(frozen=True, order=True)
class Atom:
    """One atom, identified by the mask of complemented variables.

    The complemented mask must leave at least one variable plain.
    """

    n: int
    complemented: int  # bitmask; bit i-1 set means variable i is complemented

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.n < 1:
            raise ValueError("atom needs at least one variable")
        if not 0 <= self.complemented < full:
            raise ValueError(
                f"complemented mask 0b{self.complemented:b} must be a proper subset of 1..{self.n}"
            )

    @classmethod
    def of(cls, n: int, complemented: Iterable[int]) -> "Atom":
        return cls(n, as_mask(complemented, n))

    @property
    def support_mask(self) -> int:
        """Mask of plain (non-complemented) variables; the atom lies inside each."""
        return ((1 << self.n) - 1) & ~self.complemented

    @property
    def support(self) -> frozenset[int]:
        return frozenset(verts_of(self.support_mask))

    @property
    def complemented_set(self) -> frozenset[int]:
        return frozenset(verts_of(self.complemented))

    @property
    def weight(self) -> int:
        return self.n - self.complemented.bit_count()

    def __str__(self):
        return barred(self.to_text())

    def to_text(self) -> str:
        """ASCII rendering: complemented variables carry a trailing apostrophe."""
        return atom_texts(self.n, [self.complemented])[0]

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "Atom":
        """Parse "1 2' 3" (apostrophe) or the macron form produced by str()."""
        return cls(*atom_mask(text, n))

    def to_json(self) -> dict:
        return {"n": self.n, "complemented": atom_complements(self.n, [self.complemented])[0]}

    @classmethod
    def from_json(cls, d: dict) -> "Atom":
        n, comp = intake.fields(d, "atom JSON", "n", "complemented")
        n = intake.var_count(n, MAX_VERTICES)
        return cls(n, intake.vertex_mask(comp, n, "atom JSON field 'complemented'"))


def all_atoms(n: int) -> Iterator[Atom]:
    """All 2^n - 1 atoms, in increasing complemented-mask order."""
    check_var_count(n, MAX_ATOM_VARS)
    for c in range((1 << n) - 1):
        yield Atom(n, c)


@dataclass(frozen=True)
class FCMI:
    """A conditional mutual independency (given; groups).

    The groups are mutually independent conditioned on the given set.  The
    statement is *full* when given + groups partition 1..n; partial statements
    (the union being a proper subset) are allowed and flagged by `is_full`.
    """

    n: int
    given: int  # mask of the conditioning set
    groups: tuple[int, ...]  # masks of the independent blocks

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.given & ~full:
            raise ValueError("conditioning set outside 1..n")
        if len(self.groups) < 2:
            raise ValueError("an independency needs at least two groups")
        seen = self.given
        for q in self.groups:
            if q == 0:
                raise ValueError("empty independency group")
            if q & ~full:
                raise ValueError("group outside 1..n")
            if q & seen:
                raise ValueError("given set and groups must be pairwise disjoint")
            seen |= q
        object.__setattr__(self, "groups", tuple(sorted(self.groups)))

    @classmethod
    def of(cls, n: int, given: Iterable[int], groups: Sequence[Iterable[int]]) -> "FCMI":
        return cls(n, as_mask(given, n), tuple(as_mask(q, n) for q in groups))

    @property
    def scope(self) -> int:
        """Mask of every variable mentioned by the statement."""
        m = self.given
        for q in self.groups:
            m |= q
        return m

    @property
    def is_full(self) -> bool:
        return self.scope == (1 << self.n) - 1

    @property
    def given_set(self) -> frozenset[int]:
        return frozenset(verts_of(self.given))

    @property
    def group_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(verts_of(q)) for q in self.groups)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "T": sorted(self.given_set),
            "Q": [sorted(s) for s in self.group_sets],
        }

    @classmethod
    def from_json(cls, d: dict) -> "FCMI":
        n, given, groups = intake.fields(d, "independency JSON", "n", "T", "Q")
        n = intake.var_count(n, MAX_ATOM_VARS)
        given = intake.vertex_mask(given, n, "independency JSON field 'T'")
        return cls(n, given, tuple(intake.vertex_lists(groups, n, "independency JSON field 'Q'").tolist()))


class AtomSet:
    """A set of atoms over a common n, stored as one big-int bitset.

    Bit c is set iff the atom whose complemented mask equals c is a member,
    giving O(1) membership and whole-set operations as integer arithmetic.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        check_var_count(n, MAX_ATOM_VARS)
        if bits >> ((1 << n) - 1):
            raise ValueError("bitset contains indices outside the atom range")
        self.n = n
        self.bits = bits

    @classmethod
    def of(cls, n: int, atoms: Iterable[Atom]) -> "AtomSet":
        bits = 0
        for a in atoms:
            if a.n != n:
                raise ValueError(f"atom over {a.n} variables in a set over {n}")
            bits |= 1 << a.complemented
        return cls(n, bits)

    @classmethod
    def from_flags(cls, n: int, flags: np.ndarray) -> "AtomSet":
        """The atoms c with flags[c] true, from a bool vector over the 2^n - 1 complemented masks."""
        import numpy as np

        check_var_count(n, MAX_ATOM_VARS)
        if flags.shape != ((1 << n) - 1,):
            raise ValueError(f"atom flags must have 2^{n} - 1 entries")
        return cls(n, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"))

    def flags(self) -> np.ndarray:
        """Bool vector over the 2^n - 1 complemented masks; inverse of from_flags."""
        import numpy as np

        size = (1 << self.n) - 1
        raw = np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=size, bitorder="little").view(bool)

    def cmasks(self) -> list[int]:
        """Complemented masks of the members, ascending."""
        import numpy as np

        return np.flatnonzero(self.flags()).tolist()

    def __contains__(self, a: Atom) -> bool:
        return a.n == self.n and (self.bits >> a.complemented) & 1 == 1

    def has_cmask(self, c: int) -> bool:
        return (self.bits >> c) & 1 == 1

    def __iter__(self) -> Iterator[Atom]:
        for b in iter_bits(self.bits):
            yield Atom(self.n, b.bit_length() - 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other):
        return isinstance(other, AtomSet) and self.n == other.n and self.bits == other.bits

    def __hash__(self):
        return hash((self.n, self.bits))

    def _coerce(self, other: "AtomSet") -> int:
        if self.n != other.n:
            raise ValueError("atom sets over different variable counts")
        return other.bits

    def __or__(self, other):
        return AtomSet(self.n, self.bits | self._coerce(other))

    def __and__(self, other):
        return AtomSet(self.n, self.bits & self._coerce(other))

    def __sub__(self, other):
        return AtomSet(self.n, self.bits & ~self._coerce(other))

    def issubset(self, other: "AtomSet") -> bool:
        return self.bits & ~self._coerce(other) == 0

    def __repr__(self):
        return f"AtomSet(n={self.n}, atoms=[{', '.join(atom_texts(self.n, self.cmasks()))}])"

    def to_json(self) -> dict:
        return {"n": self.n, "atoms": atom_complements(self.n, self.cmasks())}

    @classmethod
    def from_json(cls, d: dict) -> "AtomSet":
        """Read {"n", "atoms"}, each atom a list of its complemented vertices
        in any order, repeats allowed; an atom may be listed more than once."""
        import numpy as np

        n, rows = intake.fields(d, "atom set JSON", "n", "atoms")
        n = intake.var_count(n, MAX_ATOM_VARS)
        full = (1 << n) - 1
        masks = intake.vertex_lists(rows, n, "atom set JSON field 'atoms'", each=functools.partial(Atom, n))
        if (masks == full).any():
            Atom(n, full)  # the all-complemented atom is empty: raises
        flags = np.zeros(full, dtype=bool)
        flags[masks] = True
        return cls.from_flags(n, flags)


class AtomType(Enum):
    TYPE_I = 1
    TYPE_II = 2


# -- images ----------------------------------------------------------------


def image_of_fcmi(k: FCMI) -> AtomSet:
    """Atoms that must vanish for a full independency to hold.

    An atom belongs to the image iff its plain variables avoid the given set
    and touch at least two of the groups.
    """
    if not k.is_full:
        raise ValueError("image_of_fcmi needs a full statement; use image_of_partial")
    check_var_count(k.n, MAX_ATOM_VARS)
    full = (1 << k.n) - 1
    bits = 0
    for w in submasks(full & ~k.given):  # supports avoiding the given set
        if sum(1 for q in k.groups if w & q) >= 2:
            bits |= 1 << (full & ~w)
    return AtomSet(k.n, bits)


def image_of_partial(k: FCMI) -> list[AtomSet]:
    """Expand a partial independency into per-part atom sets.

    Each prescribed set (one per admissible choice of group subsets) is not an
    atom when the statement's scope misses variables; it expands to the atoms
    whose support is the chosen support extended by any subset of the missing
    variables.  For a full statement each part is the single prescribed atom.
    """
    check_var_count(k.n, MAX_ATOM_VARS)
    full = (1 << k.n) - 1
    outside = full & ~k.scope
    parts = []
    for choice in itertools.product(*(list(submasks(q)) for q in k.groups)):
        if sum(1 for w in choice if w) < 2:
            continue
        base = 0
        for w in choice:
            base |= w
        bits = 0
        for ext in submasks(outside):
            bits |= 1 << (full & ~(base | ext))
        parts.append(AtomSet(k.n, bits))
    parts.sort(key=lambda s: s.bits)
    return parts


def recover_fcmi(img: AtomSet) -> FCMI:
    """Invert image_of_fcmi.

    The unique maximum-weight atom pins down the conditioning set; the groups
    are then the classes of the pair relation "the atom supported exactly by
    {l, l'} is absent from the image", read as the components of
    recover_graph(img) outside that set.  The relation must come out transitive
    and the reconstructed statement must reproduce the input image exactly,
    otherwise the input is not an image and NotAnFcmiImage is raised.
    """
    n = img.n
    full = (1 << n) - 1
    if len(img) == 0:
        raise NotAnFcmiImage("empty atom set")
    best_w = max(a.weight for a in img)
    best = [a for a in img if a.weight == best_w]
    if len(best) != 1:
        raise NotAnFcmiImage(f"no unique maximum-weight atom (found {len(best)})")
    given = best[0].complemented
    rest = verts_of(full & ~given)
    if len(rest) < 2:
        raise NotAnFcmiImage("fewer than two variables outside the conditioning set")

    related = recover_graph(img)  # edge iff the pair's private atom is absent
    groups = related.component_masks(given)
    group_of = {v: i for i, q in enumerate(groups) for v in verts_of(q)}
    # transitivity check: within one class every pair must be related
    for l, lp in itertools.combinations(rest, 2):
        if (group_of[l] == group_of[lp]) != related.has_edge(l, lp):
            raise NotAnFcmiImage(f"pair relation not transitive at ({l},{lp})")
    if len(groups) < 2:
        raise NotAnFcmiImage("relation merges everything into one group")

    k = FCMI(n, given, tuple(groups))
    if image_of_fcmi(k) != img:
        raise NotAnFcmiImage("atom set is not the image of the reconstructed statement")
    return k


def type_of_atom(g: Graph, a: Atom) -> AtomType:
    """Type I when dropping the atom's complemented vertices leaves g connected."""
    if a.n != g.n:
        raise ValueError(f"atom over {a.n} variables against graph on {g.n}")
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("atom typing needs a graph on the full universe 1..n")
    return AtomType.TYPE_I if g.connected_table()[a.complemented] else AtomType.TYPE_II


def image_of_graph(g: Graph) -> AtomSet:
    """All atoms whose complemented set is a cutset (the graph's image)."""
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("image needs a graph on the full universe 1..n")
    check_var_count(g.n, MAX_ATOM_VARS)
    return AtomSet.from_flags(g.n, ~g.connected_table()[:-1])


def recover_graph(img: AtomSet) -> Graph:
    """Start from the complete graph and drop every pair whose private atom is present.

    The private atom of a pair {u, v} is the one supported by exactly u and v.
    On a genuine graph image this inverts image_of_graph.
    """
    n = img.n
    full = (1 << n) - 1
    edges = []
    for u, v in itertools.combinations(range(1, n + 1), 2):
        pair = (1 << (u - 1)) | (1 << (v - 1))
        if not img.has_cmask(full & ~pair):
            edges.append((u, v))
    return Graph(n, edges)


def image_of_collection(pi: Iterable[FCMI]) -> AtomSet:
    """Union of the images of a collection of full independencies."""
    out: AtomSet | None = None
    for k in pi:
        im = image_of_fcmi(k)
        out = im if out is None else out | im
    if out is None:
        raise ValueError("empty independency collection")
    return out


def implies(pi1: Sequence[FCMI], pi2: Sequence[FCMI]) -> bool:
    """Whether every consequence of pi2 already follows from pi1 (image containment)."""
    return image_of_collection(pi2).issubset(image_of_collection(pi1))
