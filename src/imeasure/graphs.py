"""Undirected graphs on vertices 1..n with bitmask connectivity primitives.

Every atom query asks whether G minus a vertex set U is connected; a lazily
built numpy table per graph (`Graph.connected_table`) answers it for all 2^n
sets U, and single queries walk the adjacency masks.  Graphs are immutable;
removing vertices keeps the original labels rather than compacting them,
which keeps atom indices stable when a graph shrinks.
"""

from __future__ import annotations

import itertools
import json
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from . import _intake as intake
from ._bits import as_mask, iter_bits, verts_of

if TYPE_CHECKING:  # numpy is imported where an array is built
    import numpy as np

MAX_VERTICES = 24
MAX_ATOM_VARS = 16  # tables over all 2^n vertex sets; atom enumeration shares the cap


class ShapeLabel(str, Enum):
    PATH = "path"
    CYCLE = "cycle"
    TREE = "tree"
    FOREST_OF_PATHS = "forest_of_paths"
    BRANCHING = "branching"  # some vertex has degree >= 3
    OTHER = "other"


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    `n` bounds the label space (vertices are 1..n); `vertices` is the actual
    vertex universe, which is a subset of 1..n after removals.  No self-loops,
    no multi-edges, no direction.
    """

    __slots__ = ("n", "vmask", "edges", "_adj", "_ctable", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), vertices=None):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        full = (1 << n) - 1
        vmask = full if vertices is None else as_mask(vertices, n)
        eset = set()
        adj = [0] * (n + 1)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            if not (vmask >> (u - 1)) & 1 or not (vmask >> (v - 1)) & 1:
                raise ValueError(f"edge ({u},{v}) touches a removed vertex")
            eset.add(_norm_edge(u, v))
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        self.n = n
        self.vmask = vmask
        self.edges = frozenset(eset)
        self._adj = tuple(adj)
        self._ctable = None
        self._hash = hash((n, vmask, self.edges))

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, itertools.combinations(range(1, n + 1), 2))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, ((i, i + 1) for i in range(1, n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.vmask == other.vmask
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, vertices={verts_of(self.vmask)}, edges={sorted(self.edges)})"

    # -- basic queries -----------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return verts_of(self.vmask)

    def adjacency(self, v: int) -> int:
        """Neighbor mask of vertex v (restricted to the current universe)."""
        if not 1 <= v <= self.n:  # _adj[0] is padding, and a negative v would count from the end
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self.adjacency(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    # -- connectivity ------------------------------------------------------

    def _spread(self, seed: int, allowed: int) -> int:
        """Close `seed` under adjacency inside `allowed`, expanding each vertex once."""
        adj = self._adj
        cur = frontier = seed & allowed
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= adj[b.bit_length()]
                frontier ^= b
            frontier = reach & allowed & ~cur
            cur |= frontier
        return cur

    def component_masks(self, removed=0) -> list[int]:
        """Vertex masks of the components of G minus `removed`, by min label."""
        rm = as_mask(removed, self.n)
        rem = self.vmask & ~rm
        out = []
        while rem:
            comp = self._spread(rem & -rem, rem)
            out.append(comp)
            rem &= ~comp
        return out

    def components(self, removed=0) -> list[frozenset[int]]:
        """Components of G minus the vertex set `removed`."""
        return [frozenset(verts_of(c)) for c in self.component_masks(removed)]

    def component_count(self, removed=0) -> int:
        """Number of components of G minus `removed`."""
        return len(self.component_masks(removed))

    def is_cutset(self, removed) -> bool:
        """True iff removing the set disconnects what is left (s(U) > 1)."""
        rem = self.vmask & ~as_mask(removed, self.n)
        return self._spread(rem & -rem, rem) != rem

    def is_connected(self) -> bool:
        return not self.is_cutset(0)

    def connected_table(self) -> np.ndarray:
        """Read-only bool table, built once: entry U says whether G minus U has
        at most one component.  Neighbour unions `nu[m] = nu[m - top] | adj[top]`,
        then spread rounds from the lowest remaining vertex of every U at once.
        """
        if self._ctable is None:
            import numpy as np

            if self.n > MAX_ATOM_VARS:
                raise ValueError(f"connectivity tables support up to {MAX_ATOM_VARS} vertices, got {self.n}")
            nu = np.zeros(1 << self.n, dtype=np.int32)
            for v in range(self.n):
                nu[1 << v : 2 << v] = nu[: 1 << v] | self._adj[v + 1]
            rem = self.vmask & ~np.arange(1 << self.n, dtype=np.int32)
            prev, cur = None, rem & -rem
            while not np.array_equal(prev, cur):
                prev, cur = cur, (cur | nu[cur]) & rem
            self._ctable = cur == rem
            self._ctable.flags.writeable = False
        return self._ctable

    def remove(self, removed) -> "Graph":
        """Drop a vertex set and all incident edges, keeping original labels."""
        rm = as_mask(removed, self.n)
        keep = self.vmask & ~rm
        edges = [
            (u, v)
            for u, v in self.edges
            if (keep >> (u - 1)) & 1 and (keep >> (v - 1)) & 1
        ]
        return Graph(self.n, edges, vertices=keep)

    def neighbor_mask(self, of) -> int:
        """Mask form of `neighbor_set`."""
        m = as_mask(of, self.n)
        out = 0
        for b in iter_bits(m & self.vmask):
            out |= self._adj[b.bit_length()]
        return out & ~m

    def neighbor_set(self, of) -> frozenset[int]:
        """All vertices outside the set adjacent to some vertex inside it."""
        return frozenset(verts_of(self.neighbor_mask(of)))

    def relabel(self, mapping: dict[int, int], n: int | None = None) -> "Graph":
        """Apply a vertex relabeling; `mapping` must cover every vertex injectively."""
        new_n = self.n if n is None else n
        images = [mapping[v] for v in self.vertices]
        if len(set(images)) != len(images):
            raise ValueError("relabeling maps two vertices to the same label")
        return Graph(
            new_n,
            [(mapping[u], mapping[v]) for u, v in self.edges],
            vertices=as_mask(images, new_n),
        )

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        d = {"n": self.n, "edges": sorted([u, v] for u, v in self.edges)}
        if self.vmask != (1 << self.n) - 1:
            d["vertices"] = list(self.vertices)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Graph":
        n, edges = intake.fields(d, "graph JSON", "n", "edges")
        n = intake.var_count(n, MAX_VERTICES)
        for e in intake.expect(edges, list, "graph JSON field 'edges'"):
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
                raise ValueError(f"graph JSON field 'edges' holds {intake.show(e)}, not a pair of integer vertices")
        vs = d.get("vertices")
        vmask = None if vs is None else intake.vertex_mask(vs, n, "graph JSON field 'vertices'")
        return cls(n, [tuple(e) for e in edges], vertices=vmask)

    def to_dot(self, name: str = "g") -> str:
        lines = [f"graph {name} {{"]
        lines += [f"  {v};" for v in self.vertices]
        lines += [f"  {u} -- {v};" for u, v in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def clique_edges(vertices) -> frozenset[tuple[int, int]]:
    """All unordered pairs within a vertex set (empty for fewer than 2)."""
    vs = verts_of(vertices) if isinstance(vertices, int) else sorted(set(vertices))
    return frozenset(itertools.combinations(vs, 2))


def _is_path_component(g: Graph, comp_mask: int) -> bool:
    vs = verts_of(comp_mask)
    ecount = sum(1 for u, v in g.edges if (comp_mask >> (u - 1)) & 1 and (comp_mask >> (v - 1)) & 1)
    if ecount != len(vs) - 1:  # acyclic + connected
        return False
    return all(g.degree(v) <= 2 for v in vs)


def classify_shape(g: Graph) -> frozenset[ShapeLabel]:
    """All shape labels that apply to a graph.

    A connected graph with max degree <= 2 is a path (single vertices count)
    or, when every degree is exactly 2, a cycle; connected acyclic graphs are
    trees; two or more components that are all paths form a forest of paths;
    any vertex of degree >= 3 earns the branching label.
    """
    labels = set()
    vs = g.vertices
    if not vs:
        return frozenset({ShapeLabel.OTHER})
    degs = [g.degree(v) for v in vs]
    comps = g.component_masks(0)
    acyclic = len(g.edges) == len(vs) - len(comps)
    if max(degs) >= 3:
        labels.add(ShapeLabel.BRANCHING)
    if len(comps) == 1:
        if acyclic:
            labels.add(ShapeLabel.TREE)
            if max(degs) <= 2:
                labels.add(ShapeLabel.PATH)
        elif all(d == 2 for d in degs):
            labels.add(ShapeLabel.CYCLE)
    elif all(_is_path_component(g, c) for c in comps):
        labels.add(ShapeLabel.FOREST_OF_PATHS)
    return frozenset(labels) if labels else frozenset({ShapeLabel.OTHER})


def maximal_cliques(g: Graph) -> list[int]:
    """Vertex masks of all maximal cliques (Bron-Kerbosch with pivoting)."""
    out: list[int] = []
    adj = g._adj

    def bk(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pivot = (p | x) & -(p | x)
        cand = p & ~adj[pivot.bit_length()]
        while cand:
            b = cand & -cand
            nb = adj[b.bit_length()]
            bk(r | b, p & nb, x & nb)
            p &= ~b
            x |= b
            cand ^= b

    bk(0, g.vmask, 0)
    return sorted(out)
