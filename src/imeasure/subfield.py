"""The boundary graph of a sub-collection of variables.

Drop some variables of a field represented by a graph and the remainder is
always represented by one specific graph on the kept vertices, and by nothing
smaller: connect two kept vertices whenever the original graph joins them by
a path whose interior runs entirely through dropped vertices.  The library
builds it in closed form, cliquing the kept neighbors of every dropped
component (a component of the graph minus the kept set); the test suite checks
that against direct path search and one-vertex-at-a-time elimination.  The
tree criterion reads the same components, and so do the diagram plans, whose
prefix graphs are closed forms.  Also here: the minimality witnesses and the
smallest-graph pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._bits import as_mask, iter_bits, verts_of
from .graphs import Graph, clique_edges

if TYPE_CHECKING:  # the atom and measure modules are imported by the functions that use them
    from .atoms import AtomSet
    from .measures import Distribution


def _keep_mask(g: Graph, keep) -> int:
    kmask = as_mask(keep, g.n)
    if kmask & ~g.vmask:
        raise ValueError("kept set names vertices outside the graph")
    if kmask == 0:
        raise ValueError("kept set must be nonempty")
    return kmask


def _dropped_components(g: Graph, kmask: int) -> list[tuple[int, int]]:
    """Every component of g minus the kept set, by lowest vertex, with the
    mask of its kept neighbors."""
    return [(c, g.neighbor_mask(c)) for c in g.component_masks(kmask)]


def _star_edges(g: Graph, kmask: int) -> set[tuple[int, int]]:
    """Edges of the boundary graph in closed form: the induced edges, plus a
    clique on the kept neighbors of every dropped component."""
    edges = set(
        (u, v) for u, v in g.edges if (kmask >> (u - 1)) & 1 and (kmask >> (v - 1)) & 1
    )
    for _, nb in _dropped_components(g, kmask):
        edges |= clique_edges(nb)
    return edges


def g_star_closed_form(g: Graph, keep) -> Graph:
    """Boundary graph in closed form (see `_star_edges`)."""
    kmask = _keep_mask(g, keep)
    return Graph(g.n, _star_edges(g, kmask), vertices=kmask)


def boundary_set(g: Graph, keep) -> frozenset[int]:
    """Kept vertices with at least one dropped neighbor."""
    kmask = _keep_mask(g, keep)
    return g.neighbor_set(g.vmask & ~kmask)


@dataclass(frozen=True)
class SubfieldResult:
    g_star: Graph
    rho: frozenset[int]  # boundary set of the kept vertices
    equals_induced: bool  # whether g_star is the induced subgraph


def subfield_graph(g: Graph, keep) -> SubfieldResult:
    """Boundary graph, boundary set and `equals_induced`, walking the dropped
    components once: g_star holds the induced edges, so it adds nothing to them
    iff all its edges are edges of g."""
    g_star = g_star_closed_form(g, keep)
    return SubfieldResult(g_star, boundary_set(g, keep), g_star.edges <= g.edges)


def equals_induced(g: Graph, keep) -> bool:
    """Whether the boundary graph adds nothing over the induced subgraph, by
    the rule of `subfield_graph`."""
    return _star_edges(g, _keep_mask(g, keep)) <= g.edges


def cutset_lift(g: Graph, keep, t) -> bool:
    """Truth of: t cuts the boundary graph implies t cuts g."""
    kmask = _keep_mask(g, keep)
    tmask = as_mask(t, g.n)
    if tmask & ~kmask:
        raise ValueError("t must lie inside the kept set")
    gs = g_star_closed_form(g, kmask)
    return (not gs.is_cutset(tmask)) or g.is_cutset(tmask)


@dataclass(frozen=True)
class SubtreeCheck:
    is_subtree: bool
    witness_vertex: int | None  # lowest vertex of a dropped component with >= 3 kept neighbors
    witness_targets: tuple[int, ...]


def subtree_condition(g: Graph, keep) -> SubtreeCheck:
    """Tree criterion for the boundary graph of a tree.

    Fails exactly when some dropped component has three or more kept
    neighbors: those form a triangle in the boundary graph.  The witness is the
    first such component's lowest vertex and its three lowest kept neighbors.
    Rejects non-tree inputs.
    """
    if g.component_count(0) != 1 or len(g.edges) != len(g.vertices) - 1:
        raise ValueError("subtree condition applies to trees only")
    for comp, nb in _dropped_components(g, _keep_mask(g, keep)):
        if nb.bit_count() >= 3:
            return SubtreeCheck(False, (comp & -comp).bit_length(), verts_of(nb)[:3])
    return SubtreeCheck(True, None, ())


@dataclass(frozen=True)
class SmallestRepResult:
    g_hat: Graph
    exists: bool
    witness_atoms: AtomSet  # image atoms outside the vanishing set when exists is False

    def to_json(self) -> dict:
        return {
            "g_hat": self.g_hat.to_json(),
            "exists": self.exists,
            "witness_atoms": self.witness_atoms.to_json(),
        }


def smallest_graph(vanishing: AtomSet) -> SmallestRepResult:
    """Candidate smallest graph from a vanishing-atom set.

    Keep edge {u, v} iff the atom supported by exactly {u, v} is outside the
    vanishing set.  The candidate is the smallest representation iff its own
    image stays inside the vanishing set; otherwise the leftover atoms witness
    that no smallest representation exists.
    """
    from .atoms import image_of_graph, recover_graph

    g_hat = recover_graph(vanishing)
    img = image_of_graph(g_hat)
    missing = img - vanishing
    return SmallestRepResult(g_hat, len(missing) == 0, missing)


def _interior_path(g: Graph, u: int, v: int, interior: int) -> list[int] | None:
    """Shortest u-v path whose intermediates lie inside `interior` (BFS)."""
    allowed = interior | (1 << (v - 1))
    prev = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for b in iter_bits(g.adjacency(w) & allowed):
                x = b.bit_length()
                if x in prev:
                    continue
                prev[x] = w
                if x == v:
                    path = [v]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return path[::-1]
                if (interior >> (x - 1)) & 1:
                    nxt.append(x)
        frontier = nxt
    return None


def minimality_witness(g: Graph, keep, edge: tuple[int, int]) -> Distribution:
    """Distribution showing an edge of the boundary graph cannot be dropped.

    Copies one fair bit along a u-v path interior to the dropped set, constants
    elsewhere.  The result respects g, yet u and v stay dependent given the
    rest of the kept set, so any graph representing the sub-collection must
    join them.
    """
    from .witnesses import atom_concentrator

    kmask = _keep_mask(g, keep)
    u, v = edge
    gs = g_star_closed_form(g, kmask)
    if not gs.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the boundary graph")
    path = _interior_path(g, u, v, g.vmask & ~kmask)
    if path is None:  # unreachable given the edge exists
        raise ValueError(f"no interior path between {u} and {v}")
    support = as_mask(path, g.n)
    return atom_concentrator(g.n, support)
