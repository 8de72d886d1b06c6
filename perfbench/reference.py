"""Independent answers for the benchmark's correctness checks.

Nothing here imports imeasure.  Graph facts come from breadth-first
searches written here, and every measure the workloads emit has a closed form that
follows from how its input was built.  Checks therefore hold for any correct
implementation, whatever its float rounding or internal data layout.
"""

from __future__ import annotations

import math
from collections import deque


class CheckFailed(Exception):
    """An op's output disagrees with the independent answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# -- graphs ------------------------------------------------------------------


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reach(adj, start: int, allowed: set[int]) -> set[int]:
    """Vertices reachable from `start` moving only through `allowed`."""
    seen = {start}
    todo = deque([start])
    while todo:
        w = todo.popleft()
        for x in adj[w]:
            if x in allowed and x not in seen:
                seen.add(x)
                todo.append(x)
    return seen


def connected_without(adj, removed: set[int]) -> bool:
    """Whether the graph minus `removed` has at most one component."""
    rest = set(adj) - removed
    if not rest:
        return True
    return reach(adj, min(rest), rest) == rest


def cutset_cmasks(n: int, edges) -> set[int]:
    """Complemented masks of the graph's image: removals that disconnect.

    A frontier BFS over bitmasks, one per removal: it runs for all 2^n
    masks, so it avoids building sets.
    """
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    full = (1 << n) - 1
    out = set()
    for c in range(full):
        rest = full & ~c
        seen = frontier = rest & -rest
        while frontier:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adj[low.bit_length()]
                frontier ^= low
            frontier = reached & rest & ~seen
            seen |= frontier
        if seen != rest:
            out.add(c)
    return out


def boundary_graph(n: int, edges, keep) -> set[tuple[int, int]]:
    """Join kept u, v when a path links them with every interior vertex dropped."""
    adj = adjacency(n, edges)
    keep = set(keep)
    dropped = set(adj) - keep
    out = set()
    for u in keep:
        inner = set()
        for x in adj[u]:
            if x in dropped:
                inner |= reach(adj, x, dropped)
        targets = {v for v in adj[u] if v in keep}
        for w in inner:
            targets |= adj[w] & keep
        out |= {(min(u, v), max(u, v)) for v in targets if v != u}
    return out


def boundary_vertices(n: int, edges, keep) -> set[int]:
    adj = adjacency(n, edges)
    keep = set(keep)
    return {u for u in keep if adj[u] - keep}


def reduction_core(n: int, edges, cmask: int) -> set[int]:
    """Plain vertices whose removal, with the complemented set, keeps G connected."""
    adj = adjacency(n, edges)
    comp = {v for v in range(1, n + 1) if (cmask >> (v - 1)) & 1}
    plain = set(range(1, n + 1)) - comp
    return {k for k in plain if connected_without(adj, comp | {k})}


def edge_set(graph_json: dict) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in graph_json["edges"]}


# -- atoms -------------------------------------------------------------------


def cmask_of_text(text: str) -> int:
    """Complemented mask of an atom written as "1 2' 3"."""
    c = 0
    for tok in text.split():
        if tok.endswith("'"):
            c |= 1 << (int(tok[:-1]) - 1)
    return c


def cmask_of_list(vertices) -> int:
    c = 0
    for v in vertices:
        c |= 1 << (v - 1)
    return c


def measure_values(measure_json: dict) -> dict[int, float]:
    """Atom values of a measure payload, keyed by complemented mask."""
    return {cmask_of_text(t): float(v) for t, v in measure_json["values"].items()}


def expect_measure(measure_json: dict, n: int, value_of, tol: float) -> int:
    """Every one of the 2^n - 1 atoms carries the closed-form value; returns how many are zero."""
    vals = measure_values(measure_json)
    expect(measure_json["n"] == n, "measure over the wrong variable count")
    expect(len(vals) == (1 << n) - 1, "measure does not list every atom")
    zeros = 0
    for c, v in vals.items():
        want = value_of(c)
        zeros += want == 0.0
        expect(close(v, want, tol), f"atom {c:b}: {v} != {want}")
    return zeros


def inclusion_exclusion(h, plain: int, comp: int) -> float:
    """Atom value from an entropy function: sum over S in plain of (-1)^(|S|+1) h(S|comp) - h(comp)."""
    acc = -h(comp)
    s = plain
    while s:
        acc += (h(s | comp) if s.bit_count() % 2 else -h(s | comp))
        s = (s - 1) & plain
    return acc


def ring_atom(n: int, cmask: int) -> float:
    """Ring witness in base q: full atom 2 - n, one complemented variable 1, else 0."""
    k = cmask.bit_count()
    return float(2 - n) if k == 0 else 1.0 if k == 1 else 0.0


def star_entropy(hub: int, leaves) -> callable:
    """Entropy (bits) of the parity star: hub holds two bits, leaves z, t, z^t."""
    hub_bit = 1 << (hub - 1)
    leaf_bits = [1 << (v - 1) for v in leaves]

    def h(mask: int) -> float:
        if mask & hub_bit:
            return 2.0
        k = sum(1 for b in leaf_bits if mask & b)
        return float(min(k, 2))

    return h


def star_atom(n: int, hub: int, leaves, cmask: int) -> float:
    active = cmask_of_list([hub, *leaves])
    full = (1 << n) - 1
    plain = full & ~cmask
    if plain & ~active:
        return 0.0
    return inclusion_exclusion(star_entropy(hub, leaves), plain, cmask & active)


def blocks_atom(n: int, blocks, cmask: int) -> float:
    """Independent sources copied onto disjoint supports: H_k on the atom with plain set S_k."""
    plain = ((1 << n) - 1) & ~cmask
    for support, h in blocks:
        if plain == support:
            return h
    return 0.0


def blocks_entropy(blocks, mask: int) -> float:
    return sum(h for support, h in blocks if mask & support)


def entropy_bits(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)
