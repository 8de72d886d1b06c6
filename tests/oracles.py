"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the bitmask machinery under test:
components come from a dict-of-sets BFS, entropies from raw definition sums,
and the atom measure from solving the defining linear system with numpy.
The alternative constructions the library proves equal to its own (boundary
graphs by path search and by elimination, independency images part by part)
live here too, built on plain sets; they only wrap results in the library's
`Graph` and `AtomSet` so that tests can compare them directly.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import numpy as np

from imeasure import AtomSet, Graph, elimination_sequence


# -- graphs ------------------------------------------------------------------


def bfs_components(n, edges, removed=frozenset(), vertices=None):
    """Components of the graph minus `removed`, as a list of frozensets."""
    verts = set(vertices) if vertices is not None else set(range(1, n + 1))
    verts -= set(removed)
    adj = {v: set() for v in verts}
    for u, v in edges:
        if u in verts and v in verts:
            adj[u].add(v)
            adj[v].add(u)
    seen = set()
    comps = []
    for start in sorted(verts):
        if start in seen:
            continue
        comp = {start}
        dq = deque([start])
        while dq:
            w = dq.popleft()
            for x in adj[w]:
                if x not in comp:
                    comp.add(x)
                    dq.append(x)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_tree(n, edges, vertices=None):
    verts = set(vertices) if vertices is not None else set(range(1, n + 1))
    kept = [(u, v) for u, v in edges if u in verts and v in verts]
    return len(bfs_components(n, kept, vertices=verts)) == 1 and len(kept) == len(verts) - 1


def iter_connected_graphs(n):
    """Every connected labeled graph on vertices 1..n, as edge tuples."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if (bits >> i) & 1)
        if len(bfs_components(n, edges)) == 1:
            yield edges


def random_edges(rng: random.Random, n: int, p: float = 0.45):
    return tuple(
        (u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if rng.random() < p
    )


def _adjacency(g: Graph) -> dict[int, set[int]]:
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def g_star_paths(g: Graph, keep) -> Graph:
    """Boundary graph by direct path search.

    Kept vertices u, v are joined iff some path of g connects them with every
    intermediate vertex outside the kept set (a direct edge qualifies).
    """
    kept = set(keep)
    adj = _adjacency(g)
    edges = set()
    for u in kept:
        seen = {u}
        dq = deque([u])
        while dq:
            for x in adj[dq.popleft()] - seen:
                seen.add(x)
                if x in kept:
                    edges.add((min(u, x), max(u, x)))
                else:
                    dq.append(x)
    return Graph(g.n, edges, vertices=kept)


def g_star_elimination(g: Graph, keep, order=None) -> Graph:
    """Boundary graph by eliminating the dropped vertices one at a time.

    Each step removes a vertex and joins all of its neighbors.  Any order
    yields the same graph; the default is descending label order.
    """
    kept = set(keep)
    drop = sorted(set(g.vertices) - kept)
    order = drop[::-1] if order is None else list(order)
    if sorted(order) != drop:
        raise ValueError("order must be a permutation of the dropped vertices")
    adj = _adjacency(g)
    for x in order:
        nb = adj.pop(x)
        for v in nb:
            adj[v] |= nb - {v}
            adj[v].discard(x)
    edges = {(u, v) for u in adj for v in adj[u] if u < v}
    return Graph(g.n, edges, vertices=kept)


def cross_check_sequence(g: Graph) -> bool:
    """The library's elimination sequence agrees with direct path search on
    every label prefix."""
    seq = elimination_sequence(g)
    for m in range(1, g.n + 1):
        direct = g_star_paths(g, range(1, m + 1))
        if set(direct.edges) != set(seq[m - 1].edges):
            return False
    return True


def random_tree_edges(rng: random.Random, n: int):
    """Random labeled tree: attach each vertex to a uniformly chosen earlier one."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        edges.append(tuple(sorted((order[i], order[rng.randrange(i)]))))
    return tuple(edges)


# -- information quantities ----------------------------------------------------


def entropy_direct(probs: dict, coords, base: float = 2.0) -> float:
    """Entropy of the marginal on 1-based coordinate set `coords`, by definition."""
    coords = sorted(coords)
    marg = {}
    for x, p in probs.items():
        key = tuple(x[c - 1] for c in coords)
        marg[key] = marg.get(key, 0.0) + p
    return -sum(p * math.log(p, base) for p in marg.values() if p > 0)


def restrict_entropy_by_loop(h, keep) -> np.ndarray:
    """Entropy table of the variables `keep` (1-based), relabelled to 1..k in ascending order, set by set."""
    kept = sorted(keep)
    table = np.zeros(1 << len(kept))
    for m in range(1, 1 << len(kept)):
        orig = 0
        for i, v in enumerate(kept):
            if (m >> i) & 1:
                orig |= 1 << (v - 1)
        table[m] = h.table[orig]
    return table


def conditional_mi(probs: dict, a, b, c, base: float = 2.0) -> float:
    """I(X_a ; X_b | X_c) from joint entropies by definition."""
    a, b, c = set(a), set(b), set(c)
    return (
        entropy_direct(probs, a | c, base)
        + entropy_direct(probs, b | c, base)
        - entropy_direct(probs, c, base)
        - entropy_direct(probs, a | b | c, base)
    )


def mutual_independence_holds(probs: dict, given, groups, tol=1e-9, base=2.0) -> bool:
    """Groups mutually independent given a set: chain of pairwise CI checks.

    Mutual conditional independence is equivalent to each group being
    independent of the union of its successors, conditioned on the given set.
    """
    groups = [set(g) for g in groups]
    for i in range(len(groups) - 1):
        rest = set().union(*groups[i + 1 :])
        if conditional_mi(probs, groups[i], rest, set(given), base) > tol:
            return False
    return True


def mu_by_linear_solve(h_of_subset, n: int) -> np.ndarray:
    """Solve the defining system: the measure of the union of set variables
    over B equals h(B), i.e. summing atoms whose plain part meets B.

    `h_of_subset(mask)` returns the joint entropy of the subset mask.
    Returns an array indexed by the atoms' complemented masks (length 2^n,
    last entry 0 for the excluded empty atom).
    """
    size = (1 << n) - 1
    full = size
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    for b in range(1, 1 << n):
        for c in range(size):
            plain = full & ~c
            if plain & b:
                mat[b - 1, c] = 1.0
        rhs[b - 1] = h_of_subset(b)
    sol = np.linalg.solve(mat, rhs)
    out = np.zeros(1 << n)
    out[:size] = sol
    return out


def random_distribution(rng: random.Random, n: int, alphabet: int = 2) -> dict:
    """Random strictly positive joint distribution as a config->prob dict."""
    configs = list(itertools.product(range(alphabet), repeat=n))
    weights = [rng.random() + 0.05 for _ in configs]
    total = sum(weights)
    return {x: w / total for x, w in zip(configs, weights)}


# -- independency statements -----------------------------------------------------


def iter_full_independencies(n):
    """Every (given, groups) pair on 1..n: each conditioning set together with
    every partition of the remaining vertices into at least two blocks."""
    verts = list(range(1, n + 1))

    def partitions(items):
        if not items:
            yield []
            return
        first, tail = items[0], items[1:]
        for part in partitions(tail):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    for r in range(0, n - 1):
        for t in itertools.combinations(verts, r):
            rest = [v for v in verts if v not in t]
            for part in partitions(rest):
                if len(part) >= 2:
                    yield t, part


def _subsets(items):
    return itertools.chain.from_iterable(itertools.combinations(items, r) for r in range(len(items) + 1))


def image_of_fcmi_by_parts(k) -> AtomSet:
    """Image of a full independency, generated part by part from the defining form.

    Every choice of one subset per group, at least two of them nonempty, gives
    the atom whose plain variables are exactly their union.  Exponential in
    each group size.
    """
    if not k.is_full:
        raise ValueError("image_of_fcmi_by_parts needs a full statement")
    cmasks = set()
    for choice in itertools.product(*(list(_subsets(sorted(q))) for q in k.group_sets)):
        if sum(1 for w in choice if w) < 2:
            continue
        plain = set().union(*choice)
        cmasks.add(sum(1 << (v - 1) for v in range(1, k.n + 1) if v not in plain))
    return AtomSet(k.n, sum(1 << c for c in cmasks))


def relabel_atoms(atoms: AtomSet, mapping: dict[int, int]) -> AtomSet:
    """Apply a variable relabeling to every atom of a set."""
    cmasks = {sum(1 << (mapping[v] - 1) for v in a.complemented_set) for a in atoms}
    return AtomSet(atoms.n, sum(1 << c for c in cmasks))


def random_full_independency(rng: random.Random, n: int):
    """Random (given, groups) pair covering 1..n with at least two groups."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    t_size = rng.randint(0, n - 2)
    given, rest = verts[:t_size], verts[t_size:]
    cuts = sorted(rng.sample(range(1, len(rest)), rng.randint(1, len(rest) - 1)))
    groups = [rest[a:b] for a, b in zip([0] + cuts, cuts + [len(rest)])]
    return given, groups
