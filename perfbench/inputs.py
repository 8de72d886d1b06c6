"""Seeded input generation.  The library sees only the JSON these produce.

Everything is drawn from generators seeded by (workload, seed), so the same
seed always gives the same inputs, and nothing here calls imeasure: a change
to the library's own generators cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import itertools
import random
import zlib

import numpy as np

from reference import entropy_bits

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def rngs(workload: str, seed: int) -> tuple[random.Random, np.random.Generator]:
    return random.Random(f"{workload}:{seed}"), np.random.default_rng([seed, zlib.crc32(workload.encode())])


# -- graphs -------------------------------------------------------------------


def path_edges(n: int):
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n: int):
    return path_edges(n) + [(1, n)]


def grid_edges(rows: int, cols: int):
    def v(r, c):
        return r * cols + c + 1

    out = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                out.append((v(r, c), v(r, c + 1)))
            if r + 1 < rows:
                out.append((v(r, c), v(r + 1, c)))
    return out


def tree_edges(rng: random.Random, n: int):
    """Random labelled tree: each vertex, in shuffled order, joins an earlier one."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]


def connected_edges(rng: random.Random, n: int, extra: int):
    """A random tree plus `extra` further distinct edges."""
    edges = set(tree_edges(rng, n))
    spare = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in edges]
    edges.update(rng.sample(spare, extra))
    return sorted(edges)


def shape_edges(rng: random.Random, shape: str, n: int):
    if shape == "path":
        return path_edges(n)
    if shape == "cycle":
        return cycle_edges(n)
    if shape == "tree":
        return tree_edges(rng, n)
    if shape == "random":
        return connected_edges(rng, n, n // 2)
    if shape == "grid":
        rows = 4 if n % 4 == 0 else 2
        return grid_edges(rows, n // rows)
    raise ValueError(f"unknown shape {shape!r}")


def graph_json(n: int, edges) -> dict:
    return {"n": n, "edges": sorted([min(u, v), max(u, v)] for u, v in edges)}


def hub_host(rng: random.Random, n: int):
    """Random tree in which vertex `hub` has at least three neighbours; returns (edges, hub, leaves)."""
    hub = rng.randint(1, n)
    others = [v for v in range(1, n + 1) if v != hub]
    rng.shuffle(others)
    leaves = sorted(others[:3])
    edges = [(min(hub, v), max(hub, v)) for v in leaves]
    placed = [hub] + leaves
    for v in others[3:]:
        u = rng.choice(placed)
        edges.append((min(u, v), max(u, v)))
        placed.append(v)
    return edges, hub, leaves


# -- distributions -------------------------------------------------------------


COUPLING = 1.5  # log-weight of equal symbols at the two ends of an edge


def field_table(nprng: np.random.Generator, alphabets, edges) -> np.ndarray:
    """Strictly positive pairwise field: a product of one random potential per edge.

    Edges are cliques of the graph, so the product factorises over its
    maximal cliques and the field satisfies every cutset independency.  Each
    potential favours equal symbols by COUPLING on top of noise too small to
    cancel it, so every edge carries clear conditional dependence and the
    graph is the field's smallest representation.
    """
    n = len(alphabets)
    logp = np.zeros(alphabets)
    for u, v in edges:
        size = (alphabets[u - 1], alphabets[v - 1])
        shape = [1] * n
        shape[u - 1], shape[v - 1] = size
        pot = np.log(nprng.uniform(0.8, 1.0, size=size)) + COUPLING * np.eye(*size)
        logp = logp + pot.reshape(shape)
    p = np.exp(logp - logp.max())
    return p / p.sum()


def table_json(p: np.ndarray) -> dict:
    n = p.ndim
    rows = [{"x": list(x), "p": float(p[x])} for x in np.ndindex(p.shape)]
    return {"n": n, "alphabets": list(p.shape), "probs": rows}


def marginal_entropies(p: np.ndarray) -> tuple[list[float], float]:
    """Singleton entropies and the joint entropy of a table, in bits."""
    axes = range(p.ndim)
    singles = [entropy_bits(p.sum(axis=tuple(a for a in axes if a != i)).ravel()) for i in axes]
    return singles, entropy_bits(p.ravel())


def ring_json(n: int, q: int, alphas) -> dict:
    """Two uniform GF(q) seeds z, t; vertex i >= 3 holds z + alpha_i t."""
    rows = []
    for z in range(q):
        for t in range(q):
            rows.append({"x": [z, t] + [(z + a * t) % q for a in alphas], "p": 1.0 / (q * q)})
    return {"n": n, "alphabets": [q] * n, "probs": rows}


def ring_params(rng: random.Random, n: int) -> tuple[int, list[int]]:
    q = min(p for p in PRIMES if p >= n - 1)
    return q, rng.sample(range(1, q), n - 2)


def star_json(n: int, hub: int, leaves) -> dict:
    """Fair bits z, t on the first two leaves, z xor t on the third, 2z + t on the hub."""
    alph = [1] * n
    alph[hub - 1] = 4
    rows = []
    for v in leaves:
        alph[v - 1] = 2
    for z in (0, 1):
        for t in (0, 1):
            x = [0] * n
            x[leaves[0] - 1], x[leaves[1] - 1], x[leaves[2] - 1] = z, t, z ^ t
            x[hub - 1] = 2 * z + t
            rows.append({"x": x, "p": 0.25})
    return {"n": n, "alphabets": alph, "probs": rows}


def blocks_json(n: int, blocks) -> dict:
    """Independent sources, each copied onto its own support; blocks = [(support, probs)]."""
    alph = [1] * n
    for support, probs in blocks:
        for v in support:
            alph[v - 1] = len(probs)
    rows = []
    for choice in itertools.product(*(range(len(probs)) for _, probs in blocks)):
        x = [0] * n
        p = 1.0
        for (support, probs), z in zip(blocks, choice):
            for v in support:
                x[v - 1] = z
            p *= probs[z]
        rows.append({"x": x, "p": p})
    return {"n": n, "alphabets": alph, "probs": rows}


def source(rng: random.Random, k: int) -> list[float]:
    w = [rng.uniform(0.2, 1.0) for _ in range(k)]
    s = sum(w)
    return [x / s for x in w[:-1]] + [1.0 - sum(x / s for x in w[:-1])]


def interval(rng: random.Random, n: int, size: int) -> list[int]:
    start = rng.randint(1, n - size + 1)
    return list(range(start, start + size))
