"""Hand-built distributions with known atom measures.

Three constructions: a parity gadget around any degree-3 vertex that forces a
negative atom, a two-seed linear construction over a finite field that makes a
ring graph's full atom equal 2 - n, and a single-source copy that concentrates
the whole measure on one chosen atom.
"""

from __future__ import annotations

import math

from ._bits import as_mask, check_var_count, verts_of
from .graphs import MAX_VERTICES, Graph
from .measures import Distribution

MAX_FIELD = 257


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


class FieldSpec:
    """Arithmetic for a small finite field.

    Prime sizes use modular arithmetic directly.  Prime-power fields are
    accepted only with explicit addition and multiplication tables, supplied
    as nested sequences indexed by element.
    """

    __slots__ = ("q", "_add", "_mul")

    def __init__(self, q: int, add=None, mul=None):
        if not 2 <= q <= MAX_FIELD:
            raise ValueError(f"field size {q} outside 2..{MAX_FIELD}")
        if add is None and mul is None:
            if not _is_prime(q):
                raise ValueError(
                    f"{q} is not prime; supply explicit add/mul tables for prime powers"
                )
            self._add = None
            self._mul = None
        else:
            if add is None or mul is None:
                raise ValueError("supply both tables or neither")
            add = tuple(tuple(int(v) for v in row) for row in add)
            mul = tuple(tuple(int(v) for v in row) for row in mul)
            for t in (add, mul):
                if len(t) != q or any(len(row) != q for row in t):
                    raise ValueError("tables must be q x q")
                if any(not 0 <= v < q for row in t for v in row):
                    raise ValueError("table entries must be field elements")
            self._add = add
            self._mul = mul
        self.q = q

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return (a + b) % self.q

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return (a * b) % self.q

    def __repr__(self):
        return f"FieldSpec({self.q})"


def star_xor_witness(g: Graph, hub: int, leaves) -> Distribution:
    """Load a parity triple on three neighbors of a high-degree vertex.

    Two fair bits sit on the first two leaves, their parity on the third, and
    the pair itself on the hub; everything else is constant.  The measure of
    the joint interaction atom of the four active vertices comes out -1 in
    base 2, and the distribution respects the graph.
    """
    leaves = tuple(leaves)
    if len(leaves) != 3 or len(set(leaves)) != 3:
        raise ValueError("need three distinct leaves")
    if not 1 <= hub <= g.n or not (g.vmask >> (hub - 1)) & 1:
        raise ValueError(f"hub {hub} is not a vertex of the graph")
    if g.degree(hub) < 3:
        raise ValueError(f"vertex {hub} has degree {g.degree(hub)} < 3")
    for v in leaves:
        if not g.has_edge(hub, v):
            raise ValueError(f"vertex {v} is not a neighbor of {hub}")
    v1, v2, v3 = leaves
    alphabets = [1] * g.n
    alphabets[hub - 1] = 4
    for v in leaves:
        alphabets[v - 1] = 2
    probs = {}
    for z in (0, 1):
        for t in (0, 1):
            x = [0] * g.n
            x[v1 - 1] = z
            x[v2 - 1] = t
            x[v3 - 1] = (z + t) % 2
            x[hub - 1] = 2 * z + t
            probs[tuple(x)] = 0.25
    return Distribution(g.n, alphabets, probs)


def ring_field_witness(n: int, field: FieldSpec, alphas) -> Distribution:
    """Two uniform field seeds spread around a ring.

    Vertex 1 carries the first seed, vertex 2 the second, and vertex i >= 3
    carries seed1 + alpha_i * seed2 with the alphas distinct and nonzero.  Any
    two variables determine the rest, so the distribution respects the cycle
    graph on 1..n; the entropies in base q are 1 for singletons and 2 for
    everything larger.
    """
    if n < 3:
        raise ValueError("ring construction needs at least 3 variables")
    if field.q < n - 1:
        raise ValueError(f"field must have at least {n - 1} elements, got {field.q}")
    alphas = tuple(int(a) for a in alphas)
    if len(alphas) != n - 2:
        raise ValueError(f"need exactly {n - 2} multipliers")
    if len(set(alphas)) != len(alphas) or any(not 1 <= a < field.q for a in alphas):
        raise ValueError("multipliers must be distinct nonzero field elements")
    q = field.q
    probs = {}
    w = 1.0 / (q * q)
    for z in range(q):
        for t in range(q):
            x = [z, t] + [field.add(z, field.mul(a, t)) for a in alphas]
            probs[tuple(x)] = w
    return Distribution(n, (q,) * n, probs)


def atom_concentrator(n: int, support, z_probs=(0.5, 0.5)) -> Distribution:
    """Copy one source onto a chosen support, constants elsewhere.

    The resulting measure is H(source) on the single atom whose plain
    variables are exactly the support, and zero on every other atom.
    """
    smask = as_mask(support, check_var_count(n, MAX_VERTICES))
    if smask == 0:
        raise ValueError("support must be nonempty")
    z_probs = tuple(float(p) for p in z_probs)
    if len(z_probs) < 1 or any(p < 0 for p in z_probs) or abs(sum(z_probs) - 1.0) > 1e-12:
        raise ValueError("source probabilities must be nonnegative and sum to 1")
    members = verts_of(smask)
    alphabets = [len(z_probs) if v in members else 1 for v in range(1, n + 1)]
    probs = {}
    for z, p in enumerate(z_probs):
        if p == 0.0:
            continue
        x = tuple(z if v in members else 0 for v in range(1, n + 1))
        probs[x] = probs.get(x, 0.0) + p
    return Distribution(n, alphabets, probs)


def source_entropy(z_probs=(0.5, 0.5), base: float = 2.0) -> float:
    """Entropy of the concentrator source, for asserting the loaded value."""
    lb = math.log(base)
    return -sum(p * math.log(p) for p in z_probs if p > 0) / lb
