"""The lattice entropy engine against definition-level entropies.

Both private paths (dense tensor walk and sparse partition refinement) are
called directly on the same distributions, so each is checked whichever one
the density rule would pick.  Each check runs at three batch budgets: 1, so
that the dense walk reaches every set itself and the sparse path never
batches; a middle budget, so that the dense walk hands subtrees inside the
lattice to star batches; and the default, under which small fields are one
batch from the root.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import (
    Atom,
    Distribution,
    FieldSpec,
    Graph,
    atom_measure_from_distribution,
    entropy_vector,
    generate_mrf,
    marginal_entropy,
    mu_from_entropy,
    ring_field_witness,
)
from imeasure import measures

from oracles import entropy_direct


@st.composite
def distributions(draw):
    """(distribution, the probability dict it was built from, zero rows included).

    A full support lies on the dense side of the density rule; a few rows over
    several variables with three or four symbols lie on the sparse side.
    """
    shape = draw(st.sampled_from(("full", "few", "wide")))
    n = draw(st.integers(min_value=5 if shape == "wide" else 1, max_value=6))
    low = 3 if shape == "wide" else 1
    alphabets = draw(st.lists(st.integers(min_value=low, max_value=4), min_size=n, max_size=n))
    if shape == "full" and math.prod(alphabets) <= 256:
        rows = list(itertools.product(*(range(a) for a in alphabets)))
    else:
        row = st.tuples(*(st.integers(min_value=0, max_value=a - 1) for a in alphabets))
        rows = draw(st.lists(row, min_size=3 if shape == "wide" else 1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(rows), max_size=len(rows)))
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    probs = {x: w / total for x, w in zip(rows, weights)}
    return Distribution(n, alphabets, probs), probs


def interval_oracle(probs, base: int, free: int) -> np.ndarray:
    """Entropies in nats of base | S for every S within free, S ordered as the engine orders it."""
    members = [b for b in range(32) if (free >> b) & 1]
    out = []
    for i in range(1 << len(members)):
        m = base
        for pos, b in enumerate(members):
            if (i >> pos) & 1:
                m |= 1 << b
        out.append(entropy_direct(probs, [b + 1 for b in range(32) if (m >> b) & 1], math.e))
    return np.array(out)


def walk_interval(walk, p: Distribution, base: int, free: int) -> np.ndarray:
    """Run one path on the varying columns and spread it over constant variables."""
    kept, free_cols, _ = measures._columns(p, free)
    _, base_cols, _ = measures._columns(p, base)
    varying = walk(free_cols, base_cols, p.weights)
    k = free.bit_count()
    index = [sum(1 << pos for pos, j in enumerate(kept) if (i >> j) & 1) for i in range(1 << k)]
    return varying[index]


BUDGETS = (1, 64, measures.BATCH_CELLS)


def check_interval(p: Distribution, probs, base: int, free: int) -> None:
    """Both paths and the engine against the oracle on one interval, at every budget."""
    want = interval_oracle(probs, base, free)
    if base == 0:
        want[0] = 0.0
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "BATCH_CELLS", budget)
            for walk in (measures._dense_walk, measures._sparse_walk):
                got = walk_interval(walk, p, base, free)
                if base == 0:
                    got[0] = 0.0
                assert np.allclose(got, want, rtol=0, atol=1e-12), (walk.__name__, budget)
            assert np.allclose(measures._lattice_entropies(p, base, free), want, rtol=0, atol=1e-12), budget


@settings(max_examples=80, deadline=None)
@given(case=distributions(), split=st.integers(min_value=0, max_value=3**6 - 1))
def test_both_paths_match_direct_entropies(case, split):
    p, probs = case
    full = (1 << p.n) - 1
    # every variable lands in the base, the free set or neither, by the digits of `split`
    digits = [(split // 3**i) % 3 for i in range(p.n)]
    base = sum(1 << i for i, d in enumerate(digits) if d == 1)
    free = sum(1 << i for i, d in enumerate(digits) if d == 2)
    for b, f in ((0, full), (base, free)):
        check_interval(p, probs, b, f)
    h = entropy_vector(p, 2.0)
    for m in range(1, full + 1):
        coords = [i + 1 for i in range(p.n) if (m >> i) & 1]
        want = entropy_direct(probs, coords, 2.0)
        assert abs(marginal_entropy(p, coords, 2.0) - want) <= 1e-12
        assert abs(h.h(m) - want) <= 1e-12
    mu = mu_from_entropy(h)
    for a, v in mu.atoms():
        assert abs(atom_measure_from_distribution(p, a, 2.0) - v) <= 1e-12


def masks(*groups) -> list[int]:
    return [sum(1 << (v - 1) for v in g) for g in groups]


def blocks(n: int, sources) -> dict:
    """Independent sources, each copied onto its own variables: [(variables, probabilities)]."""
    probs = {}
    for choice in itertools.product(*(range(len(q)) for _, q in sources)):
        x = [0] * n
        w = 1.0
        for (vs, q), z in zip(sources, choice):
            for v in vs:
                x[v - 1] = z
            w *= q[z]
        probs[tuple(x)] = w
    return probs


# two ternary blocks make 9 rows; variables 6, 7 and 8 are constant
TERNARY_BLOCKS = blocks(8, [((1, 2, 3), (0.2, 0.3, 0.5)), ((4, 5), (0.6, 0.1, 0.3))])

# (n, alphabets, probabilities, base variables, free variables): the shapes
# of the single-atom queries of sparse witnesses, and the degenerate edges
INTERVALS = {
    "two ternary blocks, 3 varying base columns": (8, [3] * 5 + [1] * 3, TERNARY_BLOCKS, (1, 2, 4, 7), (3, 5, 6, 8)),
    "two ternary blocks, everything free": (8, [3] * 5 + [1] * 3, TERNARY_BLOCKS, (), (1, 2, 3, 4, 5, 6, 7, 8)),
    # fair bits z, t on leaves 1, 2, z xor t on leaf 4, hub 3 = 2z + t, constant 5 and 6
    "parity star, hub in the base": (
        6, [2, 2, 4, 2, 1, 1],
        {(z, t, 2 * z + t, z ^ t, 0, 0): 0.25 for z in (0, 1) for t in (0, 1)},
        (3, 5), (1, 2, 4, 6)),
    "plain variable constant on the support": (
        4, [2, 3, 2, 2], {(0, 1, 0, 1): 0.5, (1, 1, 1, 1): 0.25, (1, 1, 0, 1): 0.25},
        (4,), (1, 2, 3)),
    "no varying free column": (
        4, [2, 3, 2, 2], {(0, 1, 0, 1): 0.5, (1, 2, 0, 1): 0.5},
        (1, 2), (3, 4)),
    "single support row": (
        3, [2, 3, 2], {(1, 2, 0): 1.0},
        (2,), (1, 3)),
}


@pytest.mark.parametrize("name", INTERVALS)
def test_intervals_of_witness_shapes(name):
    n, alphabets, probs, base, free = INTERVALS[name]
    p = Distribution(n, alphabets, probs)
    b, f = masks(base, free)
    check_interval(p, probs, b, f)
    check_interval(p, probs, 0, f)
    check_interval(p, probs, 0, (1 << n) - 1)


def test_star_batch_has_no_zero_cell_nan():
    # zero cells of the joint and of the star table must add 0, not NaN
    t = np.array([[0.5, 0.0], [0.0, 0.5]])
    got = measures._star_entropies(t, 2)
    assert np.allclose(got, [0.0, math.log(2), math.log(2), math.log(2)], rtol=0, atol=1e-15)


def test_density_rule_picks_each_path(monkeypatch):
    chosen = []
    for name in ("_dense_walk", "_sparse_walk"):
        real = getattr(measures, name)
        monkeypatch.setattr(measures, name, lambda *args, _f=real, _n=name: chosen.append(_n) or _f(*args))
    entropy_vector(generate_mrf(Graph.path(6), seed=1))  # full support
    entropy_vector(ring_field_witness(7, FieldSpec(7), range(1, 6)))  # 49 of 7^7 cells
    assert chosen == ["_dense_walk", "_sparse_walk"]


def test_ring_entropies_and_full_atom_at_scale():
    # 13^14 cells and 169 support rows: the sparse path over all 2^14 sets
    n, q = 14, 13
    h = entropy_vector(ring_field_witness(n, FieldSpec(q), range(1, n - 1)), float(q))
    sizes = np.array([m.bit_count() for m in range(1 << n)])
    want = np.where(sizes == 1, 1.0, 2.0)
    want[0] = 0.0
    assert np.abs(h.table - want).max() <= 1e-9
    assert mu_from_entropy(h).value(Atom(n, 0)) == pytest.approx(-(n - 2), abs=1e-9)


def test_single_atom_query_at_24_variables():
    # 23^24 > 2^63, so a mixed-radix code of the configurations would overflow;
    # partition labels stay below the 529 support rows.  GF(13) is too small
    # for a 24-ring (it needs 22 distinct nonzero multipliers), so use GF(23).
    n, q = 24, 23
    p = ring_field_witness(n, FieldSpec(q), range(1, n - 1))
    comp = list(range(9, n + 1))
    lattice = measures._lattice_entropies(p, Atom.of(n, comp).complemented, 0xFF)
    assert np.abs(lattice / math.log(q) - 2.0).max() <= 1e-12
    assert atom_measure_from_distribution(p, Atom.of(n, comp), q) == pytest.approx(0.0, abs=1e-9)
    assert marginal_entropy(p, range(1, n + 1), q) == pytest.approx(2.0, abs=1e-12)
    assert marginal_entropy(p, [5], q) == pytest.approx(1.0, abs=1e-12)
    assert marginal_entropy(p, [5, 17], q) == pytest.approx(2.0, abs=1e-12)
