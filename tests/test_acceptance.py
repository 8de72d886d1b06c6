"""End-to-end acceptance suite.

Each test covers one headline capability at its stated tolerance and prints a
single PASS line (run with `pytest -s` to see them).  Expected values come
from closed-form constructions or from the independent oracles in oracles.py,
never from the code paths under test.
"""

import itertools
import random
import time

import numpy as np
import pytest

from imeasure import (
    Atom,
    AtomSet,
    AtomType,
    FCMI,
    Graph,
    IMeasureVector,
    build_plan,
    check_mrf,
    classify_atom,
    clique_edges,
    elimination_sequence,
    entropy_from_mu,
    entropy_vector,
    g_star_closed_form,
    generate_mrf,
    image_of_fcmi,
    image_of_graph,
    implies,
    measure_from_distribution,
    measure_of_expression,
    minimality_witness,
    mu_from_entropy,
    prefix_relabel,
    recover_fcmi,
    recover_graph,
    reduce_atom,
    restrict_entropy,
    ring_field_witness,
    smallest_graph,
    star_xor_witness,
    subtree_condition,
    type_of_atom,
    vanishing_atoms,
)
from imeasure.witnesses import FieldSpec

from conftest import load_graph
from oracles import (
    g_star_elimination,
    g_star_paths,
    is_tree,
    iter_connected_graphs,
    iter_full_independencies,
    mu_by_linear_solve,
    random_distribution,
    random_edges,
    random_full_independency,
    random_tree_edges,
    relabel_atoms,
)

from imeasure import Distribution


def report(label):
    print(f"PASS {label}")


def test_criterion_01_star_negative_atom(star4):
    t0 = time.perf_counter()
    witness = star_xor_witness(star4, 4, (1, 2, 3))
    mu = measure_from_distribution(witness, 2.0)
    value = measure_of_expression(mu, [1, 2, 3])
    assert abs(value - (-1.0)) <= 1e-9
    assert check_mrf(mu, star4, 1e-9).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(f"criterion 1: star triple-interaction = -1, field respects star ({elapsed:.3f}s)")


def test_criterion_02_ring_construction():
    t0 = time.perf_counter()
    for n, q in ((4, 3), (5, 5)):
        dist = ring_field_witness(n, FieldSpec(q), tuple(range(1, n - 1)))
        h = entropy_vector(dist, float(q))
        for m in range(1, 1 << n):
            want = 1.0 if m.bit_count() == 1 else 2.0
            assert abs(h.h(m) - want) <= 1e-9
        mu = mu_from_entropy(h)
        for a, v in mu.atoms():
            w = a.weight
            want = -(n - 2.0) if w == n else 1.0 if w == n - 1 else 0.0
            assert abs(v - want) <= 1e-9
        assert check_mrf(mu, Graph.cycle(n), 1e-9).ok
        # prescribed measure reproduces the prescribed entropies
        table = np.zeros(1 << n)
        for c in range((1 << n) - 1):
            w = n - bin(c).count("1")
            table[c] = -(n - 2.0) if w == n else 1.0 if w == n - 1 else 0.0
        back = entropy_from_mu(IMeasureVector(n, float(q), table))
        for m in range(1, 1 << n):
            want = 1.0 if m.bit_count() == 1 else 2.0
            assert abs(back.h(m) - want) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(f"criterion 2: ring entropies/measure over GF(3), GF(5) ({elapsed:.3f}s)")


def _support_is_interval(a: Atom) -> bool:
    s = sorted(a.support)
    return s == list(range(s[0], s[-1] + 1))


def test_criterion_03_chain_nonnegativity():
    t0 = time.perf_counter()
    rng = random.Random(303)
    for trial in range(200):
        n = 3 + trial % 4
        g = Graph.path(n)
        mu = measure_from_distribution(generate_mrf(g, seed=trial), 2.0)
        for a, v in mu.atoms():
            interval = _support_is_interval(a)
            type1 = type_of_atom(g, a) is AtomType.TYPE_I
            assert interval == type1  # connected atoms of a chain are intervals
            if not interval:
                assert abs(v) <= 1e-7
            else:
                assert v >= -1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"criterion 3: 200 random chain fields nonnegative ({elapsed:.3f}s)")


def test_criterion_04_measure_matches_linear_oracle():
    rng = random.Random(404)
    for trial in range(100):
        n = rng.randint(2, 5)
        p = Distribution(n, (2,) * n, random_distribution(rng, n))
        h = entropy_vector(p, 2.0)
        mu = mu_from_entropy(h)
        ref = mu_by_linear_solve(lambda m: h.h(m), n)
        assert np.all(np.abs(mu.table - ref) <= 1e-8)
    report("criterion 4: fast transform equals linear-system oracle, 100 trials")


def test_criterion_05_boundary_graph_equivalence(pockets9):
    rng = random.Random(505)
    for _ in range(500):
        n = rng.randint(2, 10)
        g = Graph(n, random_edges(rng, n))
        verts = list(range(1, n + 1))
        keep1 = sorted(rng.sample(verts, rng.randint(1, n)))
        a = g_star_paths(g, keep1)
        b = g_star_closed_form(g, keep1)
        order = [v for v in verts if v not in keep1]
        rng.shuffle(order)
        c = g_star_elimination(g, keep1, order)
        assert a == b == c
        keep2 = sorted(rng.sample(keep1, rng.randint(1, len(keep1))))
        assert g_star_paths(g, keep2) == g_star_paths(a, keep2)
    keep = [1, 2, 5, 6, 8, 9]
    induced = {(u, v) for u, v in pockets9.edges if u in keep and v in keep}
    expected = induced | set(clique_edges([1, 2, 5, 6])) | set(clique_edges([2, 5, 8, 9]))
    assert set(g_star_paths(pockets9, keep).edges) == expected
    report("criterion 5: three constructions agree + composition, 500 trials")


def test_criterion_06_marginal_representation_and_minimality():
    rng = random.Random(606)
    for trial in range(50):
        n = rng.randint(3, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        keep = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        dist = generate_mrf(g, seed=trial)
        h = entropy_vector(dist, 2.0)
        sub_mu = mu_from_entropy(restrict_entropy(h, keep))
        mapping = prefix_relabel(keep)
        gs = g_star_paths(g, keep)
        assert check_mrf(sub_mu, gs.relabel(mapping, n=len(keep)), 1e-7).ok
        for u, v in sorted(gs.edges):
            w = minimality_witness(g, keep, (u, v))
            wmu = measure_from_distribution(w, 2.0)
            assert check_mrf(wmu, g, 1e-9).ok
            rest = [x for x in keep if x not in (u, v)]
            value = measure_of_expression(wmu, [u, v], rest)
            assert abs(value - 1.0) <= 1e-9
    report("criterion 6: marginals respect the boundary graph; every edge certified")


def test_criterion_07_atom_reduction():
    # identity check on every connected atom of every connected graph, n <= 5
    rng = random.Random(707)
    for n in range(2, 6):
        for trial, edges in enumerate(iter_connected_graphs(n)):
            g = Graph(n, edges)
            mu = measure_from_distribution(generate_mrf(g, seed=trial), 2.0)
            for c in range((1 << n) - 1):
                a = Atom(n, c)
                if a.weight < 2 or type_of_atom(g, a) is not AtomType.TYPE_I:
                    continue
                red = reduce_atom(g, a)
                rhs = measure_of_expression(mu, red.kept_mask, c)
                assert abs(mu.value(a) - rhs) <= 1e-6
    # structural properties exhaustively at n <= 6
    for n in range(2, 7):
        for edges in iter_connected_graphs(n):
            g = Graph(n, edges)
            full = (1 << n) - 1
            for c in range(full):
                a = Atom(n, c)
                if a.weight < 2 or g.component_count(c) != 1:
                    continue
                red = reduce_atom(g, a)
                b = red.kept_mask
                assert b.bit_count() >= 2
                w = full & ~c & ~b
                s = w
                while True:  # every proper sub-removal of w still cuts the graph
                    if s != w:
                        assert g.component_count(c | (w & ~s)) > 1
                    if s == 0:
                        break
                    s = (s - 1) & w
    report("criterion 7: reduction identity (n<=5) and core properties (n<=6) exhaustive")


def test_criterion_08_subtree_condition(tree12):
    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(2, 12)
        g = Graph(n, random_tree_edges(rng, n))
        keep = [v for v in range(1, n + 1) if rng.random() < 0.55] or [rng.randint(1, n)]
        verdict = subtree_condition(g, keep).is_subtree
        gs = g_star_paths(g, keep)
        assert verdict == is_tree(n, gs.edges, vertices=keep)
    good = subtree_condition(tree12, [1, 4, 8, 9, 12])
    assert good.is_subtree
    bad = subtree_condition(tree12, [1, 4, 7, 8, 9, 12])
    assert not bad.is_subtree and bad.witness_vertex == 6
    report("criterion 8: tree criterion equals direct tree check, 200 random trees")


def test_criterion_09_smallest_representation():
    vanishing = AtomSet.of(3, [Atom.of(3, [3]), Atom.of(3, [2])])
    res = smallest_graph(vanishing)
    assert sorted(res.g_hat.edges) == [(2, 3)]
    assert image_of_graph(res.g_hat) == AtomSet.of(
        3, [Atom.of(3, [3]), Atom.of(3, [2]), Atom.of(3, [])]
    )
    assert not res.exists
    assert list(res.witness_atoms) == [Atom.of(3, [])]
    # a distribution with all three variables equal reaches the same verdict
    copied = Distribution(3, (2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    van2 = vanishing_atoms(measure_from_distribution(copied, 2.0), 1e-9)
    res2 = smallest_graph(van2)
    assert not res2.exists
    report("criterion 9: smallest-representation pipeline, both routes negative")


def test_criterion_10_diagram_plans(star4):
    for n in range(1, 9):
        assert len(build_plan(Graph.path(n)).final_type1) == n * (n + 1) // 2
    plan = build_plan(star4)
    from imeasure import Action

    step4 = plan.steps[-1]
    split = {a for a, act in step4.items() if act is Action.SPLIT}
    include = {a for a, act in step4.items() if act is Action.INCLUDE}
    assert split == {Atom.of(3, [2, 3]), Atom.of(3, [1, 3]), Atom.of(3, [1, 2])}
    assert include == {Atom.of(3, []), Atom.of(3, [1]), Atom.of(3, [2]), Atom.of(3, [3])}
    # suppressed children stay suppressed and no connected atom loses both
    # children, exhaustively over all connected graphs with up to 6 vertices
    for n in range(2, 7):
        for edges in iter_connected_graphs(n):
            g = Graph(n, edges)
            seq = elimination_sequence(g)
            for m in range(2, n + 1):
                g_prev, g_cur = seq[m - 2], seq[m - 1]
                bit = 1 << (m - 1)
                for c in range((1 << (m - 1)) - 1):
                    parent_connected = g_prev.component_count(c) == 1
                    in_connected = g_cur.component_count(c) == 1
                    out_connected = g_cur.component_count(c | bit) == 1
                    if not parent_connected:
                        assert not in_connected and not out_connected
                    else:
                        assert in_connected or out_connected
    rng = random.Random(1010)
    g = load_graph("caterpillar6.json")
    base = build_plan(g)
    for _ in range(50):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in range(1, 7)}
        plan2 = build_plan(g.relabel(mapping))
        assert relabel_atoms(base.final_type1, mapping) == plan2.final_type1
    report("criterion 10: plan counts, star actions, exhaustive child types, relabeling")


def test_criterion_11_round_trips():
    for n in range(2, 6):
        for given, groups in iter_full_independencies(n):
            k = FCMI.of(n, given, groups)
            assert recover_fcmi(image_of_fcmi(k)) == k
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            assert recover_graph(image_of_graph(g)) == g
    rng = random.Random(1111)
    for _ in range(120):
        n = rng.randint(6, 10)
        given, groups = random_full_independency(rng, n)
        k = FCMI.of(n, given, groups)
        assert recover_fcmi(image_of_fcmi(k)) == k
        g = Graph(n, random_edges(rng, n))
        assert recover_graph(image_of_graph(g)) == g
    pi1 = [FCMI.of(3, [], [[1], [2], [3]])]
    pi2 = [FCMI.of(3, [], [[1, 2], [3]]), FCMI.of(3, [3], [[1], [2]])]
    assert pi1 != pi2
    assert image_of_fcmi(pi1[0]) == (image_of_fcmi(pi2[0]) | image_of_fcmi(pi2[1]))
    assert implies(pi1, pi2) and implies(pi2, pi1)
    report("criterion 11: image/recover identities exhaustive and randomized")
