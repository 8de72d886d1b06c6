import itertools
import random

import pytest

from imeasure import (
    Atom,
    AtomSet,
    Graph,
    boundary_set,
    check_mrf,
    clique_edges,
    cutset_lift,
    entropy_vector,
    equals_induced,
    g_star_closed_form,
    generate_mrf,
    measure_from_distribution,
    measure_of_expression,
    minimality_witness,
    mu_from_entropy,
    prefix_relabel,
    restrict_entropy,
    smallest_graph,
    subfield_graph,
    subtree_condition,
)

from oracles import g_star_elimination, g_star_paths, is_tree, random_edges, random_tree_edges


KEEP9 = [1, 2, 5, 6, 8, 9]


# -- the three constructions ----------------------------------------------------


def test_pockets9_closed_form(pockets9):
    got = g_star_closed_form(pockets9, KEEP9)
    induced = {(u, v) for u, v in pockets9.edges if u in KEEP9 and v in KEEP9}
    expected = induced | set(clique_edges([1, 2, 5, 6])) | set(clique_edges([2, 5, 8, 9]))
    assert set(got.edges) == expected
    assert got.vertices == tuple(KEEP9)


def test_pockets9_triple_equivalence(pockets9):
    a = g_star_paths(pockets9, KEEP9)
    b = g_star_closed_form(pockets9, KEEP9)
    c = g_star_elimination(pockets9, KEEP9)
    assert a == b == c


def test_pockets9_any_elimination_order(pockets9):
    ref = g_star_paths(pockets9, KEEP9)
    for order in itertools.permutations([3, 4, 7]):
        assert g_star_elimination(pockets9, KEEP9, order) == ref


def test_keep_everything_is_identity(pockets9):
    assert g_star_paths(pockets9, list(range(1, 10))) == pockets9
    assert g_star_elimination(pockets9, list(range(1, 10))) == pockets9


def test_chain_keep_is_path():
    p6 = Graph.path(6)
    got = g_star_paths(p6, [1, 3, 5, 6])
    assert sorted(got.edges) == [(1, 3), (3, 5), (5, 6)]


def test_single_drop_cliques_last_neighborhood():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(3, 9)
        g = Graph(n, random_edges(rng, n))
        keep = list(range(1, n))
        got = g_star_paths(g, keep)
        induced = {(u, v) for u, v in g.edges if v != n}
        assert set(got.edges) == induced | set(clique_edges(g.neighbor_set([n])))


def test_pendant_drop_is_plain_removal():
    # dropping a degree-one vertex leaves exactly the induced subgraph
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    got = g_star_paths(g, [1, 2, 3, 4])
    assert got == g.remove([5])


def test_triple_equivalence_random():
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(2, 10)
        g = Graph(n, random_edges(rng, n))
        keep = [v for v in range(1, n + 1) if rng.random() < 0.6] or [1]
        a = g_star_paths(g, keep)
        b = g_star_closed_form(g, keep)
        order = [v for v in range(1, n + 1) if v not in keep]
        rng.shuffle(order)
        c = g_star_elimination(g, keep, order)
        assert a == b == c


def test_composition_two_step():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(3, 10)
        g = Graph(n, random_edges(rng, n))
        verts = list(range(1, n + 1))
        keep1 = sorted(rng.sample(verts, rng.randint(2, n)))
        keep2 = sorted(rng.sample(keep1, rng.randint(1, len(keep1))))
        direct = g_star_paths(g, keep2)
        two_step = g_star_paths(g_star_paths(g, keep1), keep2)
        assert direct == two_step


# -- induced equality --------------------------------------------------------------


def test_equals_induced_cases(pockets9, sep5):
    assert equals_induced(sep5, [2, 3, 4])
    assert not equals_induced(pockets9, KEEP9)
    assert equals_induced(pockets9, list(range(1, 10)))


def test_equals_induced_matches_edge_sets():
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randint(2, 9)
        g = Graph(n, random_edges(rng, n))
        keep = [v for v in range(1, n + 1) if rng.random() < 0.6] or [1]
        direct = set(g_star_paths(g, keep).edges) == set(g.remove(set(range(1, n + 1)) - set(keep)).edges)
        assert equals_induced(g, keep) == direct
        res = subfield_graph(g, keep)
        assert (res.g_star, res.rho, res.equals_induced) == (g_star_paths(g, keep), boundary_set(g, keep), direct)


def test_boundary_set(sep5, pockets9):
    assert boundary_set(sep5, [2, 3, 4]) == frozenset({2, 3, 4})
    assert boundary_set(pockets9, KEEP9) == frozenset({1, 2, 5, 6, 8, 9})
    res = subfield_graph(pockets9, KEEP9)
    assert res.rho == frozenset({1, 2, 5, 6, 8, 9})
    assert res.g_star == g_star_paths(pockets9, KEEP9)
    assert not res.equals_induced


# -- cutset lifting -----------------------------------------------------------------


def test_cutset_lift_examples(pockets9):
    assert cutset_lift(pockets9, KEEP9, [2, 5])
    assert cutset_lift(pockets9, KEEP9, [1])  # not a separator there: vacuous
    with pytest.raises(ValueError):
        cutset_lift(pockets9, KEEP9, [3])


def test_cutset_lift_sweep():
    rng = random.Random(79)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = Graph(n, random_edges(rng, n))
        keep = [v for v in range(1, n + 1) if rng.random() < 0.6] or [1]
        for r in range(len(keep) + 1):
            for t in itertools.combinations(keep, r):
                assert cutset_lift(g, keep, t)


# -- subtrees ------------------------------------------------------------------------


def test_subtree_fixture_cases(tree12):
    ok = subtree_condition(tree12, [1, 4, 8, 9, 12])
    assert ok.is_subtree and ok.witness_vertex is None
    bad = subtree_condition(tree12, [1, 4, 7, 8, 9, 12])
    assert not bad.is_subtree
    assert bad.witness_vertex == 6
    assert bad.witness_targets == (4, 7, 8)


def test_subtree_rejects_non_trees():
    with pytest.raises(ValueError):
        subtree_condition(Graph.cycle(4), [1, 2])
    with pytest.raises(ValueError):
        subtree_condition(Graph(4, [(1, 2), (3, 4)]), [1, 2])


def test_paths_always_stay_paths():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = Graph.path(n)
        keep = [v for v in range(1, n + 1) if rng.random() < 0.5] or [1]
        assert subtree_condition(g, keep).is_subtree


def test_subtree_condition_equals_tree_check():
    rng = random.Random(89)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        g = Graph(n, random_tree_edges(rng, n))
        keep = [v for v in range(1, n + 1) if rng.random() < 0.55] or [rng.randint(1, n)]
        gs = g_star_paths(g, keep)
        res = subtree_condition(g, keep)
        assert res.is_subtree == is_tree(n, gs.edges, vertices=keep)
        if not res.is_subtree:
            # the witness: a dropped vertex whose component sees three kept
            # vertices, which the boundary graph joins into a triangle
            failures += 1
            assert res.witness_vertex not in keep
            assert len(res.witness_targets) == 3 and set(res.witness_targets) <= set(keep)
            assert all(gs.has_edge(u, v) for u, v in itertools.combinations(res.witness_targets, 2))
    assert failures > 20


# -- smallest representation -----------------------------------------------------------


def test_smallest_graph_two_vanishing_atoms():
    vanishing = AtomSet.of(3, [Atom.of(3, [3]), Atom.of(3, [2])])
    res = smallest_graph(vanishing)
    assert sorted(res.g_hat.edges) == [(2, 3)]
    assert not res.exists
    assert [a.to_text() for a in res.witness_atoms] == ["1 2 3"]


def test_smallest_graph_from_graph_image():
    from imeasure import image_of_graph

    for g in (Graph.cycle(4), Graph.path(5), Graph(4, [(1, 4), (2, 4), (3, 4)])):
        res = smallest_graph(image_of_graph(g))
        assert res.exists and res.g_hat == g


def test_smallest_graph_everything_vanishes():
    everything = AtomSet(3, (1 << 7) - 1)
    res = smallest_graph(everything)
    assert res.exists and res.g_hat.edges == frozenset()


def test_smallest_graph_positive_field_recovers_graph():
    # strictly positive fields admit a smallest representation; degenerate
    # constructions may not, because functional dependencies blank out the
    # pairwise atoms that define the candidate's edges
    from imeasure import generate_mrf, measure_from_distribution, star_xor_witness, vanishing_atoms

    star = Graph(4, [(1, 4), (2, 4), (3, 4)])
    positive = measure_from_distribution(generate_mrf(star, seed=5), 2.0)
    res = smallest_graph(vanishing_atoms(positive, 1e-9))
    assert res.exists and res.g_hat == star

    degenerate = measure_from_distribution(star_xor_witness(star, 4, (1, 2, 3)), 2.0)
    res2 = smallest_graph(vanishing_atoms(degenerate, 1e-9))
    assert res2.g_hat.edges == frozenset()
    assert not res2.exists


# -- minimality witnesses ----------------------------------------------------------------


def test_minimality_witness_chain():
    p6 = Graph.path(6)
    keep = [1, 3, 5, 6]
    w = minimality_witness(p6, keep, (3, 5))
    mu = measure_from_distribution(w, 2.0)
    assert check_mrf(mu, p6, 1e-9).ok
    assert measure_of_expression(mu, [3, 5], [1, 6]) == pytest.approx(1.0)


def test_minimality_witness_direct_edge():
    p6 = Graph.path(6)
    w = minimality_witness(p6, [1, 3, 5, 6], (5, 6))
    assert w.alphabets == (1, 1, 1, 1, 2, 2)  # plain copy on the two endpoints


def test_minimality_witness_through_pocket(pockets9):
    w = minimality_witness(pockets9, KEEP9, (1, 6))
    mu = measure_from_distribution(w, 2.0)
    assert check_mrf(mu, pockets9, 1e-9).ok
    rest = [v for v in KEEP9 if v not in (1, 6)]
    assert measure_of_expression(mu, [1, 6], rest) == pytest.approx(1.0)
    # the copied support runs through the {3,4} pocket
    assert {v for v, a in zip(range(1, 10), w.alphabets) if a > 1} <= {1, 3, 4, 6}


def test_minimality_witness_rejects_non_edges(pockets9):
    with pytest.raises(ValueError):
        minimality_witness(pockets9, KEEP9, (1, 8))


def test_every_boundary_edge_is_necessary():
    rng = random.Random(97)
    for trial in range(25):
        n = rng.randint(3, 7)
        g = Graph(n, random_edges(rng, n, 0.5))
        keep = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        gs = g_star_paths(g, keep)
        for u, v in sorted(gs.edges):
            w = minimality_witness(g, keep, (u, v))
            mu = measure_from_distribution(w, 2.0)
            assert check_mrf(mu, g, 1e-9).ok
            rest = [x for x in keep if x not in (u, v)]
            assert measure_of_expression(mu, [u, v], rest) == pytest.approx(1.0)


# -- marginal measures respect the boundary graph ------------------------------------------


def test_marginal_field_respects_boundary_graph():
    rng = random.Random(101)
    for trial in range(12):
        n = rng.randint(3, 6)
        edges = random_edges(rng, n, 0.5)
        g = Graph(n, edges)
        keep = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        dist = generate_mrf(g, seed=trial)
        h = entropy_vector(dist, 2.0)
        sub_h = restrict_entropy(h, keep)
        sub_mu = mu_from_entropy(sub_h)
        mapping = prefix_relabel(keep)
        gs = g_star_paths(g, keep).relabel(mapping, n=len(keep))
        assert check_mrf(sub_mu, gs, 1e-7).ok
