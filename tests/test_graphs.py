import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import Graph, ShapeLabel, classify_shape, clique_edges, maximal_cliques

from oracles import bfs_components, random_edges


def test_components_c4_separator():
    c4 = Graph.cycle(4)
    assert c4.components([2, 4]) == [frozenset({1}), frozenset({3})]


def test_components_remove_everything():
    g = Graph(3, [(1, 2), (2, 3)])
    assert g.components([1, 2, 3]) == []


def test_components_path_middle():
    p5 = Graph.path(5)
    assert p5.components([3]) == [frozenset({1, 2}), frozenset({4, 5})]


def test_is_cutset_examples():
    assert Graph.cycle(4).is_cutset([1, 3])
    for n in (3, 4, 5):
        kn = Graph.complete(n)
        for r in range(n):
            for u in itertools.combinations(range(1, n + 1), r):
                assert not kn.is_cutset(u)
    assert Graph.path(3).is_cutset([2])


def test_remove_keeps_labels():
    c4 = Graph.cycle(4)
    r = c4.remove([2, 4])
    assert r.vertices == (1, 3)
    assert r.edges == frozenset()
    assert c4.remove([]) == c4
    assert Graph.complete(3).remove([3]).edges == frozenset({(1, 2)})


def test_neighbor_set(pockets9):
    assert pockets9.neighbor_set([3, 4]) == frozenset({1, 2, 5, 6})
    assert pockets9.neighbor_set([7]) == frozenset({2, 5, 8, 9})
    assert pockets9.neighbor_set([]) == frozenset()
    assert Graph.path(4).neighbor_set([2]) == frozenset({1, 3})


def test_degree_and_adjacency_check_the_vertex():
    g = Graph.path(3)
    assert [g.degree(v) for v in (1, 2, 3)] == [1, 2, 1]
    assert g.adjacency(2) == 0b101
    for v in (-1, 0, 4):  # -1 used to read vertex 3's entry, 0 the padding entry
        for query in (g.degree, g.adjacency):
            with pytest.raises(ValueError, match=rf"^vertex {v} outside 1\.\.3$"):
                query(v)


def test_clique_edges():
    assert len(clique_edges([1, 2, 5, 6])) == 6
    assert clique_edges([7]) == frozenset()
    assert clique_edges([1, 2]) == frozenset({(1, 2)})


def test_classify_shape_paths_trees():
    for n in (1, 2, 5):
        assert classify_shape(Graph.path(n)) == {ShapeLabel.PATH, ShapeLabel.TREE}
    assert classify_shape(Graph.cycle(4)) == {ShapeLabel.CYCLE}
    star = Graph(4, [(1, 4), (2, 4), (3, 4)])
    assert classify_shape(star) == {ShapeLabel.TREE, ShapeLabel.BRANCHING}
    assert classify_shape(Graph(5, [(1, 2), (4, 5)])) == {ShapeLabel.FOREST_OF_PATHS}
    triangle_plus_isolated = Graph(4, [(1, 2), (2, 3), (1, 3)])
    assert classify_shape(triangle_plus_isolated) == {ShapeLabel.OTHER}


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(25, [])
    with pytest.raises(ValueError):
        Graph(3, [(1, 3)], vertices=[1, 2])


def test_json_and_dot_round_trip(pockets9):
    assert Graph.from_json(pockets9.to_json()) == pockets9
    sub = pockets9.remove([3, 4, 7])
    assert Graph.from_json(sub.to_json()) == sub
    dot = pockets9.to_dot()
    assert dot.startswith("graph g {") and dot.rstrip().endswith("}")
    assert "1 -- 2;" in dot


def test_maximal_cliques():
    g = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4)])
    masks = maximal_cliques(g)
    sets = {frozenset(i + 1 for i in range(5) if (m >> i) & 1) for m in masks}
    assert sets == {frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({5})}


edge_lists = st.integers(min_value=0, max_value=2**45 - 1)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), bits=edge_lists, rbits=st.integers(0, 1023))
def test_components_match_bfs_oracle(n, bits, rbits):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
    removed = {v for v in range(1, n + 1) if (rbits >> (v - 1)) & 1}
    g = Graph(n, edges)
    got = g.components(removed)
    assert got == bfs_components(n, edges, removed)
    # the components partition what is left and are pairwise non-adjacent
    union = set().union(*got) if got else set()
    assert union == set(range(1, n + 1)) - removed
    for c1, c2 in itertools.combinations(got, 2):
        assert not c1 & c2
        for u, v in edges:
            assert not (u in c1 and v in c2) and not (u in c2 and v in c1)
    assert g.is_cutset(removed) == (len(got) > 1)


def test_cutset_survives_edge_removal():
    # a separating set stays separating in any subgraph on the same vertices
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 10)
        edges = list(random_edges(rng, n))
        g = Graph(n, edges)
        sub = Graph(n, [e for e in edges if rng.random() < 0.6])
        for _ in range(8):
            u = [v for v in range(1, n + 1) if rng.random() < 0.3]
            if g.is_cutset(u):
                assert sub.is_cutset(u)


def test_dropped_component_neighborhoods_lie_in_kept_set():
    # components of the dropped region only border kept vertices, so the
    # cliques built on their neighborhoods never touch other dropped vertices
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = Graph(n, random_edges(rng, n))
        keep = {v for v in range(1, n + 1) if rng.random() < 0.6}
        for comp in g.components(list(keep)):
            phi = g.neighbor_set(comp)
            assert phi.isdisjoint(comp)
            assert phi <= keep
            for u, v in clique_edges(phi):
                assert u in phi and v in phi


# -- the connectivity table ----------------------------------------------------


def table_by_bfs(n, edges, vertices=None):
    return [len(bfs_components(n, edges, {v for v in range(1, n + 1) if (u >> (v - 1)) & 1}, vertices)) <= 1
            for u in range(1 << n)]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=0, max_value=8), bits=st.integers(0, 2**28 - 1), vbits=st.integers(0, 255))
def test_connected_table_matches_bfs_oracle(n, bits, vbits):
    keep = {v for v in range(1, n + 1) if not (vbits >> (v - 1)) & 1}  # some vertices removed
    pairs = [(u, v) for u, v in itertools.combinations(sorted(keep), 2)]
    edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
    g = Graph(n, edges, vertices=keep)
    table = g.connected_table()
    assert table.dtype == bool and not table.flags.writeable
    assert table.tolist() == table_by_bfs(n, edges, keep)
    assert g.connected_table() is table  # built once


def test_connected_table_exhaustive_small():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            g = Graph(n, edges)
            want = table_by_bfs(n, edges)
            assert g.connected_table().tolist() == want
            assert [g.component_count(u) <= 1 for u in range(1 << n)] == want
            assert [not g.is_cutset(u) for u in range(1 << n)] == want


def test_connected_table_cap():
    g = Graph.path(17)
    with pytest.raises(ValueError, match="up to 16"):
        g.connected_table()
    assert g.is_connected() and g.is_cutset([5]) and g.component_count([5, 9]) == 3


def test_graph_json_rejects_non_integers():
    for n in (True, 3.7, "3", 0, 25):
        with pytest.raises(ValueError, match="variable count"):
            Graph.from_json({"n": n, "edges": []})
    for e in ([1.5, 2], [True, 2], [1, 2, 3], [1], "12", [1, None]):
        with pytest.raises(ValueError, match="'edges'"):
            Graph.from_json({"n": 3, "edges": [e]})
    for vs in ([1, 2.0], [False, 2], 3):
        with pytest.raises(ValueError, match="'vertices'"):
            Graph.from_json({"n": 3, "edges": [], "vertices": vs})
    with pytest.raises(ValueError, match="exceeds universe"):
        Graph.from_json({"n": 3, "edges": [], "vertices": [1, 10**30]})
    assert Graph.from_json({"n": 3, "edges": [[2, 1]], "vertices": [2, 1]}) == Graph(3, [(1, 2)], vertices=[1, 2])
