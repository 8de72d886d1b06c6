import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import (
    Atom,
    AtomSet,
    AtomType,
    FCMI,
    Graph,
    NotAnFcmiImage,
    all_atoms,
    image_of_collection,
    image_of_fcmi,
    image_of_graph,
    image_of_partial,
    implies,
    recover_fcmi,
    recover_graph,
    type_of_atom,
)
from imeasure._labels import atom_complements, atom_texts

from oracles import image_of_fcmi_by_parts, iter_full_independencies, random_full_independency, random_edges


def atom(n, comp):
    return Atom.of(n, comp)


def atoms(n, *comps):
    return AtomSet.of(n, [atom(n, c) for c in comps])


def iter_fcmis(n):
    for given, groups in iter_full_independencies(n):
        yield FCMI.of(n, given, groups)


# -- Atom ---------------------------------------------------------------------


def test_atom_count_and_weight():
    got = list(all_atoms(3))
    assert len(got) == 7
    a = atom(4, [2, 4])
    assert a.weight == 2
    assert a.support == frozenset({1, 3})
    with pytest.raises(ValueError):
        atom(3, [1, 2, 3])  # everything complemented is the empty set


def test_atom_text_forms():
    a = atom(3, [2])
    assert a.to_text() == "1 2' 3"
    assert str(a) == "1 2̄ 3"
    assert Atom.from_text("1 2' 3") == a
    assert Atom.from_text(str(a)) == a
    assert Atom.from_text("10' 1 2 3 4 5 6 7 8 9", n=10) == atom(10, [10])
    with pytest.raises(ValueError):
        Atom.from_text("1 3")
    assert Atom.from_json(a.to_json()) == a


def test_atom_set_operations():
    s = atoms(3, [2], [3])
    assert len(s) == 2
    assert atom(3, [2]) in s
    assert atom(3, []) not in s
    t = s | atoms(3, [])
    assert len(t) == 3
    assert s.issubset(t) and not t.issubset(s)
    assert (t - s) == atoms(3, [])
    assert AtomSet.from_json(s.to_json()) == s


# -- images ---------------------------------------------------------------------


def test_image_of_mutual_independence():
    k = FCMI.of(3, [], [[1], [2], [3]])
    assert image_of_fcmi(k) == atoms(3, [3], [2], [1], [])


def test_image_single_pair_given_rest():
    k = FCMI.of(3, [3], [[1], [2]])
    assert image_of_fcmi(k) == atoms(3, [3])
    k2 = FCMI.of(2, [], [[1], [2]])
    assert image_of_fcmi(k2) == atoms(2, [])


def test_image_two_routes_agree_exhaustively():
    for n in (2, 3, 4):
        for k in iter_fcmis(n):
            assert image_of_fcmi(k) == image_of_fcmi_by_parts(k)


def test_image_two_routes_agree_random():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(4, 9)
        given, groups = random_full_independency(rng, n)
        k = FCMI.of(n, given, groups)
        assert image_of_fcmi(k) == image_of_fcmi_by_parts(k)


def test_image_unique_max_weight_atom():
    for n in (3, 4):
        for k in iter_fcmis(n):
            img = image_of_fcmi(k)
            best = max(img, key=lambda a: a.weight)
            assert sum(1 for a in img if a.weight == best.weight) == 1
            assert best.complemented_set == k.given_set


def test_image_of_partial_expansion():
    k = FCMI.of(3, [], [[1], [2]])  # scope {1,2} inside 3 variables
    parts = image_of_partial(k)
    assert parts == [atoms(3, [3], [])]
    # full statements expand to singletons covering the image
    kf = FCMI.of(3, [], [[1], [2], [3]])
    singles = image_of_partial(kf)
    assert all(len(p) == 1 for p in singles)
    union = singles[0]
    for p in singles[1:]:
        union = union | p
    assert union == image_of_fcmi(kf)


def test_fcmi_validation():
    with pytest.raises(ValueError):
        FCMI.of(4, [2], [[1]])  # fewer than two groups
    with pytest.raises(ValueError):
        FCMI.of(4, [1], [[1], [2]])  # overlap with the given set
    with pytest.raises(ValueError):
        FCMI.of(4, [], [[1], []])  # empty group
    with pytest.raises(ValueError):
        image_of_fcmi(FCMI.of(4, [], [[1], [2]]))  # partial where full is required


# -- recovery ---------------------------------------------------------------------


def test_recover_fcmi_examples():
    img = atoms(3, [3], [2], [1], [])
    assert recover_fcmi(img) == FCMI.of(3, [], [[1], [2], [3]])
    assert recover_fcmi(atoms(3, [3])) == FCMI.of(3, [3], [[1], [2]])


def test_recover_fcmi_rejects_non_images():
    with pytest.raises(NotAnFcmiImage):
        recover_fcmi(atoms(3, [3], []))
    with pytest.raises(NotAnFcmiImage):
        recover_fcmi(AtomSet(3))
    # exhaustively: every 3-variable atom set that is some image round-trips,
    # everything else raises
    images = {image_of_fcmi(k): k for k in iter_fcmis(3)}
    for bits in range(1 << 7):
        s = AtomSet(3, bits)
        if s in images:
            assert image_of_fcmi(recover_fcmi(s)) == s
        else:
            with pytest.raises(NotAnFcmiImage):
                recover_fcmi(s)


def test_recover_fcmi_round_trip_exhaustive():
    for n in (2, 3, 4, 5):
        for k in iter_fcmis(n):
            assert recover_fcmi(image_of_fcmi(k)) == k


def test_recover_fcmi_round_trip_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(6, 12)
        given, groups = random_full_independency(rng, n)
        k = FCMI.of(n, given, groups)
        assert recover_fcmi(image_of_fcmi(k)) == k


# -- graphs and atoms ---------------------------------------------------------------


def test_type_of_atom():
    c4 = Graph.cycle(4)
    assert type_of_atom(c4, atom(4, [2, 4])) is AtomType.TYPE_II
    assert type_of_atom(c4, atom(4, [])) is AtomType.TYPE_I
    assert type_of_atom(Graph.path(3), atom(3, [2])) is AtomType.TYPE_II


def test_image_of_graph_examples():
    assert image_of_graph(Graph.cycle(4)) == atoms(4, [2, 4], [1, 3])
    for n in (2, 3, 4, 5):
        assert image_of_graph(Graph.complete(n)) == AtomSet(n)
    assert image_of_graph(Graph.path(3)) == atoms(3, [2])


def test_image_of_graph_is_union_of_cutset_images():
    # the direct separator test agrees with unioning, over every separator,
    # the image of the independency it induces on the components
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = Graph(n, random_edges(rng, n))
        union = AtomSet(n)
        for c in range((1 << n) - 1):
            comps = g.components(c)
            if len(comps) > 1:
                k = FCMI.of(n, Atom(n, c).complemented_set, comps)
                union = union | image_of_fcmi(k)
        assert union == image_of_graph(g)


def test_image_of_graph_monotone_in_edges():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 8)
        edges = list(random_edges(rng, n))
        g = Graph(n, edges)
        sub = Graph(n, [e for e in edges if rng.random() < 0.6])
        # fewer edges means more separators, hence a larger image
        assert image_of_graph(g).issubset(image_of_graph(sub))


def test_edge_iff_private_atom_absent():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        g = Graph(n, random_edges(rng, n))
        img = image_of_graph(g)
        full = (1 << n) - 1
        for u, v in itertools.combinations(range(1, n + 1), 2):
            private = Atom(n, full & ~((1 << (u - 1)) | (1 << (v - 1))))
            assert g.has_edge(u, v) == (private not in img)


def test_recover_graph_round_trip_exhaustive():
    for n in (2, 3, 4, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            assert recover_graph(image_of_graph(g)) == g


def test_recover_graph_round_trip_random():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(6, 10)
        g = Graph(n, random_edges(rng, n))
        assert recover_graph(image_of_graph(g)) == g


def test_recover_graph_empty_image_gives_complete():
    assert recover_graph(AtomSet(4)) == Graph.complete(4)


# -- collections ----------------------------------------------------------------------


def test_distinct_collections_equal_images():
    pi1 = [FCMI.of(3, [], [[1], [2], [3]])]
    pi2 = [FCMI.of(3, [], [[1, 2], [3]]), FCMI.of(3, [3], [[1], [2]])]
    assert pi1 != pi2
    assert image_of_collection(pi1) == image_of_collection(pi2)
    assert implies(pi1, pi2) and implies(pi2, pi1)


def test_implies_monotone_and_strict():
    k1 = FCMI.of(3, [], [[1], [2], [3]])
    k2 = FCMI.of(3, [3], [[1], [2]])
    assert implies([k1, k2], [k1])
    assert implies([k1], [k2])
    assert not implies([k2], [k1])


# -- labels, the big-int bridge and atom-set JSON -----------------------------------


def test_labels_match_atom_methods():
    for n in range(1, 11):
        cs = range((1 << n) - 1)
        assert atom_texts(n, cs) == [Atom(n, c).to_text() for c in cs]
        assert atom_complements(n, cs) == [sorted(Atom(n, c).complemented_set) for c in cs]
    assert atom_texts(16, [0, 1 << 8, (1 << 16) - 2]) == [Atom(16, c).to_text() for c in (0, 1 << 8, (1 << 16) - 2)]


def test_flags_bridge_partial_last_byte():
    for n in (1, 2, 3, 4, 16):
        size = (1 << n) - 1  # 1, 3, 7, 15 and 65535 flags: the last byte is partial
        rng = np.random.default_rng(n)
        flags = rng.random(size) < 0.5
        s = AtomSet.from_flags(n, flags)
        assert s.bits == sum(1 << int(c) for c in np.flatnonzero(flags))
        assert np.array_equal(s.flags(), flags)
        assert s.cmasks() == np.flatnonzero(flags).tolist()
        assert AtomSet.from_flags(n, np.ones(size, dtype=bool)).bits == (1 << size) - 1
    with pytest.raises(ValueError):
        AtomSet.from_flags(3, np.zeros(8, dtype=bool))


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(list(range(1, 11)) + [16]), seed=st.integers(0, 2**32 - 1), density=st.floats(0, 1))
def test_atom_set_json_round_trip(n, seed, density):
    flags = np.random.default_rng(seed).random((1 << n) - 1) < density
    s = AtomSet.from_flags(n, flags)
    d = json.loads(json.dumps(s.to_json()))
    assert d == {"n": n, "atoms": [sorted(a.complemented_set) for a in s]}
    assert AtomSet.from_json(d) == s


def test_atom_set_json_accepts_loose_lists():
    d = {"n": 4, "atoms": [[3, 1], [2, 2], [1, 3], [], [4, 1, 3, 1]]}  # unsorted, repeated vertex, repeated atom
    assert AtomSet.from_json(d) == atoms(4, [1, 3], [2], [], [1, 3, 4])
    assert AtomSet.from_json({"n": 2, "atoms": []}) == AtomSet(2)


def test_atom_set_json_rejections():
    def err(d):
        with pytest.raises(ValueError) as e:
            AtomSet.from_json(d)
        return str(e.value)

    for n in (True, 3.0, 17, 0):
        assert "variable count" in err({"n": n, "atoms": []})
    assert "'atoms'" in err({"n": 3, "atoms": [[1.5]]})
    assert "'atoms'" in err({"n": 3, "atoms": [[True]]})
    assert "'atoms'" in err({"n": 3, "atoms": [3]})
    assert "'atoms'" in err({"n": 3, "atoms": "12"})
    assert err({"n": 3, "atoms": [[1], [0]]}) == "vertex 0 is not 1-based"
    assert err({"n": 3, "atoms": [[1], [10**30]]}) == "vertex 1000000000000000000000000000000 exceeds universe 1..3"
    assert err({"n": 3, "atoms": [[1], [3, 2, 1]]}) == "complemented mask 0b111 must be a proper subset of 1..3"
    # the first faulty atom decides the message
    assert err({"n": 3, "atoms": [[1, 2, 3], [0]]}) == "complemented mask 0b111 must be a proper subset of 1..3"


def test_single_atom_and_independency_json_need_integers():
    assert Atom.from_json({"n": 20, "complemented": [20, 1]}) == Atom.of(20, [1, 20])
    for bad in ({"n": True, "complemented": []}, {"n": 2.5, "complemented": []}, {"n": 3, "complemented": [1.0]}):
        with pytest.raises(ValueError):
            Atom.from_json(bad)
    k = FCMI.from_json({"n": 4, "T": [4], "Q": [[2, 1], [3]]})
    assert k == FCMI.of(4, [4], [[1, 2], [3]])
    for bad, field in (({"n": 4.0, "T": [], "Q": [[1], [2]]}, "variable count"),
                       ({"n": 4, "T": [True], "Q": [[1], [2]]}, "'T'"),
                       ({"n": 4, "T": [], "Q": [[1], [2.5]]}, "'Q'"),
                       ({"n": 4, "T": [], "Q": 12}, "'Q'")):
        with pytest.raises(ValueError, match=field):
            FCMI.from_json(bad)


def test_atom_typing_caps_at_sixteen_vertices():
    g = Graph.path(17)
    with pytest.raises(ValueError, match="up to 16"):
        type_of_atom(g, Atom(17, 0))
    assert type_of_atom(Graph.path(16), Atom.of(16, [8])) is AtomType.TYPE_II
