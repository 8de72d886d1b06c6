import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import (
    Atom,
    AtomSet,
    AtomType,
    Distribution,
    EntropyVector,
    FCMI,
    Graph,
    IMeasureVector,
    atom_measure_from_distribution,
    chain_inequality_valid,
    check_mrf,
    entropy_from_mu,
    entropy_vector,
    fcmi_holds,
    generate_mrf,
    marginal_entropy,
    measure_from_distribution,
    measure_of_expression,
    measure_of_groups,
    mu_from_entropy,
    nonnegativity_report,
    reduce_atom,
    restrict_entropy,
    star_xor_witness,
    type_of_atom,
    vanishing_atoms,
    verify_reduction,
)

from oracles import (
    conditional_mi,
    entropy_direct,
    fcmi_holds_by_loop,
    image_of_partial_by_loop,
    measure_of_groups_by_loop,
    mu_by_linear_solve,
    mutual_independence_holds,
    random_distribution,
    random_independency,
    restrict_entropy_by_loop,
)


def atom(n, comp):
    return Atom.of(n, comp)


def fair_bits(n):
    return Distribution(n, (2,) * n, {x: 0.5**n for x in itertools.product((0, 1), repeat=n)})


def copied_bit(n):
    return Distribution(n, (2,) * n, {(0,) * n: 0.5, (1,) * n: 0.5})


@pytest.fixture
def star_mu(star4):
    return measure_from_distribution(star_xor_witness(star4, 4, (1, 2, 3)), 2.0)


# -- Distribution -------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(2, (2, 2), {(0, 0): 0.6, (1, 1): 0.6})
    with pytest.raises(ValueError):
        Distribution(2, (2, 2), {(0, 2): 1.0})
    with pytest.raises(ValueError):
        Distribution(2, (2, 2), {(0, 0): 1.5, (1, 1): -0.5})


def test_distribution_constructor_checks_types():
    for alphabets, bad in (([2.9, True], "alphabet size 2.9 is a float, not an integer"),
                           ([2, True], "alphabet size True is a bool, not an integer"),
                           ([2, "2"], "alphabet size '2' is a str, not an integer"),
                           ([None, 2], "alphabet size None is a NoneType, not an integer")):
        with pytest.raises(ValueError, match=rf"^{re.escape(bad)}$"):
            Distribution(2, alphabets, {(0, 0): 1.0})
    for p, bad in (("1.0", "'1.0' is a str"), (None, "None is a NoneType"), (True, "True is a bool")):
        with pytest.raises(ValueError, match=rf"^probability {re.escape(bad)}, not a number$"):
            Distribution(2, (2, 2), {(0, 0): p})
    for alphabets, p in (([np.float64(2), 2], 1.0), ([2, 2], np.bool_(True))):  # numpy reprs vary by version
        with pytest.raises(ValueError, match="not an integer|not a number"):
            Distribution(2, alphabets, {(0, 0): p})
    # numpy scalars stay accepted
    d = Distribution(2, [np.int64(2), np.uint8(3)], {(0, 0): np.float32(0.5), (1, 2): np.float64(0.25), (1, 1): 0.25})
    assert d.alphabets == (2, 3) and d.weights.tolist() == [0.5, 0.25, 0.25]


def test_distribution_rejects_nan_probability():
    with pytest.raises(ValueError, match="non-finite probability nan"):
        Distribution(2, (2, 2), {(0, 0): 1.0, (1, 1): float("nan")})


def test_distribution_rejects_infinite_probability():
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite probability"):
            Distribution(2, (2, 2), {(0, 0): 1.0, (1, 1): bad})


def test_distribution_json_rejects_duplicate_rows():
    d = {"n": 2, "alphabets": [2, 2], "probs": [
        {"x": [0, 0], "p": 0.5}, {"x": [1, 1], "p": 0.25}, {"x": [0, 0], "p": 0.25}]}
    with pytest.raises(ValueError, match=r"duplicate configuration \(0, 0\) in probs rows 0 and 2"):
        Distribution.from_json(d)


def test_distribution_json_variable_count_must_be_an_integer():
    row = {"x": [0], "p": 1.0}
    for n in (True, 1.0, 1.5, "1", 0, 25):
        with pytest.raises(ValueError, match="variable count"):
            Distribution.from_json({"n": n, "alphabets": [1], "probs": [row]})
    assert Distribution.from_json({"n": 1, "alphabets": [1], "probs": [row]}).n == 1


def test_log_base_must_be_finite_and_above_one(xor3):
    a = Atom.of(3, [])
    h = entropy_vector(xor3, 2.0)
    for bad in (float("nan"), math.inf, 1.0, 0.5, -2.0):
        for call in (
            lambda: entropy_vector(xor3, bad),
            lambda: marginal_entropy(xor3, [1], bad),
            lambda: atom_measure_from_distribution(xor3, a, bad),
            lambda: measure_from_distribution(xor3, bad),
            lambda: EntropyVector(3, bad, h.table),
        ):
            with pytest.raises(ValueError, match="log base"):
                call()


def test_distribution_marginal_and_json(xor3):
    marg = xor3.marginal([1, 3])
    assert marg == {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
    assert Distribution.from_json(xor3.to_json()).probs == xor3.probs


# -- entropy vectors ------------------------------------------------------------


def test_entropy_two_fair_bits():
    h = entropy_vector(fair_bits(2), 2.0)
    assert h.h([1]) == pytest.approx(1.0)
    assert h.h([2]) == pytest.approx(1.0)
    assert h.h([1, 2]) == pytest.approx(2.0)


def test_entropy_star_distribution(star4):
    h = entropy_vector(star_xor_witness(star4, 4, (1, 2, 3)), 2.0)
    for i in (1, 2, 3):
        assert h.h([i]) == pytest.approx(1.0)
    assert h.h([4]) == pytest.approx(2.0)
    assert h.h([1, 2, 3, 4]) == pytest.approx(2.0)


def test_entropy_monotone_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        p = Distribution(n, (2,) * n, random_distribution(rng, n))
        h = entropy_vector(p, 2.0)
        for m in range(1, 1 << n):
            for b in range(n):
                sup = m | (1 << b)
                if sup != m:
                    assert h.h(m) <= h.h(sup) + 1e-9


def test_entropy_vector_json_round_trip(xor3):
    h = entropy_vector(xor3, 2.0)
    assert EntropyVector.from_json(h.to_json()).allclose(h, 0.0)
    bad = h.to_json()
    del bad["h"]["1,2"]
    with pytest.raises(ValueError):
        EntropyVector.from_json(bad)


# -- the atom measure -------------------------------------------------------------


def test_xor_triple_interaction(xor3):
    mu = measure_from_distribution(xor3, 2.0)
    assert mu.value(atom(3, [])) == pytest.approx(-1.0)
    assert mu.value(atom(3, [3])) == pytest.approx(1.0)
    assert mu.value(atom(3, [2, 3])) == pytest.approx(0.0)


def test_single_variable_measure():
    p = Distribution(1, (4,), {(0,): 0.25, (1,): 0.25, (2,): 0.25, (3,): 0.25})
    mu = measure_from_distribution(p, 2.0)
    assert mu.value(atom(1, [])) == pytest.approx(2.0)


def test_measure_matches_linear_system_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        probs = random_distribution(rng, n)
        p = Distribution(n, (2,) * n, probs)
        h = entropy_vector(p, 2.0)
        mu = mu_from_entropy(h)
        ref = mu_by_linear_solve(lambda m: h.h(m), n)
        assert np.allclose(mu.table, ref, atol=1e-8)


def test_entropy_mu_round_trip_random():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        p = Distribution(n, (2,) * n, random_distribution(rng, n))
        h = entropy_vector(p, 2.0)
        back = entropy_from_mu(mu_from_entropy(h))
        assert back.allclose(h, 1e-9)


def test_entropy_from_zero_measure():
    from imeasure import IMeasureVector

    mu = IMeasureVector(3, 2.0, np.zeros(8))
    h = entropy_from_mu(mu)
    assert np.all(h.table == 0.0)


def test_measure_consistency_invariant():
    # summing atoms inside the union over B reproduces h(B)
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(2, 5)
        p = Distribution(n, (2,) * n, random_distribution(rng, n))
        h = entropy_vector(p, 2.0)
        mu = mu_from_entropy(h)
        for b in range(1, 1 << n):
            total = sum(v for a, v in mu.atoms() if a.support_mask & b)
            assert total == pytest.approx(h.h(b), abs=1e-6)


def test_single_atom_query_matches_table(xor3):
    mu = measure_from_distribution(xor3, 2.0)
    for a, v in mu.atoms():
        assert atom_measure_from_distribution(xor3, a, 2.0) == pytest.approx(v, abs=1e-12)


def test_single_atom_query_beyond_table_cap():
    # 20 variables exceeds the full-table cap but single atoms still work
    n = 20
    p = Distribution(n, (2,) * n, {(0,) * n: 0.5, (1,) * n: 0.5})
    a = Atom.of(n, range(3, n + 1))  # plain on {1,2} only
    assert atom_measure_from_distribution(p, a, 2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        entropy_vector(p, 2.0)


# -- expressions --------------------------------------------------------------------


def test_expression_examples(star_mu):
    assert measure_of_expression(star_mu, [1, 2, 3]) == pytest.approx(-1.0)
    # entropies and conditional entropies through the measure
    n = star_mu.n
    for i in range(1, n + 1):
        rest = [v for v in range(1, n + 1) if v != i]
        h_i = measure_of_expression(star_mu, [i])
        h_cond = measure_of_expression(star_mu, [i], rest)
        assert h_cond >= -1e-9
        assert h_i >= h_cond - 1e-9


def test_expression_group_unions(xor3):
    mu = measure_from_distribution(xor3, 2.0)
    # measure of (union of 1,2) meet 3 equals I(X1,X2 ; X3)
    got = measure_of_groups(mu, [[1, 2], [3]])
    want = conditional_mi(xor3.probs, {1, 2}, {3}, set())
    assert got == pytest.approx(want, abs=1e-9)


def test_expression_validation(star_mu):
    with pytest.raises(ValueError):
        measure_of_expression(star_mu, [])
    with pytest.raises(ValueError):
        measure_of_expression(star_mu, [1], [1, 2])


def test_expression_matches_direct_information_quantities():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 5)
        p = Distribution(n, (2,) * n, random_distribution(rng, n))
        mu = measure_from_distribution(p, 2.0)
        verts = list(range(1, n + 1))
        for _ in range(6):
            rng.shuffle(verts)
            i, j = verts[0], verts[1]
            cond = verts[2 : 2 + rng.randint(0, n - 2)]
            got = measure_of_expression(mu, [i, j], cond)
            want = conditional_mi(p.probs, {i}, {j}, set(cond))
            assert got == pytest.approx(want, abs=1e-9)


# -- independency checks ---------------------------------------------------------------


def test_fcmi_holds_star(star4, star_mu):
    assert fcmi_holds(FCMI.of(4, [4], [[1], [2], [3]]), star_mu)
    assert not fcmi_holds(FCMI.of(4, [], [[1], [2, 3, 4]]), star_mu)
    # direct check that the failing statement really fails by definition
    w = star_xor_witness(star4, 4, (1, 2, 3))
    assert conditional_mi(w.probs, {1}, {2, 3, 4}, set()) == pytest.approx(1.0)


def test_fcmi_holds_independent_bits():
    mu = measure_from_distribution(fair_bits(3), 2.0)
    k_any = [
        FCMI.of(3, [], [[1], [2], [3]]),
        FCMI.of(3, [2], [[1], [3]]),
        FCMI.of(3, [], [[1, 2], [3]]),
    ]
    for k in k_any:
        assert fcmi_holds(k, mu)


def test_fcmi_holds_partial_statements(star4):
    w = star_xor_witness(star4, 4, (1, 2, 3))
    mu = measure_from_distribution(w, 2.0)
    assert fcmi_holds(FCMI.of(4, [], [[1], [2]]), mu)  # bits on 1,2 independent
    # pairwise independent: scope {1,3} statement holds too
    assert fcmi_holds(FCMI.of(4, [], [[1], [3]]), mu)
    # but given the parity leaf, 1 and 2 are dependent
    assert not fcmi_holds(FCMI.of(4, [3], [[1], [2]]), mu)


def test_copied_bit_pairwise_but_not_joint_independence():
    # with zero probability masses, both conditional statements can hold
    # while the joint one fails; this is why the smallest representation
    # does not always exist
    mu = measure_from_distribution(copied_bit(3), 2.0)
    assert fcmi_holds(FCMI.of(3, [3], [[1], [2]]), mu)
    assert fcmi_holds(FCMI.of(3, [2], [[1], [3]]), mu)
    assert not fcmi_holds(FCMI.of(3, [], [[1], [2, 3]]), mu)


def test_check_mrf_star_and_chain(star4, star_mu):
    assert check_mrf(star_mu, star4).ok
    res = check_mrf(star_mu, Graph.path(4))
    assert not res.ok
    assert all(type_of_atom(Graph.path(4), a) is AtomType.TYPE_II for a, _ in res.violations)


def test_vanishing_atoms_copied_bit():
    mu = measure_from_distribution(copied_bit(3), 2.0)
    expected = AtomSet.of(3, [atom(3, c) for c in ([3], [2], [1], [2, 3], [1, 3], [1, 2])])
    assert vanishing_atoms(mu, 1e-9) == expected


def test_vanishing_atoms_independent_bits():
    # only the single-variable atoms carry measure; everything else vanishes
    mu = measure_from_distribution(fair_bits(3), 2.0)
    singles = AtomSet.of(3, [atom(3, [2, 3]), atom(3, [1, 3]), atom(3, [1, 2])])
    got = vanishing_atoms(mu, 1e-9)
    assert len(got) == 4
    assert all(a not in got for a in singles)
    assert all(a in got or a in singles for a in AtomSet(3, (1 << 7) - 1))


# -- reduction ---------------------------------------------------------------------


def test_reduce_atom_known_cores(bridges8):
    assert reduce_atom(bridges8, atom(8, [1, 3])).kept == frozenset({2, 7, 8})
    assert reduce_atom(bridges8, atom(8, [1, 2, 8])).kept == frozenset({3, 4, 6, 7})


def test_reduce_atom_chain_intervals():
    for n in (3, 4, 5, 6):
        g = Graph.path(n)
        for l in range(1, n + 1):
            for u in range(l + 1, n + 1):
                comp = [v for v in range(1, n + 1) if not l <= v <= u]
                if len(comp) > n - 2:
                    continue
                a = atom(n, comp)
                if type_of_atom(g, a) is AtomType.TYPE_I:
                    assert reduce_atom(g, a).kept == frozenset({l, u})


def test_reduce_atom_complete_graph_identity():
    g = Graph.complete(5)
    a = atom(5, [4])
    assert reduce_atom(g, a).kept == frozenset({1, 2, 3, 5})


def test_reduce_atom_rejections():
    p3 = Graph.path(3)
    with pytest.raises(ValueError):
        reduce_atom(p3, atom(3, [2]))  # disconnected atom
    with pytest.raises(ValueError):
        reduce_atom(p3, atom(3, [2, 3]))  # single plain variable


def test_verify_reduction_random_fields():
    rng = random.Random(47)
    trials = 0
    while trials < 25:
        n = rng.randint(3, 6)
        g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        if not g.is_connected():
            continue
        trials += 1
        mu = measure_from_distribution(generate_mrf(g, seed=trials), 2.0)
        for c in range((1 << n) - 1):
            a = Atom(n, c)
            if a.weight >= 2 and type_of_atom(g, a) is AtomType.TYPE_I:
                assert verify_reduction(g, a, mu, 1e-6)


# -- chain inequalities ----------------------------------------------------------------


def test_chain_inequality_all_nonnegative():
    coeffs = {atom(4, [1, 4]): 1.0, atom(4, []): 0.25}
    res = chain_inequality_valid(coeffs)
    assert res.valid and res.witness is None
    assert chain_inequality_valid({}).valid


def test_chain_inequality_negative_coefficient():
    coeffs = {atom(4, [1, 4]): 1.0, atom(4, [4]): -0.5}
    res = chain_inequality_valid(coeffs)
    assert not res.valid
    assert res.violating_atom == atom(4, [4])
    mu = measure_from_distribution(res.witness, 2.0)
    total = sum(coeffs.get(a, 0.0) * v for a, v in mu.atoms())
    assert total < 0
    assert check_mrf(mu, Graph.path(4), 1e-9).ok


def test_chain_inequality_rejects_disconnected_atoms():
    with pytest.raises(ValueError):
        chain_inequality_valid({atom(3, [2]): 1.0})


# -- nonnegativity ----------------------------------------------------------------------


def test_nonnegativity_reports(star_mu):
    rep = nonnegativity_report(star_mu, 1e-9)
    assert not rep.nonneg
    assert [(a.to_text(), round(v)) for a, v in rep.negative_atoms] == [("1 2 3 4", -1)]
    chain_mu = measure_from_distribution(generate_mrf(Graph.path(4), seed=3), 2.0)
    assert nonnegativity_report(chain_mu, 1e-7).nonneg


def test_nonnegativity_ring_full_atom():
    from imeasure import FieldSpec, ring_field_witness

    mu = measure_from_distribution(ring_field_witness(4, FieldSpec(3), (1, 2)), 3.0)
    rep = nonnegativity_report(mu, 1e-9)
    assert [(a.to_text(), round(v)) for a, v in rep.negative_atoms] == [("1 2 3 4", -2)]


def test_forest_of_paths_nonnegative():
    rng = random.Random(53)
    for trial in range(20):
        sizes = (rng.randint(1, 3), rng.randint(1, 3))
        n = sum(sizes)
        edges = []
        start = 1
        for s in sizes:
            edges += [(i, i + 1) for i in range(start, start + s - 1)]
            start += s
        g = Graph(n, edges)
        mu = measure_from_distribution(generate_mrf(g, seed=trial), 2.0)
        assert nonnegativity_report(mu, 1e-7).nonneg
        assert check_mrf(mu, g, 1e-7).ok


# -- random field generator ----------------------------------------------------------------


def test_generate_mrf_chain_independency():
    d = generate_mrf(Graph.path(3), seed=1)
    assert mutual_independence_holds(d.probs, {2}, [{1}, {3}], tol=1e-9)
    mu = measure_from_distribution(d, 2.0)
    assert fcmi_holds(FCMI.of(3, [2], [[1], [3]]), mu, 1e-9)


def test_generate_mrf_isolated_vertices_product():
    d = generate_mrf(Graph(2, []), seed=2)
    marg1, marg2 = d.marginal([1]), d.marginal([2])
    for (x1,), p1 in marg1.items():
        for (x2,), p2 in marg2.items():
            assert d.probs[(x1, x2)] == pytest.approx(p1 * p2, abs=1e-12)


def test_generate_mrf_cycle_respects_graph():
    c4 = Graph.cycle(4)
    mu = measure_from_distribution(generate_mrf(c4, seed=4), 2.0)
    assert check_mrf(mu, c4, 1e-7).ok


def test_check_mrf_agrees_with_probabilistic_independence():
    # the atom-level verdict coincides with definition-level conditional
    # independence across every separator of the graph
    rng = random.Random(59)
    for trial in range(15):
        n = rng.randint(3, 5)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        d = generate_mrf(g, seed=trial)
        mu = measure_from_distribution(d, 2.0)
        assert check_mrf(mu, g, 1e-7).ok
        for c in range((1 << n) - 1):
            comps = g.components(c)
            if len(comps) > 1:
                given = Atom(n, c).complemented_set
                assert mutual_independence_holds(d.probs, given, comps, tol=1e-7)


def test_check_mrf_failure_matches_failed_independence(star4):
    # the parity field breaks the 4-path because dropping vertex 2 leaves
    # {1} and {3,4} which are plainly dependent
    w = star_xor_witness(star4, 4, (1, 2, 3))
    mu = measure_from_distribution(w, 2.0)
    assert not check_mrf(mu, Graph.path(4)).ok
    assert not mutual_independence_holds(w.probs, {2}, [{1}, {3, 4}], tol=1e-9)


def test_ring_connected_atoms_are_cyclic_intervals():
    def cyclically_consecutive(vs, n):
        if not vs or len(vs) == n:
            return True
        vset = set(vs)
        # some rotation makes the set an initial run
        return any(
            all(((s + i - 1) % n) + 1 in vset for i in range(len(vs)))
            for s in range(1, n + 1)
        )

    for n in (4, 5, 6, 7):
        g = Graph.cycle(n)
        for c in range((1 << n) - 1):
            a = Atom(n, c)
            is_type1 = type_of_atom(g, a) is AtomType.TYPE_I
            assert is_type1 == cyclically_consecutive(sorted(a.complemented_set), n)


def test_ring_fields_negative_only_on_full_atom():
    # every connected atom except the full one reduces to a pairwise
    # dependence, so only the full atom can dip below zero
    for n, seed in ((4, 0), (5, 1), (6, 2)):
        g = Graph.cycle(n)
        mu = measure_from_distribution(generate_mrf(g, seed=seed), 2.0)
        for a, v in mu.atoms():
            if a.weight < n:
                assert v >= -1e-7


def test_chain_interval_atoms_reduce_to_endpoints():
    # an interval atom's value equals the dependence of its endpoints given
    # the complemented set
    rng = random.Random(151)
    for trial in range(10):
        n = rng.randint(3, 6)
        g = Graph.path(n)
        mu = measure_from_distribution(generate_mrf(g, seed=trial), 2.0)
        for l in range(1, n + 1):
            for u in range(l + 1, n + 1):
                comp = [v for v in range(1, n + 1) if not l <= v <= u]
                a = Atom.of(n, comp)
                endpoint_value = measure_of_expression(mu, [l, u], comp)
                assert mu.value(a) == pytest.approx(endpoint_value, abs=1e-7)
                assert endpoint_value >= -1e-9


def test_generate_mrf_strictly_positive_and_seeded():
    g = Graph.path(4)
    d1, d2 = generate_mrf(g, seed=9), generate_mrf(g, seed=9)
    assert d1.probs == d2.probs
    assert len(d1.probs) == 16 and all(p > 0 for p in d1.probs.values())


# -- base handling -----------------------------------------------------------------------


def test_log_base_scaling(xor3):
    h2 = entropy_vector(xor3, 2.0)
    h4 = entropy_vector(xor3, 4.0)
    assert np.allclose(h2.table, 2.0 * h4.table)
    with pytest.raises(ValueError):
        entropy_vector(xor3, 1.0)
    assert marginal_entropy(xor3, [], 2.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_hypothesis_measure_round_trip(n, seed):
    rng = random.Random(seed)
    p = Distribution(n, (2,) * n, random_distribution(rng, n))
    h = entropy_vector(p, 2.0)
    assert entropy_from_mu(mu_from_entropy(h)).allclose(h, 1e-9)


def signed_zero_measure(k: FCMI, seed: int, vanish: float) -> IMeasureVector:
    """A measure mixing unit-scale and 1e-10-scale values with +0.0 and -0.0
    entries, in which each part of k's image is all -0.0 with chance `vanish`."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << k.n) * rng.choice([1.0, 1e-10], size=1 << k.n)
    table[rng.random(1 << k.n) < 0.2] = 0.0
    table[rng.random(1 << k.n) < 0.2] = -0.0
    for part in image_of_partial_by_loop(k):
        if rng.random() < vanish:
            table[part.cmasks()] = -0.0
    return IMeasureVector(k.n, 2.0, table)


def assert_selections_match_loops(k: FCMI, mu: IMeasureVector, groups, minus: int):
    sums = [abs(sum(mu.table[c] for c in part.cmasks())) for part in image_of_partial_by_loop(k)]
    for tol in (0.0, 1e-9, 1e-6, 1.0, sums[len(sums) // 2], max(sums)):  # a tol equal to a part's |sum|
        assert fcmi_holds(k, mu, tol) == fcmi_holds_by_loop(k, mu.table, tol)
    for gs, m in ((list(k.groups), k.given), (groups, minus)):
        got = np.float64(measure_of_groups(mu, gs, m)).tobytes()
        assert got == np.float64(measure_of_groups_by_loop(mu.table, k.n, gs, m)).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    full=st.booleans(),
    vanish=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_group_measures_and_verdicts_match_loops(n, seed, full, vanish):
    rng = random.Random(seed)
    k = FCMI.of(n, *random_independency(rng, n, full))
    minus = rng.getrandbits(n) & rng.getrandbits(n) & ~(1 << rng.randrange(n))
    free = ((1 << n) - 1) & ~minus
    groups = [q for q in (rng.getrandbits(n) & free for _ in range(rng.randint(1, 4))) if q] or [free]
    assert_selections_match_loops(k, signed_zero_measure(k, seed, vanish), groups, minus)


def test_group_measures_and_verdicts_match_loops_at_sixteen():
    k = FCMI.of(16, [16], [[1, 2, 3, 4], [5, 6, 7], [8, 9]])  # 10..15 outside the scope
    assert_selections_match_loops(k, signed_zero_measure(k, 16, 0.5), [0b1010_0000_0000_0001, 0b110], 1 << 10)


def test_group_measure_of_signed_zeros_is_positive_zero():
    mu = IMeasureVector(3, 2.0, np.full(8, -0.0))
    assert np.float64(measure_of_groups(mu, [[1], [2]])).tobytes() == np.float64(0.0).tobytes()


# -- input boundary ------------------------------------------------------------------------

BAD_TOLS = (math.nan, math.inf, -math.inf, -1.0, -1e-12)


def test_tolerance_must_be_finite_and_nonnegative(star4, star_mu):
    checks = (
        lambda tol: check_mrf(star_mu, star4, tol),
        lambda tol: vanishing_atoms(star_mu, tol),
        lambda tol: fcmi_holds(FCMI.of(4, [4], [[1], [2], [3]]), star_mu, tol),
        lambda tol: nonnegativity_report(star_mu, tol),
        lambda tol: verify_reduction(star4, Atom.of(4, []), star_mu, tol),
    )
    for check in checks:
        check(0.0)
        check(1e-9)
        for tol in BAD_TOLS:
            with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
                check(tol)


def test_measure_json_variable_count_is_checked_before_allocation():
    from imeasure import IMeasureVector

    for n in (40, 0, -1, 17, True, 2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="variable count"):
            EntropyVector.from_json({"n": n, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1,2": 2.0}})
        with pytest.raises(ValueError, match="variable count"):
            IMeasureVector.from_json({"n": n, "base": 2.0, "values": {"1 2": 1.0}})


def test_measure_json_rejects_non_finite_values():
    from imeasure import IMeasureVector

    for bad in (math.nan, math.inf, -math.inf, "NaN", "inf"):
        with pytest.raises(ValueError, match="non-finite entropy .* at subset 1,2"):
            EntropyVector.from_json({"n": 2, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1,2": bad}})
        with pytest.raises(ValueError, match="non-finite measure .* at atom 1 2'"):
            IMeasureVector.from_json({"n": 2, "base": 2.0, "values": {"1 2": 1.0, "1 2'": bad}})
    with pytest.raises(ValueError, match="non-finite entropy"):
        EntropyVector(2, 2.0, np.array([0.0, 1.0, math.nan, 2.0]))


def test_table_paths_match_per_atom_definitions():
    # check_mrf, vanishing_atoms and the measure JSON read whole tables; compare
    # them with the per-atom definitions on random fields and graphs
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = Graph(n, [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        mu = measure_from_distribution(Distribution(n, (2,) * n, random_distribution(rng, n)), 2.0)
        mu.table[rng.randrange((1 << n) - 1)] = 0.0
        tol = 1e-9
        cut = [c for c in range((1 << n) - 1) if g.is_cutset(c)]
        want = [(Atom(n, c), float(mu.table[c])) for c in cut if abs(mu.table[c]) > tol]
        res = check_mrf(mu, g, tol)
        assert res.violations == tuple(want) and res.ok == (not want)
        van = vanishing_atoms(mu, tol)
        assert list(van) == [Atom(n, c) for c in range((1 << n) - 1) if abs(mu.table[c]) <= tol]
        values = mu.to_json()["values"]
        assert list(values) == [Atom(n, c).to_text() for c in range((1 << n) - 1)]
        assert list(values.values()) == [float(v) for v in mu.table[:-1]]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), data=st.data())
def test_restrict_entropy_gathers_the_loop_bit_for_bit(n, data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table = rng.normal(size=1 << n)
    table[rng.random(1 << n) < 0.2] = -0.0  # signed zeros must survive too
    h = EntropyVector(n, 2.0, table)
    keep = data.draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, unique=True))
    got = restrict_entropy(h, keep)
    assert (got.n, got.base) == (len(keep), 2.0)
    assert got.table.tobytes() == restrict_entropy_by_loop(h, keep).tobytes()
