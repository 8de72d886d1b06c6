import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imeasure import (
    Action,
    Atom,
    AtomSet,
    AtomType,
    DiagramPlan,
    Graph,
    build_plan,
    classify_atom,
    elimination_sequence,
    export_plan,
    image_of_graph,
    parse_plan,
    type_of_atom,
)
from oracles import cross_check_sequence, iter_connected_graphs, random_edges, relabel_atoms


def atom(n, comp):
    return Atom.of(n, comp)


# -- elimination sequences -----------------------------------------------------


def test_chain_prefixes_stay_paths():
    for n in (2, 3, 5, 7):
        seq = elimination_sequence(Graph.path(n))
        for m, g in enumerate(seq, start=1):
            assert g == Graph.path(m)


def test_star_prefix_is_complete():
    star = Graph(4, [(1, 4), (2, 4), (3, 4)])
    seq = elimination_sequence(star)
    assert seq[2] == Graph.complete(3)
    assert seq[3] == star


def test_caterpillar_prefix_is_path(caterpillar6):
    seq = elimination_sequence(caterpillar6)
    assert seq[3] == Graph.path(4)
    assert seq[4] == Graph(5, [(1, 2), (2, 3), (3, 4), (2, 5)])


def test_elimination_matches_path_construction():
    rng = random.Random(103)
    assert cross_check_sequence(Graph.path(5))
    for _ in range(60):
        n = rng.randint(1, 8)
        assert cross_check_sequence(Graph(n, random_edges(rng, n)))


# -- per-atom classification ------------------------------------------------------


def test_classify_include_when_outside_child_disconnects():
    # vertex 3 adjacent to both 1 and 2, no direct 1-2 edge
    g = Graph(3, [(1, 3), (2, 3)])
    seq = elimination_sequence(g)
    assert seq[1] == Graph.path(2)  # eliminating 3 joins 1 and 2
    assert classify_atom(seq, 3, atom(2, [])) is Action.INCLUDE


def test_classify_split_when_both_children_connect():
    g = Graph.complete(3)
    seq = elimination_sequence(g)
    assert classify_atom(seq, 3, atom(2, [])) is Action.SPLIT


def test_classify_chain_step():
    # adding the top chain vertex splits atoms plain in its one neighbor,
    # excludes the rest
    for n in (3, 4, 5):
        seq = elimination_sequence(Graph.path(n))
        for c in range((1 << (n - 1)) - 1):
            a = Atom(n - 1, c)
            if type_of_atom(seq[n - 2], a) is not AtomType.TYPE_I:
                continue
            want = Action.SPLIT if (a.support_mask >> (n - 2)) & 1 else Action.EXCLUDE
            assert classify_atom(seq, n, a) is want


def test_classify_rejects_disconnected_atoms():
    seq = elimination_sequence(Graph.path(4))
    disconnected = atom(3, [2])  # the middle vertex separates the 3-path
    assert type_of_atom(seq[2], disconnected) is AtomType.TYPE_II
    with pytest.raises(ValueError):
        classify_atom(seq, 4, disconnected)
    with pytest.raises(ValueError):
        classify_atom(seq, 2, atom(3, []))  # wrong stage arity


def test_classify_star_hub_stage(star4):
    seq = elimination_sequence(star4)
    step = {a: classify_atom(seq, 4, a) for a in (Atom(3, c) for c in range(7))}
    split = {a for a, act in step.items() if act is Action.SPLIT}
    include = {a for a, act in step.items() if act is Action.INCLUDE}
    assert split == {atom(3, [2, 3]), atom(3, [1, 3]), atom(3, [1, 2])}
    assert include == {atom(3, []), atom(3, [1]), atom(3, [2]), atom(3, [3])}


# -- whole plans --------------------------------------------------------------------


def test_plan_chain_counts():
    for n in range(1, 9):
        plan = build_plan(Graph.path(n))
        assert len(plan.final_type1) == n * (n + 1) // 2


def test_plan_single_vertex():
    plan = build_plan(Graph(1))
    assert plan.steps == ()
    assert len(plan.final_type1) == 1
    assert list(plan.final_type1) == [Atom(1, 0)]


def test_plan_actions_match_child_types():
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = Graph(n, random_edges(rng, n))
        plan = build_plan(g)
        for i, step in enumerate(plan.steps):
            m = i + 2
            g_cur = plan.sequence[m - 1]
            for a, act in step.items():
                inside = Atom(m, a.complemented)
                outside = Atom(m, a.complemented | 1 << (m - 1))
                t_in = type_of_atom(g_cur, inside)
                t_out = type_of_atom(g_cur, outside)
                if act is Action.SPLIT:
                    assert (t_in, t_out) == (AtomType.TYPE_I, AtomType.TYPE_I)
                elif act is Action.INCLUDE:
                    assert (t_in, t_out) == (AtomType.TYPE_I, AtomType.TYPE_II)
                else:
                    assert (t_in, t_out) == (AtomType.TYPE_II, AtomType.TYPE_I)


def walk_alive_atoms(plan: DiagramPlan) -> set[Atom]:
    """Replay the plan's actions and return the atoms left unsuppressed."""
    alive = {Atom(1, 0)}
    for i, step in enumerate(plan.steps):
        m = i + 2
        new_bit = 1 << (m - 1)
        assert set(step) == alive
        nxt = set()
        for a in alive:
            act = step[a]
            if act in (Action.SPLIT, Action.INCLUDE):
                nxt.add(Atom(m, a.complemented))
            if act in (Action.SPLIT, Action.EXCLUDE):
                nxt.add(Atom(m, a.complemented | new_bit))
        nxt.add(Atom(m, ((1 << (m - 1)) - 1)))  # the fresh new-variable atom
        alive = nxt
    return alive


def test_plan_final_consistency():
    rng = random.Random(109)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = Graph(n, random_edges(rng, n))
        plan = build_plan(g)
        alive = walk_alive_atoms(plan)
        assert AtomSet.of(n, alive) == plan.final_type1
        # suppressed atoms are exactly the graph's image
        suppressed = AtomSet(n, ((1 << ((1 << n) - 1)) - 1) & ~plan.final_type1.bits)
        assert suppressed == image_of_graph(g)


def test_suppressed_children_stay_suppressed_small():
    # spot check; the exhaustive sweep lives in the acceptance suite
    for edges in iter_connected_graphs(4):
        g = Graph(4, edges)
        seq = elimination_sequence(g)
        for m in range(2, 5):
            for c in range((1 << (m - 1)) - 1):
                a = Atom(m - 1, c)
                if type_of_atom(seq[m - 2], a) is AtomType.TYPE_II:
                    inside = Atom(m, c)
                    outside = Atom(m, c | 1 << (m - 1))
                    assert type_of_atom(seq[m - 1], inside) is AtomType.TYPE_II
                    assert type_of_atom(seq[m - 1], outside) is AtomType.TYPE_II
                else:
                    classify_atom(seq, m, a)  # never raises for connected atoms


def test_relabeling_robustness_spot(caterpillar6):
    rng = random.Random(113)
    base = build_plan(caterpillar6)
    for _ in range(10):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        mapping = {v: perm[v - 1] for v in range(1, 7)}
        relabeled = caterpillar6.relabel(mapping)
        plan = build_plan(relabeled)
        assert relabel_atoms(base.final_type1, mapping) == plan.final_type1


# -- export --------------------------------------------------------------------------


def test_plan_json_round_trip(caterpillar6):
    plan = build_plan(caterpillar6)
    text = export_plan(plan, "json")
    assert parse_plan(text) == plan
    assert export_plan(plan, "json") == text  # deterministic


DOT_BLOCK = re.compile(
    r"graph \w+ \{\n(?:  \d+;\n)*(?:  \d+ -- \d+;\n)*\}\n"
)


def test_plan_dot_export_syntax(star4):
    dot = export_plan(build_plan(star4), "dot")
    blocks = DOT_BLOCK.findall(dot)
    assert "".join(blocks) == dot
    assert len(blocks) == 4
    for u, v in star4.edges:
        assert f"{u} -- {v};" in blocks[-1]


def test_plan_text_export(star4):
    text = export_plan(build_plan(star4), "text")
    lines = text.splitlines()
    stage4 = lines[lines.index("stage 4: add curve 4") :]
    split_line = next(l for l in stage4 if l.strip().startswith("split"))
    include_line = next(l for l in stage4 if l.strip().startswith("include"))
    assert len(split_line.split(",")) == 3
    assert len(include_line.split(",")) == 4
    assert "kept atoms (11)" in text


def test_export_rejects_unknown_format(star4):
    with pytest.raises(ValueError):
        export_plan(build_plan(star4), "svg")


def test_plan_json_schema_fields(caterpillar6):
    d = json.loads(export_plan(build_plan(caterpillar6), "json"))
    assert set(d) == {"n", "sequence", "steps", "final_type1"}
    assert [s["m"] for s in d["steps"]] == [2, 3, 4, 5, 6]


def dumps_plan(plan: DiagramPlan) -> str:
    """The JSON form by the general encoder, which export_plan must match byte for byte."""
    return json.dumps(plan.to_json(), sort_keys=True, indent=2) + "\n"


def json_by_atoms(plan: DiagramPlan) -> dict:
    """The JSON form built from `steps`, sorting Atom objects."""
    return {
        "n": plan.n,
        "sequence": [g.to_json() for g in plan.sequence],
        "steps": [{"m": m, "actions": [{"atom": a.to_text(), "action": act.value} for a, act in sorted(step.items())]}
                  for m, step in enumerate(plan.steps, start=2)],
        "final_type1": [a.to_text() for a in sorted(plan.final_type1)],
    }


def text_by_atoms(plan: DiagramPlan) -> str:
    """The text form built from `steps`, sorting Atom objects."""
    lines = [f"diagram plan for {plan.n} variables"]
    for m, step in enumerate(plan.steps, start=2):
        lines.append(f"stage {m}: add curve {m}")
        by_action = {a: [] for a in Action}
        for a, act in sorted(step.items()):
            by_action[act].append(str(a))
        lines += [f"  {act.value:8s} {', '.join(by_action[act])}" for act in Action if by_action[act]]
    lines.append(f"kept atoms ({len(plan.final_type1)}): {', '.join(str(a) for a in plan.final_type1)}")
    return "\n".join(lines) + "\n"


@st.composite
def sparse_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else [])


@settings(max_examples=150, deadline=None)
@given(sparse_graphs())
@example(Graph(1))
@example(Graph(7))
@example(Graph(8, [(1, 2), (2, 3), (5, 6), (6, 8), (5, 8)]))
@example(Graph.complete(10))
def test_plan_emitter_matches_the_json_encoder(g):
    plan = build_plan(g)
    text = export_plan(plan)
    assert text == dumps_plan(plan)
    assert plan.to_json() == json_by_atoms(plan)
    parsed = parse_plan(text)
    assert parsed == plan and hash(parsed) == hash(plan)
    assert export_plan(parsed) == text
    assert export_plan(plan, "text") == text_by_atoms(plan)


def test_plan_emitter_on_parsed_plans_the_builder_never_makes():
    # such plans come only from the constructor: from_json rejects them
    built = build_plan(Graph.path(3))
    sequence = (Graph(1, [], vertices=[]), Graph(2, [], vertices=[2]), built.sequence[2])
    no_atom = np.full(1, -1, dtype=np.int8).tobytes()  # a stage that names no atom
    plan = DiagramPlan(3, sequence, (no_atom, built.codes[1]), AtomSet(3))
    d = json.loads(export_plan(built))
    d["sequence"][0]["vertices"] = []  # graphs whose vertex set is not 1..n
    d["sequence"][1]["vertices"] = [2]
    d["sequence"][1]["edges"] = []
    d["steps"][0]["actions"] = []
    d["final_type1"] = []
    assert plan.steps[0] == {} and len(plan.final_type1) == 0
    assert export_plan(plan) == dumps_plan(plan)
    assert plan.to_json() == json_by_atoms(plan) == d
    assert export_plan(plan, "text") == text_by_atoms(plan)
    with pytest.raises(ValueError, match="stage 1 differs"):
        DiagramPlan.from_json(d)


def plan_with(g: Graph, edit) -> dict:
    d = json.loads(export_plan(build_plan(g)))
    edit(d)
    return d


def test_parsed_plan_must_be_the_plan_of_its_last_graph():
    star, path = Graph(4, [(1, 4), (2, 4), (3, 4)]), Graph.path(4)
    assert DiagramPlan.from_json(plan_with(star, lambda d: None)) == build_plan(star)
    for g, edit, message in (
        (star, lambda d: d["sequence"][1].update(n=3), "stage 2 differs"),
        (star, lambda d: d["sequence"][2].update(edges=[[1, 2]], vertices=[1, 2]), "stage 3 differs"),
        (star, lambda d: d["sequence"][3].update(edges=[[1, 4], [2, 4]], vertices=[1, 2, 4]),
         "sequence graph 4 must be a graph on 1..4"),
        # atom 1 2' 3 of the path 1-2-3 is cut by its complemented vertex
        (path, lambda d: d["steps"][2]["actions"].append({"atom": "1 2' 3", "action": "split"}), "stage 4 differs"),
        (star, lambda d: d.update(final_type1=[]), "field 'final_type1' differs"),
    ):
        with pytest.raises(ValueError, match=message) as err:
            DiagramPlan.from_json(plan_with(g, edit))
        assert "\n" not in str(err.value)


def test_plan_codes_are_the_stage_actions():
    plan = build_plan(Graph(4, [(1, 4), (2, 4), (3, 4)]))
    assert len(plan.codes) == 3
    assert [len(c) for c in plan.codes] == [1, 3, 7]
    # stage 4 (the hub): atoms 1 2 3 and those with one complemented leaf are included,
    # those with two are split, the all-complemented one does not exist
    assert list(plan.codes[-1]) == [1, 1, 1, 0, 1, 0, 0]
    disconnected = list(build_plan(Graph.path(4)).codes[-1])
    assert disconnected[0b010] == 0xFF  # atom 1 2' 3: the middle vertex separates the 3-path
