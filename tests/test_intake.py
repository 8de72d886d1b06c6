"""The input rules every JSON reader and CLI input shares (README "Input rules")."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imeasure import (
    Atom,
    DiagramPlan,
    Distribution,
    Graph,
    IMeasureVector,
    atom_concentrator,
    build_plan,
    export_plan,
    measure_from_distribution,
    subtree_condition,
)
from imeasure._labels import BAR, atom_cmasks, atom_texts
from imeasure.cli import main

from conftest import fixture_path

HUGE = 10**30


# -- vertices are range-checked before any shift ------------------------------------------


def test_library_vertex_lists_are_bounded_before_any_shift():
    want = f"^vertex {HUGE} exceeds universe 1..3$"
    with pytest.raises(ValueError, match=want):
        atom_concentrator(3, [1, HUGE])
    with pytest.raises(ValueError, match=want):
        Atom.of(3, [HUGE])
    with pytest.raises(ValueError, match=want):
        subtree_condition(Graph.path(3), [1, HUGE])
    with pytest.raises(ValueError, match=want):
        Graph.path(3).relabel({1: 1, 2: 2, 3: HUGE})
    with pytest.raises(ValueError, match="^vertex 0 is not 1-based$"):
        Atom.of(3, [0])


# -- measure JSON names every atom exactly once --------------------------------------------


def test_measure_json_must_name_every_atom_once():
    values = {"1 2": 1.0, "1 2'": 0.5, "1' 2": 0.25}
    mu = IMeasureVector.from_json({"n": 2, "base": 2.0, "values": values})
    assert mu.table.tolist() == [1.0, 0.25, 0.5, 0.0]  # "1 2'" complements variable 2: mask 2
    with pytest.raises(ValueError, match="^measure JSON must name all 3 atoms, got 1$"):
        IMeasureVector.from_json({"n": 2, "base": 2.0, "values": {"1 2": 1.0}})
    clash = {"1 2'": 0.5, "2' 1": 0.5, "1 2": 1.0}
    with pytest.raises(ValueError, match="^measure JSON keys \"1 2'\" and \"2' 1\" name the same atom$"):
        IMeasureVector.from_json({"n": 2, "base": 2.0, "values": clash})
    for base in ("2", True, None):
        with pytest.raises(ValueError, match="^log base .* at measure JSON field 'base' is a [a-zA-Z]+, not a number$"):
            IMeasureVector.from_json({"n": 2, "base": base, "values": values})


def test_measure_json_round_trip_reads_in_bulk(xor3):
    mu = measure_from_distribution(xor3)
    d = json.loads(json.dumps(mu.to_json()))
    assert np.array_equal(IMeasureVector.from_json(d).table, mu.table)
    d["values"] = dict(reversed(list(d["values"].items())))  # any key order
    assert np.array_equal(IMeasureVector.from_json(d).table, mu.table)


# -- atom texts: the bulk reader gives Atom.from_text's verdicts ------------------------------


def from_text_verdict(texts, n):
    try:
        return [Atom.from_text(t, n).complemented for t in texts]
    except ValueError:
        return ValueError


def bulk_verdict(texts, n):
    try:
        return atom_cmasks(texts, n, "atoms")
    except ValueError:
        return ValueError


ODD_TEXTS = [
    "1 2" + BAR + " 3",  # the macron form
    "2 1 3",  # non-canonical order
    "1  2 3",  # a double space
    "1' 2' 3'",  # the all-complemented atom
    "1 2 4",  # a vertex outside 1..3
    "1 2 3 4",
    "1 2'' 3",
    " 1 2 3",
    "1 2 3\n",
    "1 2",
    "",
    "1 2 x",
]


def test_library_configurations_may_be_unsigned():
    u8 = np.uint8
    d = Distribution(2, [2, 3], {(u8(1), u8(2)): 0.5, (u8(0), u8(0)): 0.5})
    assert d.support.tolist() == [[0, 0], [1, 2]] and d.support.dtype == np.int64
    top = np.uint64(2**63)  # wraps negative in int64, so the alphabet check rejects it
    with pytest.raises(ValueError, match="outside the alphabets"):
        Distribution(2, [2, 2], {(top, np.uint64(0)): 1.0})


def test_atom_text_reader_matches_from_text():
    canonical = atom_texts(3, range(7))
    assert bulk_verdict(canonical, 3) == list(range(7))
    for odd in ODD_TEXTS:
        texts = canonical[:3] + [odd] + canonical[3:]
        assert bulk_verdict(texts, 3) == from_text_verdict(texts, 3), odd
    assert bulk_verdict([], 3) == []
    with pytest.raises(ValueError, match="atom text must be a string, got 5"):
        atom_cmasks(["1 2 3", 5], 3, "atoms")


EDITS = [
    lambda t: t,
    lambda t: t.replace("'", BAR),
    lambda t: " ".join(reversed(t.split())),
    lambda t: t.replace(" ", "  ", 1),
    lambda t: t.rsplit(" ", 1)[0],  # drops the last variable
    lambda t: t + " 17",
    lambda t: t.replace(" 9", " 9'", 1),  # complements 9, or doubles its apostrophe
    lambda t: t.replace(" 9", " 9 9", 1),
    lambda t: t.replace(" 9", "", 1),
]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.data())
def test_atom_text_reader_matches_from_text_at_every_size(n, data):
    # texts span both label pieces from n = 9 on; mask 2^n - 1 is the all-complemented atom
    texts = atom_texts(n, data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4)))
    i = data.draw(st.integers(0, len(texts) - 1))
    texts[i] = data.draw(st.sampled_from(EDITS))(texts[i])
    assert bulk_verdict(texts, n) == from_text_verdict(texts, n)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="123' " + BAR, max_size=9), max_size=4), st.integers(1, 4))
def test_atom_text_reader_matches_from_text_on_any_text(texts, n):
    assert bulk_verdict(texts, n) == from_text_verdict(texts, n)


def test_plan_json_reads_the_verdicts_of_from_text(caterpillar6):
    d = json.loads(export_plan(build_plan(caterpillar6)))
    assert DiagramPlan.from_json(d) == build_plan(caterpillar6)
    row = d["steps"][1]["actions"][0]  # stage 3: atoms over 1..2
    text = row["atom"]
    for odd, ok in ((text.replace("'", BAR), True),
                    (" ".join(reversed(text.split())), True),
                    (text.replace(" ", "  "), True),
                    ("1' 2'", False),
                    ("1 3", False)):
        row["atom"] = odd
        if ok:
            assert DiagramPlan.from_json(d) == build_plan(caterpillar6), odd
        else:
            with pytest.raises(ValueError):
                DiagramPlan.from_json(d)
    row["atom"] = text
    twice = json.loads(json.dumps(d))
    twice["steps"][1]["actions"].append({"atom": text, "action": "exclude"})
    for bad, message in (({**d, "n": "6"}, "variable count"),
                         ({**d, "n": 6.0}, "variable count"),
                         ({**d, "steps": {}}, "'steps' must be a list"),
                         ({k: v for k, v in d.items() if k != "steps"}, "missing field 'steps'"),
                         ({**d, "steps": d["steps"][:2]}, "needs 6 graphs and 5 steps"),
                         ({**d, "sequence": d["sequence"][1:]}, "needs 6 graphs and 5 steps"),
                         (twice, "step 3 names an atom twice")):
        with pytest.raises(ValueError, match=message):
            DiagramPlan.from_json(bad)


# -- every CLI input: exit 0, 1 or 2, and never an exception ----------------------------------

VERDICTS = {"check-mrf", "smallest", "subtree", "implies"}  # and recover --target fcmi

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
VERTEX_TEXT = (
    st.lists(st.integers(-1, 5) | st.just(HUGE), max_size=4).map(lambda vs: ",".join(map(str, vs)))
    | st.sampled_from(["1,2,3", "1,,2", "a", "1.5"])
)
FLAG_VALUES = {
    "<number>": st.sampled_from(["2", "3", "1e-9", "0", "-1", "nan", "inf", "1e400", "", "x"]) | st.text(max_size=5),
    "<vertices>": VERTEX_TEXT,
    "<hub>": st.sampled_from(["4", "1", "0", "-1", "99", str(HUGE), "x"]),
}


def _seeds() -> dict:
    fcmi = {"n": 3, "T": [], "Q": [[1], [2], [3]]}
    return {
        "graph": json.loads(fixture_path("star4.json").read_text()),
        "dist": json.loads(fixture_path("xor3.json").read_text()),
        "entropy": {"n": 3, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1,2": 2.0, "3": 1.0, "1,3": 2.0, "2,3": 2.0, "1,2,3": 2.0}},
        "atoms": {"n": 3, "atoms": [[1], [2, 3], []]},
        "fcmi": fcmi,
        "fcmis": [fcmi, {"n": 3, "T": [3], "Q": [[1], [2]]}],
        "subfield": {"graph": json.loads(fixture_path("p4.json").read_text()), "V_prime": [1, 4]},
    }


SEEDS = _seeds()

COMMANDS = [  # argv templates: {kind} is a JSON file, <...> a drawn flag value
    ["entropy", "--dist", "{dist}", "--base=<number>"],
    ["mu", "--entropy", "{entropy}", "--format", "text"],
    ["mu", "--dist", "{dist}", "--base=<number>"],
    ["check-mrf", "--dist", "{dist}", "--graph", "{graph}", "--tol=<number>"],
    ["check-mrf", "--entropy", "{entropy}", "--graph", "{graph}"],
    ["image", "--graph", "{graph}"],
    ["image", "--fcmi", "{fcmi}"],
    ["recover", "--atoms", "{atoms}", "--target", "fcmi"],
    ["recover", "--atoms", "{atoms}", "--target", "graph"],
    ["subfield", "--graph", "{graph}", "--vp=<vertices>"],
    ["subfield", "--input", "{subfield}"],
    ["smallest", "--atoms", "{atoms}", "--tol=<number>"],
    ["smallest", "--dist", "{dist}"],
    ["subtree", "--graph", "{graph}", "--vp=<vertices>"],
    ["diagram", "plan", "--graph", "{graph}"],
    ["witness", "star", "--graph", "{graph}", "--hub=<hub>", "--leaves=<vertices>"],
    ["implies", "--pi1", "{fcmis}", "--pi2", "{fcmis}"],
]


def _paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, kind):
    """A seed payload with at most one node replaced by random JSON or dropped."""
    value = json.loads(json.dumps(SEEDS[kind]))
    path = draw(st.sampled_from(list(_paths(value))))
    how = draw(st.sampled_from(["keep", "replace", "drop"]))
    if how == "keep":
        return value
    new = draw(JSON_VALUES)
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value


@st.composite
def cli_calls(draw):
    argv, files = [], {}
    for arg in draw(st.sampled_from(COMMANDS)):
        if arg.startswith("{"):
            kind = arg[1:-1]
            if kind not in files:  # implies reads one list as both --pi1 and --pi2
                files[kind] = draw(mutated(kind))
            arg = kind + ".json"
        elif "=<" in arg:
            flag, value = arg.split("=")
            arg = flag + "=" + draw(FLAG_VALUES[value])
        argv.append(arg)
    return argv, files


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_calls())
def test_cli_exits_zero_one_or_two_on_any_input(call):
    argv, files = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for kind, value in files.items():
            with open(os.path.join(tmp, kind + ".json"), "w") as fh:
                json.dump(value, fh)
        argv = [os.path.join(tmp, a) if a.endswith(".json") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
    if code == 1:
        assert argv[0] in VERDICTS or argv[0] == "recover" and argv[-1] == "fcmi"
