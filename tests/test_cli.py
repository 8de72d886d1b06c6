import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import AtomSet, Distribution, FCMI, Graph
from imeasure.cli import main

from conftest import fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


XOR3 = str(fixture_path("xor3.json"))
C4 = str(fixture_path("c4.json"))
P4 = str(fixture_path("p4.json"))
RING4 = str(fixture_path("ring4_gf3.json"))
POCKETS9 = str(fixture_path("graph_pockets9.json"))
TREE12 = str(fixture_path("tree12.json"))
STAR4 = str(fixture_path("star4.json"))


def test_entropy_command(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--dist", XOR3, "--base", "2")
    assert code == 0
    d = json.loads(out)
    assert d["h"]["1,2,3"] == pytest.approx(2.0)
    assert d["h"]["1"] == pytest.approx(1.0)


def test_mu_command_triple_atom(capsys):
    code, out, _ = run_cli(capsys, "mu", "--dist", XOR3, "--base", "2")
    assert code == 0
    d = json.loads(out)
    assert d["values"]["1 2 3"] == pytest.approx(-1.0)
    assert d["values"]["1 2 3'"] == pytest.approx(1.0)


def test_mu_from_entropy_file(capsys, tmp_path):
    _, hout, _ = run_cli(capsys, "entropy", "--dist", XOR3)
    hpath = tmp_path / "h.json"
    hpath.write_text(hout)
    code, out, _ = run_cli(capsys, "mu", "--entropy", str(hpath))
    assert code == 0
    assert json.loads(out)["values"]["1 2 3"] == pytest.approx(-1.0)


def test_mu_text_format(capsys):
    code, out, _ = run_cli(capsys, "mu", "--dist", XOR3, "--format", "text")
    assert code == 0
    assert "1 2 3'\t1" in out


def test_mu_output_reparses(capsys):
    from imeasure import IMeasureVector

    _, out, _ = run_cli(capsys, "mu", "--dist", XOR3)
    mu = IMeasureVector.from_json(json.loads(out))
    assert mu.value_at(0) == pytest.approx(-1.0)


def test_mu_rejects_both_sources(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mu", "--dist", XOR3, "--entropy", XOR3)
    assert code == 2 and "not both" in err


def test_check_mrf_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "check-mrf", "--dist", RING4, "--graph", C4, "--base", "3")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli(capsys, "check-mrf", "--dist", RING4, "--graph", P4, "--base", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["violations"]


def test_image_graph_and_fcmi(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "image", "--graph", C4)
    assert code == 0
    assert json.loads(out) == {"n": 4, "atoms": [[1, 3], [2, 4]]}
    kpath = write_json(tmp_path, "k.json", {"n": 3, "T": [], "Q": [[1], [2], [3]]})
    code, out, _ = run_cli(capsys, "image", "--fcmi", kpath)
    assert code == 0
    assert len(json.loads(out)["atoms"]) == 4


def test_recover_graph_round_trip(capsys, tmp_path):
    _, img_out, _ = run_cli(capsys, "image", "--graph", C4)
    apath = tmp_path / "img.json"
    apath.write_text(img_out)
    code, out, _ = run_cli(capsys, "recover", "--atoms", str(apath), "--target", "graph")
    assert code == 0
    assert Graph.from_json(json.loads(out)) == Graph.cycle(4)


def test_recover_fcmi_and_failure(capsys, tmp_path):
    good = write_json(tmp_path, "good.json", {"n": 3, "atoms": [[3]]})
    code, out, _ = run_cli(capsys, "recover", "--atoms", good, "--target", "fcmi")
    assert code == 0
    assert json.loads(out) == {"n": 3, "T": [3], "Q": [[1], [2]]}
    bad = write_json(tmp_path, "bad.json", {"n": 3, "atoms": [[3], []]})
    code, out, _ = run_cli(capsys, "recover", "--atoms", bad, "--target", "fcmi")
    assert code == 1
    assert json.loads(out)["recovered"] is False


def test_subfield_command(capsys):
    code, out, _ = run_cli(capsys, "subfield", "--graph", POCKETS9, "--vp", "1,2,5,6,8,9")
    assert code == 0
    d = json.loads(out)
    assert d["equals_induced"] is False
    assert d["rho"] == [1, 2, 5, 6, 8, 9]
    got = {tuple(e) for e in d["g_star"]["edges"]}
    assert (1, 6) in got and (2, 9) in got and len(got) == 11


def test_subfield_combined_input(capsys, tmp_path):
    g = json.loads(fixture_path("graph_sep5.json").read_text())
    ipath = write_json(tmp_path, "in.json", {"graph": g, "V_prime": [2, 3, 4]})
    code, out, _ = run_cli(capsys, "subfield", "--input", ipath)
    assert code == 0
    d = json.loads(out)
    assert d["equals_induced"] is True
    assert {tuple(e) for e in d["g_star"]["edges"]} == {(2, 3), (3, 4)}


def test_subfield_dot_output(capsys):
    code, out, _ = run_cli(capsys, "subfield", "--graph", POCKETS9, "--vp", "1,2,5,6,8,9",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("graph g_star {")


def test_smallest_command(capsys, tmp_path):
    apath = write_json(tmp_path, "a2.json", {"n": 3, "atoms": [[3], [2]]})
    code, out, _ = run_cli(capsys, "smallest", "--atoms", apath)
    assert code == 1  # no smallest representation exists here
    d = json.loads(out)
    assert d["exists"] is False
    assert d["g_hat"]["edges"] == [[2, 3]]
    assert d["witness_atoms"]["atoms"] == [[]]


def test_smallest_from_distribution(capsys, tmp_path):
    copied = Distribution(3, (2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    dpath = write_json(tmp_path, "copied.json", copied.to_json())
    code, out, _ = run_cli(capsys, "smallest", "--dist", dpath, "--tol", "1e-9")
    assert code == 1
    assert json.loads(out)["exists"] is False


def test_subtree_command(capsys):
    code, out, _ = run_cli(capsys, "subtree", "--graph", TREE12, "--vp", "1,4,8,9,12")
    assert code == 0 and json.loads(out)["is_subtree"] is True
    code, out, _ = run_cli(capsys, "subtree", "--graph", TREE12, "--vp", "1,4,7,8,9,12")
    assert code == 1
    d = json.loads(out)
    assert d["witness"] == {"dropped_vertex": 6, "targets": [4, 7, 8]}


def test_diagram_command(capsys):
    code, out, _ = run_cli(capsys, "diagram", "plan", "--graph", STAR4)
    assert code == 0
    d = json.loads(out)
    assert [s["m"] for s in d["steps"]] == [2, 3, 4]
    code, text, _ = run_cli(capsys, "diagram", "plan", "--graph", STAR4, "--format", "text")
    assert code == 0 and "kept atoms (11)" in text


def test_witness_commands(capsys):
    code, out, _ = run_cli(capsys, "witness", "ring", "--n", "4", "--field", "3",
                           "--alphas", "1,2")
    assert code == 0
    Distribution.from_json(json.loads(out))  # parses back
    code, out, _ = run_cli(capsys, "witness", "star", "--graph", STAR4, "--hub", "4",
                           "--leaves", "1,2,3")
    assert code == 0
    d = Distribution.from_json(json.loads(out))
    assert d.alphabets == (2, 2, 2, 4)
    code, out, _ = run_cli(capsys, "witness", "atom", "--n", "3", "--support", "1,2")
    assert code == 0
    assert Distribution.from_json(json.loads(out)).alphabets == (2, 2, 1)


def test_implies_command(capsys, tmp_path):
    pi1 = write_json(tmp_path, "pi1.json", [{"n": 3, "T": [], "Q": [[1], [2], [3]]}])
    pi2 = write_json(
        tmp_path,
        "pi2.json",
        [{"n": 3, "T": [], "Q": [[1, 2], [3]]}, {"n": 3, "T": [3], "Q": [[1], [2]]}],
    )
    code, out, _ = run_cli(capsys, "implies", "--pi1", pi1, "--pi2", pi2)
    assert code == 0 and json.loads(out)["implies"] is True
    code, out, _ = run_cli(capsys, "implies", "--pi1", pi2, "--pi2", pi1)
    assert code == 0
    pi3 = write_json(tmp_path, "pi3.json", [{"n": 3, "T": [3], "Q": [[1], [2]]}])
    code, out, _ = run_cli(capsys, "implies", "--pi1", pi3, "--pi2", pi1)
    assert code == 1 and json.loads(out)["implies"] is False


def test_malformed_json_exits_two(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 3')
    code, _, err = run_cli(capsys, "mu", "--dist", str(broken))
    assert code == 2 and "malformed JSON" in err
    missing = write_json(tmp_path, "missing.json", {"n": 3, "alphabets": [2, 2, 2]})
    code, _, err = run_cli(capsys, "mu", "--dist", str(missing))
    assert code == 2 and "probs" in err


def test_image_rejects_partial_statement(capsys, tmp_path):
    kpath = write_json(tmp_path, "partial.json", {"n": 4, "T": [], "Q": [[1], [2]]})
    code, _, err = run_cli(capsys, "image", "--fcmi", kpath)
    assert code == 2 and "full" in err


def test_over_cap_exits_two(capsys, tmp_path):
    big = write_json(tmp_path, "big.json", {"n": 30, "edges": []})
    code, _, err = run_cli(capsys, "subfield", "--graph", big, "--vp", "1,2")
    assert code == 2 and "error:" in err


def _dist_with_row(tmp_path, p_text):
    # JSON has no NaN or Infinity literals, but Python's json module reads them
    p = tmp_path / "d.json"
    p.write_text('{"n": 2, "alphabets": [2, 2], "probs": [{"x": [0, 0], "p": 1.0}, '
                 '{"x": [1, 1], "p": %s}]}' % p_text)
    return str(p)


def assert_input_error(code, out, err, needle):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and needle in err


def test_nan_probability_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "mu", "--dist", _dist_with_row(tmp_path, "NaN"))
    assert_input_error(code, out, err, "non-finite probability nan")


def test_infinite_probability_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "entropy", "--dist", _dist_with_row(tmp_path, "Infinity"))
    assert_input_error(code, out, err, "non-finite probability inf")


def test_duplicate_rows_exit_two(capsys, tmp_path):
    d = {"n": 2, "alphabets": [2, 2], "probs": [{"x": [0, 1], "p": 0.5}, {"x": [0, 1], "p": 0.5}]}
    code, out, err = run_cli(capsys, "mu", "--dist", write_json(tmp_path, "d.json", d))
    assert_input_error(code, out, err, "duplicate configuration (0, 1) in probs rows 0 and 1")


def test_bad_log_base_exits_two(capsys):
    for base in ("nan", "inf", "1", "0.5"):
        code, out, err = run_cli(capsys, "entropy", "--dist", XOR3, "--base", base)
        assert_input_error(code, out, err, "log base must be a finite number above 1")


def test_missing_input_exits_two(capsys):
    code, _, err = run_cli(capsys, "mu")
    assert code == 2 and "supply" in err
    code, _, err = run_cli(capsys, "entropy", "--dist", "/nonexistent/file.json")
    assert code == 2


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "diagram", "plan", "--graph", POCKETS9)
    _, out2, _ = run_cli(capsys, "diagram", "plan", "--graph", POCKETS9)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "mu", "--dist", RING4, "--base", "3")
    _, out4, _ = run_cli(capsys, "mu", "--dist", RING4, "--base", "3")
    assert out3 == out4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "imeasure", "image", "--graph", C4],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["atoms"] == [[1, 3], [2, 4]]


def test_bad_tolerance_exits_two(capsys):
    for tol in ("nan", "inf", "-1"):
        code, out, err = run_cli(capsys, "check-mrf", "--dist", str(fixture_path("star4_dist.json")),
                                 "--graph", P4, "--tol", tol)
        assert_input_error(code, out, err, "tolerance must be a finite number >= 0")
        code, out, err = run_cli(capsys, "smallest", "--dist", XOR3, "--tol", tol)
        assert_input_error(code, out, err, "tolerance must be a finite number >= 0")


def test_oversized_entropy_json_exits_two(capsys, tmp_path):
    for n in (40, 17, True, 2.5):
        hpath = write_json(tmp_path, "h.json", {"n": n, "base": 2.0, "h": {"1": 1.0}})
        code, out, err = run_cli(capsys, "mu", "--entropy", hpath)
        assert_input_error(code, out, err, "variable count")


def test_non_finite_entropy_json_exits_two(capsys, tmp_path):
    hpath = tmp_path / "h.json"
    for bad in ("NaN", "Infinity", '"NaN"', "-Infinity"):
        hpath.write_text('{"n": 2, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1,2": %s}}' % bad)
        code, out, err = run_cli(capsys, "mu", "--entropy", str(hpath))
        assert_input_error(code, out, err, "non-finite entropy")
        code, out, err = run_cli(capsys, "check-mrf", "--entropy", str(hpath), "--graph", C4)
        assert_input_error(code, out, err, "non-finite entropy")


def test_smallest_atoms_path_checks_tolerance(capsys):
    atoms_path = str(Path(__file__).parent / "golden" / "inputs" / "smallest_none3.json")
    code, _, _ = run_cli(capsys, "smallest", "--atoms", atoms_path)
    assert code == 1
    for tol in ("nan", "inf", "-1"):
        code, out, err = run_cli(capsys, "smallest", "--atoms", atoms_path, "--tol", tol)
        assert_input_error(code, out, err, "tolerance must be a finite number >= 0")


def test_closed_stdout_exits_141_quietly():
    r, w = os.pipe()
    os.close(r)  # nobody will read: the first write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "imeasure", "mu", "--dist", XOR3, "--format", "text"],
            stdout=w, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_json_counts_and_vertices_must_be_integers(capsys, tmp_path):
    for n in (True, 3.7):
        gpath = write_json(tmp_path, "g.json", {"n": n, "edges": []})
        code, out, err = run_cli(capsys, "image", "--graph", gpath)
        assert_input_error(code, out, err, "variable count must be an integer")
    gpath = write_json(tmp_path, "g.json", {"n": 3, "edges": [[1.5, 2]]})
    code, out, err = run_cli(capsys, "image", "--graph", gpath)
    assert_input_error(code, out, err, "graph JSON field 'edges' holds [1.5, 2]")
    apath = write_json(tmp_path, "a.json", {"n": 3, "atoms": [[1], [2.0]]})
    code, out, err = run_cli(capsys, "recover", "--atoms", apath, "--target", "graph")
    assert_input_error(code, out, err, "atom set JSON field 'atoms' holds 2.0")
    kpath = write_json(tmp_path, "k.json", [{"n": 3, "T": [], "Q": [[1], [False]]}])
    code, out, err = run_cli(capsys, "implies", "--pi1", kpath, "--pi2", kpath)
    assert_input_error(code, out, err, "independency JSON field 'Q' holds False")
    dpath = write_json(tmp_path, "d.json", {"n": 1.0, "alphabets": [2], "probs": [{"x": [0], "p": 1.0}]})
    code, out, err = run_cli(capsys, "entropy", "--dist", dpath)
    assert_input_error(code, out, err, "variable count must be an integer")


def test_entropy_json_keys_naming_one_subset_exit_two(capsys, tmp_path):
    hpath = write_json(tmp_path, "h.json", {"n": 2, "base": 2.0, "h": {"1": 1.0, "2,1": 2.0, "1,2": 2.0}})
    code, out, err = run_cli(capsys, "mu", "--entropy", hpath)
    assert_input_error(code, out, err, "entropy JSON keys '2,1' and '1,2' name the same subset")


def test_entropy_json_field_h_must_be_an_object(capsys, tmp_path):
    hpath = write_json(tmp_path, "h.json", {"n": 2, "base": 2.0, "h": [1.0]})
    code, out, err = run_cli(capsys, "mu", "--entropy", hpath)
    assert_input_error(code, out, err, "entropy JSON field 'h' must be an object, got list")


def test_entropy_json_huge_numbers_exit_two(capsys, tmp_path):
    hpath = write_json(tmp_path, "h.json", {"n": 2, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1," + "9" * 30: 2.0}})
    code, out, err = run_cli(capsys, "mu", "--entropy", hpath)
    assert_input_error(code, out, err, "names vertex " + "9" * 30 + " outside 1..2")
    hpath = write_json(tmp_path, "h.json", {"n": 2, "base": 2.0, "h": {"1": 1.0, "2": 1.0, "1,2": 10**400}})
    code, out, err = run_cli(capsys, "mu", "--entropy", hpath)
    assert_input_error(code, out, err, "too large to convert to float")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
SUBSET_KEYS = st.sampled_from(["1", "2", "1,2", "2,1", "1,1", "3", "0", "", "1,", "x", "9" * 30])


@settings(max_examples=150, deadline=None)
@given(h=JSON_VALUES | st.dictionaries(SUBSET_KEYS, JSON_VALUES, max_size=4))
def test_entropy_json_h_of_any_type_exits_zero_or_two(h):
    with tempfile.TemporaryDirectory() as tmp:
        hpath = os.path.join(tmp, "h.json")
        with open(hpath, "w") as fh:
            json.dump({"n": 2, "base": 2.0, "h": h}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["mu", "--entropy", hpath])
    if code == 0:
        assert json.loads(out.getvalue())["n"] == 2 and err.getvalue() == ""
    else:
        assert_input_error(code, out.getvalue(), err.getvalue(), "")


def test_subfield_json_v_prime_must_list_integer_vertices(capsys, tmp_path):
    g = json.loads(fixture_path("graph_sep5.json").read_text())
    for keep, needle in (([1.7, True, "3"], "subfield JSON field 'V_prime' holds 1.7"),
                         ([2, True], "subfield JSON field 'V_prime' holds True"),
                         (5, "subfield JSON field 'V_prime' must be a list of vertices"),
                         ([2, 6], "vertex 6 exceeds universe 1..5")):
        ipath = write_json(tmp_path, "in.json", {"graph": g, "V_prime": keep})
        code, out, err = run_cli(capsys, "subfield", "--input", ipath)
        assert_input_error(code, out, err, needle)


def test_distribution_json_alphabets_must_be_integers(capsys, tmp_path):
    for alphabets in ([2.9, True], [2, 2.0], [2, "2"], 2):
        d = {"n": 2, "alphabets": alphabets, "probs": [{"x": [0, 0], "p": 1.0}]}
        code, out, err = run_cli(capsys, "entropy", "--dist", write_json(tmp_path, "d.json", d))
        assert_input_error(code, out, err, "distribution JSON field 'alphabets' must be a list of integers")


# -- input rules: each case exits 2 with one stderr line ----------------------------


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "image", "--graph", str(deep))
    assert_input_error(code, out, err, "JSON nested too deeply")


def test_distribution_symbols_and_probabilities_must_be_numbers_of_their_kind(capsys, tmp_path):
    def dist(x, p):
        return {"n": 2, "alphabets": [2, 2], "probs": [{"x": x, "p": p}, {"x": [0, 0], "p": 0.5}]}

    for x, p, needle in (([1.7, 0], 0.5, "configuration symbols must be integers"),
                         (["1", 0], 0.5, "configuration symbols must be integers"),
                         ([None, 0], 0.5, "configuration symbols must be integers"),
                         ([1, 0], "0.5", "probability '0.5' at probs row 0 is a str, not a number"),
                         ([1, 0], True, "probability True at probs row 0 is a bool, not a number"),
                         ([1.7, 0], "0.5", "error:")):
        code, out, err = run_cli(capsys, "entropy", "--dist", write_json(tmp_path, "d.json", dist(x, p)))
        assert_input_error(code, out, err, needle)
    # bools are ints to numpy: a true symbol reads as 1
    code, out, _ = run_cli(capsys, "entropy", "--dist", write_json(tmp_path, "d.json", dist([True, 0], 0.5)))
    assert code == 0 and json.loads(out)["h"]["1"] == pytest.approx(1.0)


def test_huge_cli_vertex_is_range_checked_before_any_shift(capsys):
    huge = "9" * 30
    code, out, err = run_cli(capsys, "subfield", "--graph", P4, "--vp", "1," + huge)
    assert_input_error(code, out, err, f"vertex {huge} exceeds universe 1..4")
    code, out, err = run_cli(capsys, "subtree", "--graph", P4, "--vp", huge)
    assert_input_error(code, out, err, f"vertex {huge} exceeds universe 1..4")
    code, out, err = run_cli(capsys, "witness", "atom", "--n", "3", "--support", "1," + huge)
    assert_input_error(code, out, err, f"vertex {huge} exceeds universe 1..3")


def test_implies_needs_lists_of_statements(capsys, tmp_path):
    one = {"n": 3, "T": [], "Q": [[1], [2], [3]]}
    kpath, lpath = write_json(tmp_path, "k.json", one), write_json(tmp_path, "l.json", [one])
    code, out, err = run_cli(capsys, "implies", "--pi1", kpath, "--pi2", lpath)
    assert_input_error(code, out, err, "independency list JSON must be a list, got dict")
    code, out, err = run_cli(capsys, "implies", "--pi1", lpath, "--pi2", write_json(tmp_path, "b.json", [[1, 2]]))
    assert_input_error(code, out, err, "independency JSON must be an object, got list")


def test_star_witness_hub_must_be_a_vertex(capsys):
    for hub in ("99", "0", "-1"):
        code, out, err = run_cli(capsys, "witness", "star", "--graph", STAR4, "--hub", hub, "--leaves", "1,2,3")
        assert_input_error(code, out, err, f"hub {hub} is not a vertex of the graph")
    code, out, _ = run_cli(capsys, "witness", "star", "--graph", STAR4, "--hub", "4", "--leaves", "1,2,3")
    assert code == 0 and json.loads(out)["n"] == 4


def test_usage_errors_exit_two_with_one_line(capsys):
    for argv in (["check-mrf", "--dist", XOR3, "--graph", P4, "--tol", "abc"],
                 ["entropy", "--dist", XOR3, "--base"],
                 ["witness", "star", "--graph", STAR4, "--hub", "1e3", "--leaves", "1,2,3"],
                 ["no-such-command"],
                 []):
        code, out, err = run_cli(capsys, *argv)
        assert_input_error(code, out, err, "")


def test_witness_atom_variable_count_is_checked_first(capsys):
    code, out, err = run_cli(capsys, "witness", "atom", "--n", "1000000000000", "--support", "1")
    assert_input_error(code, out, err, "variable count 1000000000000 outside 1..24")
