"""Golden CLI bytes: the exact stdout and exit code of fixed calls.

`golden/cases.json` lists each call as an argv (paths relative to the repo
root) with the exit code it gave when recorded; `golden/expected/<name>.out`
holds its stdout.  Any change to how outputs are produced must reproduce them
byte for byte.

The cases cover every subcommand on every fixture it applies to, the calls
that perfbench's `cli_fixtures` workload builds for seed 1 (with its generated
inputs under `golden/cli_fixtures/`), every `NotAnFcmiImage` reason, and
`smallest` with no smallest representation.  Inputs derived from fixtures
(entropy vectors, images) sit under `golden/inputs/`; recording writes one
only when its file is missing (delete it to derive it again).

Record only on a tree whose outputs are known good, from the repo root:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from imeasure.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = GOLDEN / "cases.json"


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _load_cases() -> list[dict]:
    return json.loads(CASES.read_text()) if CASES.exists() else []


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["name"])
def test_cli_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == _read(GOLDEN / "expected" / f"{case['name']}.out")


def test_golden_cases_recorded():
    cases = _load_cases()
    assert len(cases) >= 100
    assert len({c["name"] for c in cases}) == len(cases)


# -- recording -----------------------------------------------------------------

FIXTURES = "tests/fixtures"
DISTS = {"xor3": "2", "star4_dist": "2", "ring4_gf3": "3"}  # distribution -> natural base
GRAPHS = ("bridges8", "c4", "caterpillar6", "graph_pockets9", "graph_sep5", "p4", "star4", "tree12")
KEEPS = {  # a kept set per graph, plus the sets the fixture notes single out
    "bridges8": ["2,4,5,7", "1,3,6,8"],
    "c4": ["1,3", "1,2,3"],
    "caterpillar6": ["1,2,3,4", "1,4,6"],
    "graph_pockets9": ["1,2,5,6,8,9", "2,5,8,9"],
    "graph_sep5": ["2,3,4", "1,5"],
    "p4": ["1,4", "2,3"],
    "star4": ["1,2,3", "1,4"],
    "tree12": ["1,4,8,9,12", "1,4,7,8,9,12"],
}
TREES = {  # kept sets for `subtree`, which needs a tree
    "caterpillar6": ["1,4,6", "1,3,4,6"],
    "p4": ["1,4"],
    "star4": ["1,2,3", "1,4"],
    "tree12": ["1,4,8,9,12", "1,4,7,8,9,12"],
}
STATIC_INPUTS = {
    "p3.json": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "copied3.json": {"n": 3, "alphabets": [2, 2, 2], "probs": [{"x": [0, 0, 0], "p": 0.5}, {"x": [1, 1, 1], "p": 0.5}]},
    "fcmi_mutual3.json": {"n": 3, "T": [], "Q": [[1], [2], [3]]},
    "fcmi_given3.json": {"n": 3, "T": [3], "Q": [[1], [2]]},
    "fcmi_blocks6.json": {"n": 6, "T": [2, 5], "Q": [[1, 3], [4], [6]]},
    "fcmi_partial4.json": {"n": 4, "T": [], "Q": [[1], [2]]},
    "subfield_sep5.json": {"graph": {"n": 5, "edges": [[1, 2], [1, 3], [2, 3], [3, 4], [3, 5], [4, 5]]}, "V_prime": [2, 3, 4]},
    "pi_mutual3.json": [{"n": 3, "T": [], "Q": [[1], [2], [3]]}],
    "pi_pair3.json": [{"n": 3, "T": [], "Q": [[1, 2], [3]]}, {"n": 3, "T": [3], "Q": [[1], [2]]}],
    "pi_given3.json": [{"n": 3, "T": [3], "Q": [[1], [2]]}],
    # atom sets that are not independency images, one per NotAnFcmiImage reason
    "nonimage_empty.json": {"n": 3, "atoms": []},
    "nonimage_two_max.json": {"n": 3, "atoms": [[1], [2]]},
    "nonimage_one_outside.json": {"n": 3, "atoms": [[1, 2]]},
    "nonimage_not_transitive.json": {"n": 3, "atoms": [[], [2]]},
    "nonimage_one_group.json": {"n": 3, "atoms": [[]]},
    "nonimage_mismatch.json": {"n": 4, "atoms": [[], [1], [2], [3], [1, 3], [2, 3], [1, 4], [2, 4]]},
    "smallest_none3.json": {"n": 3, "atoms": [[3], [2]]},
}


def _fx(name: str) -> str:
    return f"{FIXTURES}/{name}.json"


def _inp(name: str) -> str:
    return f"tests/golden/inputs/{name}"


def _fixture_cases() -> list[tuple[str, list[str]]]:
    """Every subcommand on every fixture it applies to, plus the generated inputs."""
    out = []
    for d, base in DISTS.items():
        out.append((f"entropy_{d}", ["entropy", "--dist", _fx(d), "--base", base]))
        out.append((f"mu_{d}", ["mu", "--dist", _fx(d), "--base", base]))
        out.append((f"mu_text_{d}", ["mu", "--dist", _fx(d), "--base", base, "--format", "text"]))
        out.append((f"mu_entropy_{d}", ["mu", "--entropy", _inp(f"h_{d}.json")]))
        out.append((f"smallest_dist_{d}", ["smallest", "--dist", _fx(d), "--base", base]))
    for d in ("star4_dist", "ring4_gf3"):
        for g in ("c4", "p4", "star4"):
            out.append((f"check_mrf_{d}_{g}", ["check-mrf", "--dist", _fx(d), "--graph", _fx(g), "--base", DISTS[d]]))
        out.append((f"check_mrf_entropy_{d}", ["check-mrf", "--entropy", _inp(f"h_{d}.json"), "--graph", _fx("c4")]))
    out.append(("check_mrf_xor3_p3", ["check-mrf", "--dist", _fx("xor3"), "--graph", _inp("p3.json")]))
    out.append(("check_mrf_xor3_p3_tol", ["check-mrf", "--dist", _fx("xor3"), "--graph", _inp("p3.json"), "--tol", "2"]))
    for g in GRAPHS:
        img = _inp(f"img_{g}.json")
        out.append((f"image_{g}", ["image", "--graph", _fx(g)]))
        out.append((f"recover_graph_{g}", ["recover", "--atoms", img, "--target", "graph"]))
        out.append((f"recover_fcmi_{g}", ["recover", "--atoms", img, "--target", "fcmi"]))
        out.append((f"smallest_atoms_{g}", ["smallest", "--atoms", img]))
        for i, vp in enumerate(KEEPS[g]):
            out.append((f"subfield_{g}_{i}", ["subfield", "--graph", _fx(g), "--vp", vp]))
            out.append((f"subfield_dot_{g}_{i}", ["subfield", "--graph", _fx(g), "--vp", vp, "--format", "dot"]))
        for i, vp in enumerate(TREES.get(g, ["1,2"])):  # a non-tree exits 2 with empty stdout
            out.append((f"subtree_{g}_{i}", ["subtree", "--graph", _fx(g), "--vp", vp]))
        for fmt in ("json", "dot", "text"):
            out.append((f"diagram_{fmt}_{g}", ["diagram", "plan", "--graph", _fx(g), "--format", fmt]))
    out.append(("subfield_input_sep5", ["subfield", "--input", _inp("subfield_sep5.json")]))
    for k in ("fcmi_mutual3", "fcmi_given3", "fcmi_blocks6", "fcmi_partial4"):
        out.append((f"image_{k}", ["image", "--fcmi", _inp(f"{k}.json")]))
    for k in ("fcmi_mutual3", "fcmi_given3", "fcmi_blocks6"):
        out.append((f"recover_fcmi_{k}", ["recover", "--atoms", _inp(f"img_{k}.json"), "--target", "fcmi"]))
    for name in sorted(STATIC_INPUTS):
        if name.startswith("nonimage_"):
            out.append((f"recover_{name[:-5]}", ["recover", "--atoms", _inp(name), "--target", "fcmi"]))
    out.append(("smallest_none3", ["smallest", "--atoms", _inp("smallest_none3.json")]))
    out.append(("smallest_copied3", ["smallest", "--dist", _inp("copied3.json")]))
    out.append(("witness_star", ["witness", "star", "--graph", _fx("star4"), "--hub", "4", "--leaves", "1,2,3"]))
    out.append(("witness_ring", ["witness", "ring", "--n", "5", "--field", "5", "--alphas", "1,2,3"]))
    out.append(("witness_atom", ["witness", "atom", "--n", "4", "--support", "2,3"]))
    for a, b in (("mutual3", "pair3"), ("pair3", "mutual3"), ("given3", "mutual3")):
        out.append((f"implies_{a}_{b}", ["implies", "--pi1", _inp(f"pi_{a}.json"), "--pi2", _inp(f"pi_{b}.json")]))
    return out


def _cli_fixture_cases() -> list[tuple[str, list[str]]]:
    """The argv lists of perfbench's cli_fixtures workload at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    tmp = GOLDEN / "cli_fixtures"
    tmp.mkdir(parents=True, exist_ok=True)
    out = []
    for i, op in enumerate(workloads.cli_fixtures(None, 1, ROOT, tmp)):
        argv = [str(Path(a).relative_to(ROOT)) if a.startswith(str(ROOT)) else a for a in op.run.args[1]]
        out.append((f"perfbench_{i:02d}_{argv[0].replace('-', '_')}", argv))
    return out


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def _write_input(name: str, obj) -> None:
    (GOLDEN / "inputs" / name).write_text(json.dumps(obj))


def _derive_input(name: str, argv) -> None:
    """Write the payload of `argv` as an input, once: an existing derived input
    stays a fixed test input, so re-recording moves only expected outputs."""
    if not (GOLDEN / "inputs" / name).exists():
        _write_input(name, json.loads(_run(argv)[1]))


def record() -> None:
    os.chdir(ROOT)
    (GOLDEN / "inputs").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "expected").mkdir(parents=True, exist_ok=True)
    for name, obj in STATIC_INPUTS.items():
        _write_input(name, obj)
    for d, base in DISTS.items():
        _derive_input(f"h_{d}.json", ["entropy", "--dist", _fx(d), "--base", base])
    for g in GRAPHS:
        _derive_input(f"img_{g}.json", ["image", "--graph", _fx(g)])
    for k in ("fcmi_mutual3", "fcmi_given3", "fcmi_blocks6"):
        _derive_input(f"img_{k}.json", ["image", "--fcmi", _inp(f"{k}.json")])
    cases = []
    for name, argv in _fixture_cases() + _cli_fixture_cases():
        code, out = _run(argv)
        with open(GOLDEN / "expected" / f"{name}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        cases.append({"name": name, "argv": argv, "exit": code})
    CASES.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"recorded {len(cases)} cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
