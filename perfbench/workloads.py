"""The four workloads: seeded requests, the timed op for each, and its check.

An op takes JSON text and returns JSON text, the way a command-line user
pays for parsing and serialisation.  Library calls go through module
attributes (`lib.measures.entropy_vector`, not a local name) so that a
traced run sees every one of them.

Each workload is a fixed schedule of op classes that repeats; the seed
changes the inputs inside each class but never the mix, so runs with
different seeds do the same kind and amount of work.  The order interleaves
classes so that any prefix of the schedule has close to the full mix.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import inputs as gen
import reference as ref
from reference import expect


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    run_inprocess: Callable[[], object] | None = None  # same call without a child process


def spread(counts: dict) -> list:
    """Interleave classes so that every prefix holds them close to their shares."""
    total = sum(counts.values())
    placed = {k: 0 for k in counts}
    order = []
    for i in range(total):
        k = max(counts, key=lambda c: (counts[c] * (i + 1) / total - placed[c], -list(counts).index(c)))
        placed[k] += 1
        order.append(k)
    return order


# -- dense_fields ---------------------------------------------------------------

# (n, ternary variables; the rest are binary) -> ops per schedule cycle.  The
# classes form a ladder of op costs about 1.2x apart, so the latency
# percentiles move smoothly when the machine slows part of a run instead of
# jumping between two identical ops' fast and slow times.  Shapes rotate
# within each class.
DENSE_MIX = {
    (6, 6): 2,
    (7, 3): 2,
    (8, 0): 3,
    (7, 4): 2,
    (8, 1): 3,
    (7, 5): 2,
    (8, 2): 2,
    (7, 6): 2,
    (8, 3): 2,
    (9, 0): 2,
    (7, 7): 2,
    (10, 0): 1,
}
DENSE_SHAPES = ("path", "cycle", "tree", "random")


def dense_op(lib, text: str) -> str:
    M, S, G = lib.measures, lib.subfield, lib.graphs
    req = json.loads(text)
    dist = M.Distribution.from_json(req["dist"])
    g = G.Graph.from_json(req["graph"])
    mu = M.mu_from_entropy(M.entropy_vector(dist))
    mrf = M.check_mrf(mu, g)
    small = S.smallest_graph(M.vanishing_atoms(mu))
    return json.dumps(
        {"measure": mu.to_json(), "mrf_ok": mrf.ok, "g_hat": small.g_hat.to_json(), "exists": small.exists}
    )


def check_dense(edges, singles, joint, out: str) -> None:
    d = json.loads(out)
    n = len(singles)
    expect(d["mrf_ok"] is True, "generated field reported as not Markov")
    expect(d["exists"] is True, "no smallest graph for a generated field")
    expect(ref.edge_set(d["g_hat"]) == edges and d["g_hat"]["n"] == n, "smallest graph differs from the generating graph")
    vals = ref.measure_values(d["measure"])
    expect(len(vals) == (1 << n) - 1, "measure does not list every atom")
    for i, h in enumerate(singles):
        got = sum(v for c, v in vals.items() if not (c >> i) & 1)
        expect(ref.close(got, h, 1e-9), f"atoms inside X{i + 1} sum to {got}, not H = {h}")
    expect(ref.close(sum(vals.values()), joint, 1e-9), "atoms do not sum to the joint entropy")


def dense_fields(lib, seed: int) -> list[Op]:
    rng, nprng = gen.rngs("dense_fields", seed)
    turn = {k: 0 for k in DENSE_MIX}
    ops = []
    for n, ternary in spread(DENSE_MIX):
        shape = DENSE_SHAPES[turn[(n, ternary)] % len(DENSE_SHAPES)]
        turn[(n, ternary)] += 1
        edges = gen.shape_edges(rng, shape, n)
        threes = set(rng.sample(range(n), ternary))
        p = gen.field_table(nprng, tuple(3 if i in threes else 2 for i in range(n)), edges)
        text = json.dumps({"dist": gen.table_json(p), "graph": gen.graph_json(n, edges)})
        singles, joint = gen.marginal_entropies(p)
        want = {(min(u, v), max(u, v)) for u, v in edges}
        ops.append(Op(f"n={n} t={ternary}", partial(dense_op, lib, text), partial(check_dense, want, singles, joint)))
    return ops


# -- sparse_witnesses -------------------------------------------------------------

ATOM_FAMILIES = ("ring", "star", "blocks")
# Sizes 12, 13 and 14 of each forward and reverse kind form a ladder of op
# costs, for the same reason as DENSE_MIX, with the n = 13 ops in the middle
# so that the median falls among them rather than at an edge of the ladder.
SPARSE_MIX = {
    ("atoms", 18): 2,
    ("atoms", 20): 2,
    ("atoms", 24): 2,
    ("star", 12): 1,
    ("blocks", 12): 2,
    ("reverse", 12): 1,
    ("star", 13): 2,
    ("blocks", 13): 2,
    ("reverse", 13): 2,
    ("reverse", 14): 4,
    ("blocks", 14): 2,
    ("star", 14): 2,
    ("ring", 12): 1,
}


def forward_op(lib, text: str) -> str:
    M, G = lib.measures, lib.graphs
    req = json.loads(text)
    dist = M.Distribution.from_json(req["dist"])
    g = G.Graph.from_json(req["graph"])
    mu = M.mu_from_entropy(M.entropy_vector(dist, req["base"]))
    mrf = M.check_mrf(mu, g)
    vanishing = M.vanishing_atoms(mu)
    return json.dumps({"measure": mu.to_json(), "mrf_ok": mrf.ok, "vanishing": len(vanishing)})


def check_forward(n, value_of, tol, out: str) -> None:
    d = json.loads(out)
    zeros = ref.expect_measure(d["measure"], n, value_of, tol)
    expect(d["mrf_ok"] is True, "witness reported as not respecting its graph")
    expect(d["vanishing"] == zeros, f"{d['vanishing']} vanishing atoms, expected {zeros}")


def reverse_op(lib, text: str) -> str:
    M = lib.measures
    h = M.EntropyVector.from_json(json.loads(text))
    mu = M.mu_from_entropy(h)
    back = M.entropy_from_mu(mu)
    return json.dumps({"measure": mu.to_json(), "h": back.to_json()})


def check_reverse(n, blocks, out: str) -> None:
    d = json.loads(out)
    ref.expect_measure(d["measure"], n, partial(ref.blocks_atom, n, blocks), 1e-9)
    h = d["h"]["h"]
    expect(len(h) == (1 << n) - 1, "entropy vector does not list every subset")
    for key, v in h.items():
        want = ref.blocks_entropy(blocks, ref.cmask_of_list(int(t) for t in key.split(",")))
        expect(ref.close(v, want, 1e-9), f"h({key}) = {v}, not {want}")


def atoms_op(lib, text: str) -> str:
    M, A = lib.measures, lib.atoms
    req = json.loads(text)
    dist = M.Distribution.from_json(req["dist"])
    values = [M.atom_measure_from_distribution(dist, A.Atom.of(dist.n, c), req["base"]) for c in req["atoms"]]
    return json.dumps({"values": values})


def check_atoms(wants, out: str) -> None:
    got = json.loads(out)["values"]
    expect(len(got) == len(wants), "wrong number of atom values")
    for v, w in zip(got, wants):
        expect(ref.close(v, w, 1e-9), f"atom value {v}, expected {w}")


def random_blocks(rng, n: int, count: int, max_size: int):
    """Disjoint random supports with independent random sources: [(mask, probs)]."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    out = []
    for _ in range(count):
        size = rng.randint(1, min(max_size, len(verts) - 1))
        support, verts = sorted(verts[:size]), verts[size:]
        out.append((support, gen.source(rng, rng.randint(2, 3))))
    return out


def sparse_request(rng, kind: str, n: int, family: str):
    """(op function, request, check) for one sparse op."""
    full = (1 << n) - 1
    if kind == "ring":
        q, alphas = gen.ring_params(rng, n)
        req = {"dist": gen.ring_json(n, q, alphas), "graph": gen.graph_json(n, gen.cycle_edges(n)), "base": q}
        return forward_op, req, partial(check_forward, n, partial(ref.ring_atom, n), 1e-7)
    if kind == "star":
        edges, hub, leaves = gen.hub_host(rng, n)
        req = {"dist": gen.star_json(n, hub, leaves), "graph": gen.graph_json(n, edges), "base": 2.0}
        return forward_op, req, partial(check_forward, n, partial(ref.star_atom, n, hub, leaves), 1e-9)
    if kind == "blocks":
        support = gen.interval(rng, n, rng.randint(3, 6))
        probs = gen.source(rng, 3)
        blocks = [(ref.cmask_of_list(support), ref.entropy_bits(probs))]
        req = {"dist": gen.blocks_json(n, [(support, probs)]), "graph": gen.graph_json(n, gen.path_edges(n)), "base": 2.0}
        return forward_op, req, partial(check_forward, n, partial(ref.blocks_atom, n, blocks), 1e-9)
    if kind == "reverse":
        raw = random_blocks(rng, n, rng.randint(2, 4), 4)
        blocks = [(ref.cmask_of_list(s), ref.entropy_bits(p)) for s, p in raw]
        h = {}
        for m in range(1, full + 1):
            key = ",".join(str(v) for v in range(1, n + 1) if (m >> (v - 1)) & 1)
            h[key] = ref.blocks_entropy(blocks, m)
        return reverse_op, {"n": n, "base": 2.0, "h": h}, partial(check_reverse, n, blocks)
    # single-atom queries above the enumeration cap; `family` rotates per slot
    wants, atoms = [], []
    if family == "ring":
        q, alphas = gen.ring_params(rng, n)
        dist, base = gen.ring_json(n, q, alphas), q
        plains = [rng.sample(range(1, n + 1), 5) for _ in range(4)]
        value_of = partial(ref.ring_atom, n)
    elif family == "star":
        _, hub, leaves = gen.hub_host(rng, n)
        dist, base = gen.star_json(n, hub, leaves), 2.0
        active = [hub, *leaves]
        outside = rng.choice([v for v in range(1, n + 1) if v not in active])
        plains = [active, active[1:], active[:-1], active + [outside]]
        value_of = partial(ref.star_atom, n, hub, leaves)
    else:
        raw = random_blocks(rng, n, 2, 5)
        dist, base = gen.blocks_json(n, raw), 2.0
        blocks = [(ref.cmask_of_list(s), ref.entropy_bits(p)) for s, p in raw]
        extra = next(v for v in range(1, n + 1) if all(v not in s for s, _ in raw))
        plains = [raw[0][0], raw[1][0], raw[0][0] + [extra], raw[0][0] + raw[1][0]]
        value_of = partial(ref.blocks_atom, n, blocks)
    for plain in plains:
        atoms.append([v for v in range(1, n + 1) if v not in plain])
        wants.append(value_of(ref.cmask_of_list(atoms[-1])))
    return atoms_op, {"dist": dist, "base": base, "atoms": atoms}, partial(check_atoms, wants)


def sparse_witnesses(lib, seed: int) -> list[Op]:
    rng, _ = gen.rngs("sparse_witnesses", seed)
    queries = 0
    ops = []
    for kind, n in spread(SPARSE_MIX):
        family = ATOM_FAMILIES[queries % len(ATOM_FAMILIES)]
        queries += kind == "atoms"
        fn, req, check = sparse_request(rng, kind, n, family)
        label = f"atoms n={n} {family}" if kind == "atoms" else f"{kind} n={n}"
        ops.append(Op(label, partial(fn, lib, json.dumps(req)), check))
    return ops


# -- graph_queries ----------------------------------------------------------------

GRAPH_MIX = {
    (12, "path"): 4,
    (12, "cycle"): 4,
    (12, "tree"): 4,
    (12, "random"): 4,
    (12, "grid"): 4,
    (14, "cycle"): 2,
    (14, "path"): 1,
    (14, "grid"): 1,
    (16, "grid"): 1,
}


def graph_op(lib, text: str) -> str:
    A, S, D, M, G = lib.atoms, lib.subfield, lib.diagram, lib.measures, lib.graphs
    req = json.loads(text)
    g = G.Graph.from_json(req["graph"])
    img = A.image_of_graph(g)
    img_text = json.dumps(img.to_json())
    recovered = A.recover_graph(A.AtomSet.from_json(json.loads(img_text)))
    small = S.smallest_graph(img)
    plan_text = D.export_plan(D.build_plan(g))
    subfields = []
    for keep in req["keep"]:
        res = S.subfield_graph(g, keep)
        row = {"g_star": res.g_star.to_json(), "rho": sorted(res.rho), "equals_induced": S.equals_induced(g, keep)}
        if req["tree"]:
            row["is_subtree"] = S.subtree_condition(g, keep).is_subtree
        subfields.append(row)
    cores = [sorted(M.reduce_atom(g, A.Atom.of(g.n, c)).kept) for c in req["atoms"]]
    rest = json.dumps(
        {
            "recovered": recovered.to_json(),
            "g_hat": small.g_hat.to_json(),
            "exists": small.exists,
            "subfields": subfields,
            "cores": cores,
        }
    )
    return '{"image": %s, "plan": %s, "rest": %s}' % (img_text, plan_text, rest)


def check_graph(lib, req, out: str) -> None:
    n, edges = req["graph"]["n"], ref.edge_set(req["graph"])
    d = json.loads(out)
    rest = d["rest"]
    image = {ref.cmask_of_list(c) for c in d["image"]["atoms"]}
    expect(len(image) == len(d["image"]["atoms"]), "image lists an atom twice")
    if n <= 12:  # a BFS per mask is slow beyond; larger images are checked through their inverses below
        expect(image == ref.cutset_cmasks(n, edges), "image differs from the BFS cutsets")
    expect(ref.edge_set(rest["recovered"]) == edges, "recover_graph(image) differs from the graph")
    expect(rest["exists"] is True and ref.edge_set(rest["g_hat"]) == edges, "smallest graph of an image differs from the graph")
    plan = lib.diagram.DiagramPlan.from_json(d["plan"])
    expect(json.loads(lib.diagram.export_plan(plan)) == d["plan"], "plan does not survive export and parse")
    final = {ref.cmask_of_text(t) for t in d["plan"]["final_type1"]}
    expect(not final & image and len(final) + len(image) == (1 << n) - 1, "final_type1 is not the complement of the image")
    expect(ref.edge_set(d["plan"]["sequence"][-1]) == edges, "plan does not end with the graph")
    for keep, row in zip(req["keep"], rest["subfields"]):
        star = ref.boundary_graph(n, edges, keep)
        induced = {e for e in edges if e[0] in keep and e[1] in keep}
        expect(ref.edge_set(row["g_star"]) == star, f"boundary graph of {keep} differs from BFS")
        expect(set(row["rho"]) == ref.boundary_vertices(n, edges, keep), "boundary set differs")
        expect(row["equals_induced"] == (star == induced), "equals_induced verdict is wrong")
        if req["tree"]:
            expect(row["is_subtree"] == (len(star) == len(keep) - 1), "subtree verdict is wrong")
    for c, core in zip(req["atoms"], rest["cores"]):
        expect(set(core) == ref.reduction_core(n, edges, ref.cmask_of_list(c)), "reduction core differs")


def graph_request(rng, n: int, shape: str) -> dict:
    edges = gen.shape_edges(rng, shape, n)
    adj = ref.adjacency(n, edges)
    keeps = [sorted(rng.sample(range(1, n + 1), rng.randint(n // 3, 2 * n // 3))) for _ in range(3)]
    atoms = []
    while len(atoms) < 4:  # connected (Type I) atoms with at least two plain variables
        comp = rng.sample(range(1, n + 1), rng.randint(1, n // 2))
        if ref.connected_without(adj, set(comp)):
            atoms.append(sorted(comp))
    return {"graph": gen.graph_json(n, edges), "keep": keeps, "atoms": atoms, "tree": shape in ("tree", "path")}


def graph_queries(lib, seed: int) -> list[Op]:
    rng, _ = gen.rngs("graph_queries", seed)
    ops = []
    for n, shape in spread(GRAPH_MIX):
        req = graph_request(rng, n, shape)
        ops.append(Op(f"n={n} {shape}", partial(graph_op, lib, json.dumps(req)), partial(check_graph, lib, req)))
    return ops


# -- cli_fixtures -------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "imeasure", *argv], cwd=root, env=cli_env(root), capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(lib, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


def fcmi_image(n: int, given: int, groups) -> set[int]:
    full = (1 << n) - 1
    out = set()
    for c in range(full):
        plain = full & ~c
        if not plain & given and sum(1 for q in groups if plain & q) >= 2:
            out.add(c)
    return out


def random_fcmi(rng, n: int) -> dict:
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    t = rng.randint(0, n - 3)
    given, rest = verts[:t], verts[t:]
    cuts = sorted(rng.sample(range(1, len(rest)), rng.randint(1, min(3, len(rest) - 1))))
    groups = [sorted(rest[a:b]) for a, b in zip([0] + cuts, cuts + [len(rest)])]
    return {"n": n, "T": sorted(given), "Q": groups}


def fcmi_masks(k: dict) -> tuple[int, list[int]]:
    return ref.cmask_of_list(k["T"]), [ref.cmask_of_list(q) for q in k["Q"]]


def atoms_json(n: int, cmasks) -> dict:
    return {"n": n, "atoms": [[v for v in range(1, n + 1) if (c >> (v - 1)) & 1] for c in sorted(cmasks)]}


def payload(code_want: int, result) -> dict:
    code, out = result
    expect(code == code_want, f"exit {code}, expected {code_want}")
    return json.loads(out)


def check_measure_payload(n, value_of, result) -> None:
    ref.expect_measure(payload(0, result), n, value_of, 1e-9)


def check_text_measure(n, value_of, result) -> None:
    code, out = result
    expect(code == 0, f"exit {code}")
    rows = [line.split("\t") for line in out.splitlines()]
    expect(len(rows) == (1 << n) - 1, "text measure does not list every atom")
    for text, v in rows:
        c = ref.cmask_of_text(text)
        expect(ref.close(float(v), value_of(c), 1e-9), f"atom {text}: {v}")


def check_entropy_payload(n, h_of, result) -> None:
    h = payload(0, result)["h"]
    expect(len(h) == (1 << n) - 1, "entropy vector does not list every subset")
    for key, v in h.items():
        expect(ref.close(v, h_of(ref.cmask_of_list(int(t) for t in key.split(","))), 1e-9), f"h({key}) = {v}")


def check_mrf_payload(n, edges, value_of, result) -> None:
    """Violations are exactly the cutset atoms with a nonzero closed-form value."""
    want = {c: value_of(c) for c in ref.cutset_cmasks(n, edges) if abs(value_of(c)) > 1e-9}
    d = payload(1 if want else 0, result)
    got = {ref.cmask_of_text(v["atom"]): v["value"] for v in d["violations"]}
    expect(d["ok"] is (not want) and got.keys() == want.keys(), "check-mrf verdict is wrong")
    for c, v in got.items():
        expect(ref.close(v, want[c], 1e-9), f"violation value {v}, expected {want[c]}")


def check_image_payload(n, want, result) -> None:
    d = payload(0, result)
    got = {ref.cmask_of_list(c) for c in d["atoms"]}
    expect(d["n"] == n and got == want and len(got) == len(d["atoms"]), "image differs from the independent one")


def check_graph_payload(edges, code_want, key, result) -> None:
    d = payload(code_want, result)
    g = d[key] if key else d
    expect(ref.edge_set(g) == edges, "graph differs from the expected one")
    if key == "g_hat":
        expect(d["exists"] is True, "smallest graph reported as missing")


def check_fcmi_payload(k, result) -> None:
    d = payload(0, result)
    expect(sorted(d["T"]) == k["T"], "recovered conditioning set differs")
    expect({frozenset(q) for q in d["Q"]} == {frozenset(q) for q in k["Q"]}, "recovered groups differ")


def check_not_fcmi(result) -> None:
    expect(payload(1, result)["recovered"] is False, "a non-image was recovered")


def check_subfield_payload(n, edges, keep, result) -> None:
    d = payload(0, result)
    star = ref.boundary_graph(n, edges, keep)
    induced = {e for e in edges if e[0] in keep and e[1] in keep}
    expect(ref.edge_set(d["g_star"]) == star, "boundary graph differs from BFS")
    expect(set(d["rho"]) == ref.boundary_vertices(n, edges, keep), "boundary set differs")
    expect(d["equals_induced"] == (star == induced), "equals_induced verdict is wrong")


def check_subfield_dot(edges_want, keep, result) -> None:
    code, out = result
    expect(code == 0, f"exit {code}")
    got = set()
    verts = set()
    for line in out.splitlines():
        line = line.strip().rstrip(";")
        if " -- " in line:
            u, v = (int(t) for t in line.split(" -- "))
            got.add((min(u, v), max(u, v)))
        elif line.isdigit():
            verts.add(int(line))
    expect(got == edges_want and verts == set(keep), "DOT boundary graph differs from BFS")


def check_subtree_payload(want: bool, result) -> None:
    d = payload(0 if want else 1, result)
    expect(d["is_subtree"] is want, "subtree verdict is wrong")
    if not want:
        expect(len(d["witness"]["targets"]) == 3, "subtree witness needs three targets")


def check_plan_payload(n, edges, image, result) -> None:
    d = payload(0, result)
    final = {ref.cmask_of_text(t) for t in d["final_type1"]}
    expect(final == set(range((1 << n) - 1)) - image, "final_type1 is not the complement of the image")
    expect(ref.edge_set(d["sequence"][-1]) == edges and len(d["sequence"]) == n, "plan sequence is wrong")


def check_plan_dot(n, result) -> None:
    code, out = result
    expect(code == 0 and out.count("graph stage_") == n, "DOT plan needs one block per stage")


def check_plan_text(n, image, result) -> None:
    code, out = result
    lines = out.splitlines()
    expect(code == 0 and lines[0] == f"diagram plan for {n} variables", "text plan header is wrong")
    expect(lines[-1].startswith(f"kept atoms ({(1 << n) - 1 - len(image)})"), "text plan keeps the wrong atom count")


def check_dist_payload(alphabets, rows_want, result) -> None:
    d = payload(0, result)
    expect(d["alphabets"] == alphabets and d["n"] == len(alphabets), "witness alphabets are wrong")
    got = sorted((tuple(r["x"]), r["p"]) for r in d["probs"])
    want = sorted(rows_want)
    expect(len(got) == len(want), "witness support size is wrong")
    for (x, p), (xw, pw) in zip(got, want):
        expect(x == xw and ref.close(p, pw, 1e-12), f"witness row {x} differs")


def check_implies_payload(want: bool, result) -> None:
    expect(payload(0 if want else 1, result)["implies"] is want, "implies verdict is wrong")


def cli_fixtures(lib, seed: int, root: Path, tmp: Path) -> list[Op]:
    rng, _ = gen.rngs("cli_fixtures", seed)
    fx = root / "tests" / "fixtures"

    def write(name: str, obj) -> str:
        path = tmp / name
        path.write_text(json.dumps(obj))
        return str(path)

    def fixture(name: str) -> tuple[str, dict]:
        path = fx / name
        return str(path), json.loads(path.read_text())

    xor3, _ = fixture("xor3.json")
    star4_dist, _ = fixture("star4_dist.json")
    star4, star4g = fixture("star4.json")
    c4, c4g = fixture("c4.json")
    pockets, pg = fixture("graph_pockets9.json")
    tree12, tg = fixture("tree12.json")
    bridges, bg = fixture("bridges8.json")
    cater, cg = fixture("caterpillar6.json")
    sep5, sg = fixture("graph_sep5.json")
    p3 = write("p3.json", gen.graph_json(3, gen.path_edges(3)))
    xor_atom = partial(ref.ring_atom, 3)  # two bits and their parity: h = min(|S|, 2)
    star4_atom = partial(ref.star_atom, 4, 4, (1, 2, 3))
    calls = []  # (argv, check)

    calls.append((["entropy", "--dist", xor3], partial(check_entropy_payload, 3, lambda m: float(min(m.bit_count(), 2)))))
    calls.append((["mu", "--dist", xor3], partial(check_measure_payload, 3, xor_atom)))
    calls.append(
        (["mu", "--dist", star4_dist, "--format", "text"], partial(check_text_measure, 4, star4_atom))
    )
    calls.append((["check-mrf", "--dist", star4_dist, "--graph", star4], partial(check_mrf_payload, 4, ref.edge_set(star4g), star4_atom)))
    calls.append((["check-mrf", "--dist", xor3, "--graph", p3], partial(check_mrf_payload, 3, set(gen.path_edges(3)), xor_atom)))

    for path, g in ((c4, c4g), (pockets, pg), (sep5, sg)):
        n = g["n"]
        calls.append((["image", "--graph", path], partial(check_image_payload, n, ref.cutset_cmasks(n, ref.edge_set(g)))))

    n = rng.randint(6, 8)
    k = random_fcmi(rng, n)
    given, groups = fcmi_masks(k)
    fimg = fcmi_image(n, given, groups)
    calls.append((["image", "--fcmi", write("k.json", k)], partial(check_image_payload, n, fimg)))
    calls.append((["recover", "--atoms", write("fimg.json", atoms_json(n, fimg)), "--target", "fcmi"], partial(check_fcmi_payload, k)))
    c4img = ref.cutset_cmasks(4, ref.edge_set(c4g))
    calls.append((["recover", "--atoms", write("c4img.json", atoms_json(4, c4img)), "--target", "fcmi"], check_not_fcmi))

    n = rng.randint(6, 8)
    gedges = gen.connected_edges(rng, n, n // 2)
    gimg = ref.cutset_cmasks(n, set(gedges))
    gimg_path = write("gimg.json", atoms_json(n, gimg))
    calls.append((["recover", "--atoms", gimg_path, "--target", "graph"], partial(check_graph_payload, set(gedges), 0, None)))
    calls.append((["smallest", "--atoms", gimg_path], partial(check_graph_payload, set(gedges), 0, "g_hat")))
    calls.append((["smallest", "--dist", xor3], partial(check_graph_payload, {(1, 2), (1, 3), (2, 3)}, 0, "g_hat")))

    keep = sorted(rng.sample(range(1, 10), rng.randint(3, 6)))
    calls.append(
        (["subfield", "--graph", pockets, "--vp", ",".join(map(str, keep))], partial(check_subfield_payload, 9, ref.edge_set(pg), keep))
    )
    n = rng.randint(7, 9)
    sedges = set(gen.connected_edges(rng, n, 2))
    skeep = sorted(rng.sample(range(1, n + 1), rng.randint(3, n - 2)))
    sub = write("sub.json", {"graph": gen.graph_json(n, sedges), "V_prime": skeep})
    calls.append(
        (["subfield", "--input", sub, "--format", "dot"], partial(check_subfield_dot, ref.boundary_graph(n, sedges, skeep), skeep))
    )

    tedges = ref.edge_set(tg)
    calls.append((["subtree", "--graph", tree12, "--vp", "1,4,8,9,12"], partial(check_subtree_payload, True)))
    calls.append((["subtree", "--graph", tree12, "--vp", "1,4,7,8,9,12"], partial(check_subtree_payload, False)))
    tkeep = sorted(rng.sample(range(1, 13), rng.randint(3, 8)))
    tree_ok = len(ref.boundary_graph(12, tedges, tkeep)) == len(tkeep) - 1
    calls.append((["subtree", "--graph", tree12, "--vp", ",".join(map(str, tkeep))], partial(check_subtree_payload, tree_ok)))

    bimg = ref.cutset_cmasks(8, ref.edge_set(bg))
    calls.append((["diagram", "plan", "--graph", bridges], partial(check_plan_payload, 8, ref.edge_set(bg), bimg)))
    calls.append((["diagram", "plan", "--graph", cater, "--format", "dot"], partial(check_plan_dot, 6)))
    pimg = ref.cutset_cmasks(9, ref.edge_set(pg))
    calls.append((["diagram", "plan", "--graph", pockets, "--format", "text"], partial(check_plan_text, 9, pimg)))

    star_rows = [((z, t, z ^ t, 2 * z + t), 0.25) for z in (0, 1) for t in (0, 1)]
    calls.append(
        (["witness", "star", "--graph", star4, "--hub", "4", "--leaves", "1,2,3"], partial(check_dist_payload, [2, 2, 2, 4], star_rows))
    )
    n = rng.randint(5, 8)
    q, alphas = gen.ring_params(rng, n)
    ring_rows = [(tuple(r["x"]), r["p"]) for r in gen.ring_json(n, q, alphas)["probs"]]
    calls.append(
        (
            ["witness", "ring", "--n", str(n), "--field", str(q), "--alphas", ",".join(map(str, alphas))],
            partial(check_dist_payload, [q] * n, ring_rows),
        )
    )
    ring_path = write("ring.json", gen.ring_json(n, q, alphas))
    calls.append((["mu", "--dist", ring_path, "--base", str(q)], partial(check_measure_payload, n, partial(ref.ring_atom, n))))
    n = rng.randint(4, 8)
    support = gen.interval(rng, n, rng.randint(2, n))
    atom_rows = [(tuple(z if v in support else 0 for v in range(1, n + 1)), 0.5) for z in (0, 1)]
    calls.append(
        (["witness", "atom", "--n", str(n), "--support", ",".join(map(str, support))], partial(check_dist_payload, [2 if v in support else 1 for v in range(1, n + 1)], atom_rows))
    )

    n = 6
    raw = random_blocks(rng, n, 3, 2)
    blocks = [(ref.cmask_of_list(s), ref.entropy_bits(p)) for s, p in raw]
    h = {
        ",".join(str(v) for v in range(1, n + 1) if (m >> (v - 1)) & 1): ref.blocks_entropy(blocks, m)
        for m in range(1, 1 << n)
    }
    hpath = write("h.json", {"n": n, "base": 2.0, "h": h})
    calls.append((["mu", "--entropy", hpath], partial(check_measure_payload, n, partial(ref.blocks_atom, n, blocks))))

    n = rng.randint(5, 7)
    pi1 = [random_fcmi(rng, n) for _ in range(2)]
    pi2 = [random_fcmi(rng, n)]
    img1 = set().union(*(fcmi_image(n, *fcmi_masks(k)) for k in pi1))
    implied = fcmi_image(n, *fcmi_masks(pi2[0])) <= img1
    p1, p2 = write("pi1.json", pi1), write("pi2.json", pi2)
    calls.append((["implies", "--pi1", p1, "--pi2", write("pi1b.json", pi1[1:])], partial(check_implies_payload, True)))
    calls.append((["implies", "--pi1", p1, "--pi2", p2], partial(check_implies_payload, implied)))

    return [
        Op(argv[0], partial(run_cli, root, argv), check, partial(run_cli_inprocess, lib, argv))
        for argv, check in calls
    ]


WORKLOADS = {
    "dense_fields": dense_fields,
    "sparse_witnesses": sparse_witnesses,
    "graph_queries": graph_queries,
    "cli_fixtures": cli_fixtures,
}
