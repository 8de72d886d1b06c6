"""Command-line front end with JSON input/output.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (the
payload carries the witness), 2 for input errors, and 141 (the status a
shell reports for SIGPIPE) when stdout is closed before the payload is
written, with nothing on stderr.  Payloads go to stdout, diagnostics to
stderr, and all output is byte-deterministic for fixed inputs.  Every input,
JSON file or flag, is read by the rules listed under "Input rules" in
README.md; a broken one exits 2 with one line on stderr.  Each subcommand
imports what it uses when it runs, so a call loads only the modules it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _intake as intake
from .graphs import Graph


def _emit(payload) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _either(args, a: str, b: str) -> bool:
    """Whether --a was given rather than --b; exactly one of the two must be."""
    if (getattr(args, a) is None) == (getattr(args, b) is None):
        raise ValueError(f"supply --{a} or --{b} (one, not both)")
    return getattr(args, a) is not None


def _mu_from_args(args) -> "tuple":
    from .measures import Distribution, EntropyVector, measure_from_distribution, mu_from_entropy

    if _either(args, "dist", "entropy"):
        dist = Distribution.from_json(intake.load(args.dist))
        return measure_from_distribution(dist, args.base), dist
    return mu_from_entropy(EntropyVector.from_json(intake.load(args.entropy))), None


# -- subcommands -------------------------------------------------------------


def cmd_entropy(args) -> int:
    from .measures import Distribution, entropy_vector

    dist = Distribution.from_json(intake.load(args.dist))
    _emit(entropy_vector(dist, args.base).to_json())
    return 0


def cmd_mu(args) -> int:
    mu, _ = _mu_from_args(args)
    if args.format == "text":
        _emit("\n".join(f"{t}\t{v:.12g}" for t, v in mu.to_json()["values"].items()))
    else:
        _emit(mu.to_json())
    return 0


def cmd_check_mrf(args) -> int:
    from ._labels import atom_texts
    from .measures import check_mrf

    mu, _ = _mu_from_args(args)
    g = Graph.from_json(intake.load(args.graph))
    res = check_mrf(mu, g, args.tol)
    texts = atom_texts(g.n, [a.complemented for a, _ in res.violations])
    _emit({"ok": res.ok, "violations": [{"atom": t, "value": v} for t, (_, v) in zip(texts, res.violations)]})
    return 0 if res.ok else 1


def cmd_image(args) -> int:
    from .atoms import FCMI, image_of_fcmi, image_of_graph

    if _either(args, "graph", "fcmi"):
        img = image_of_graph(Graph.from_json(intake.load(args.graph)))
    else:
        img = image_of_fcmi(FCMI.from_json(intake.load(args.fcmi)))
    _emit(img.to_json())
    return 0


def cmd_recover(args) -> int:
    from .atoms import AtomSet, NotAnFcmiImage, recover_fcmi, recover_graph

    img = AtomSet.from_json(intake.load(args.atoms))
    if args.target == "graph":
        _emit(recover_graph(img).to_json())
        return 0
    try:
        k = recover_fcmi(img)
    except NotAnFcmiImage as e:
        _emit({"recovered": False, "reason": str(e)})
        return 1
    _emit(k.to_json())
    return 0


def cmd_subfield(args) -> int:
    from .subfield import subfield_graph

    if args.input:
        gd, keep = intake.fields(intake.load(args.input), "subfield JSON", "graph", "V_prime")
        g = Graph.from_json(gd)
        keep = intake.vertex_mask(keep, g.n, "subfield JSON field 'V_prime'")
    else:
        if not args.graph or args.vp is None:
            raise ValueError("supply --graph and --vp, or --input")
        g = Graph.from_json(intake.load(args.graph))
        keep = intake.int_list(args.vp, "vertex list")
    res = subfield_graph(g, keep)
    if args.format == "dot":
        _emit(res.g_star.to_dot(name="g_star"))
        return 0
    _emit(
        {
            "g_star": res.g_star.to_json(),
            "equals_induced": res.equals_induced,
            "rho": sorted(res.rho),
        }
    )
    return 0


def cmd_smallest(args) -> int:
    from .atoms import AtomSet
    from .subfield import smallest_graph

    intake.finite(args.tol, "tolerance", 0)
    if _either(args, "atoms", "dist"):
        van = AtomSet.from_json(intake.load(args.atoms))
    else:
        from .measures import Distribution, measure_from_distribution, vanishing_atoms

        dist = Distribution.from_json(intake.load(args.dist))
        van = vanishing_atoms(measure_from_distribution(dist, args.base), args.tol)
    res = smallest_graph(van)
    _emit(res.to_json())
    return 0 if res.exists else 1


def cmd_subtree(args) -> int:
    from .subfield import subtree_condition

    g = Graph.from_json(intake.load(args.graph))
    res = subtree_condition(g, intake.int_list(args.vp, "vertex list"))
    payload = {"is_subtree": res.is_subtree}
    if not res.is_subtree:
        payload["witness"] = {
            "dropped_vertex": res.witness_vertex,
            "targets": list(res.witness_targets),
        }
    _emit(payload)
    return 0 if res.is_subtree else 1


def cmd_diagram(args) -> int:
    from .diagram import build_plan, export_plan

    if args.action != "plan":
        raise ValueError(f"unknown diagram action {args.action!r}")
    g = Graph.from_json(intake.load(args.graph))
    plan = build_plan(g)
    _emit(export_plan(plan, args.format))
    return 0


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"witness {args.kind} needs --{name}")


def cmd_witness(args) -> int:
    from .witnesses import FieldSpec, atom_concentrator, ring_field_witness, star_xor_witness

    if args.kind == "star":
        _need(args, "graph", "hub", "leaves")
        g = Graph.from_json(intake.load(args.graph))
        dist = star_xor_witness(g, args.hub, intake.int_list(args.leaves, "vertex list"))
    elif args.kind == "ring":
        _need(args, "n", "field", "alphas")
        dist = ring_field_witness(args.n, FieldSpec(args.field), intake.int_list(args.alphas, "multiplier list"))
    else:  # "atom": the parser admits no other kind
        _need(args, "n", "support")
        dist = atom_concentrator(args.n, intake.int_list(args.support, "vertex list"))
    _emit(dist.to_json())
    return 0


def cmd_implies(args) -> int:
    from .atoms import FCMI, implies

    pi1, pi2 = (intake.expect(intake.load(p), list, "independency list JSON") for p in (args.pi1, args.pi2))
    verdict = implies([FCMI.from_json(d) for d in pi1], [FCMI.from_json(d) for d in pi2])
    _emit({"implies": verdict})
    return 0 if verdict else 1


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 with one line, like any input error
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="imeasure",
        description="Atom measures, Markov random fields, subfield graphs, diagram plans",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = add("entropy", cmd_entropy, help="entropy vector of a distribution")
    sp.add_argument("--dist", required=True, help="distribution JSON file")
    sp.add_argument("--base", type=float, default=2.0)

    sp = add("mu", cmd_mu, help="atom measure from a distribution or entropy vector")
    sp.add_argument("--dist", help="distribution JSON file")
    sp.add_argument("--entropy", help="entropy vector JSON file")
    sp.add_argument("--base", type=float, default=2.0)
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = add("check-mrf", cmd_check_mrf, help="does the measure respect a graph")
    sp.add_argument("--dist", help="distribution JSON file")
    sp.add_argument("--entropy", help="entropy vector JSON file")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--base", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = add("image", cmd_image, help="atom image of a graph or independency")
    sp.add_argument("--graph")
    sp.add_argument("--fcmi")

    sp = add("recover", cmd_recover, help="invert an atom image")
    sp.add_argument("--atoms", required=True, help="atom set JSON file")
    sp.add_argument("--target", choices=["fcmi", "graph"], required=True)

    sp = add("subfield", cmd_subfield, help="boundary graph of a kept vertex set")
    sp.add_argument("--graph")
    sp.add_argument("--vp", help="kept vertices, comma-separated")
    sp.add_argument("--input", help="single JSON file with fields graph and V_prime")
    sp.add_argument("--format", choices=["json", "dot"], default="json")

    sp = add("smallest", cmd_smallest, help="smallest-graph candidate from vanishing atoms")
    sp.add_argument("--atoms", help="vanishing atom set JSON file")
    sp.add_argument("--dist", help="distribution JSON file")
    sp.add_argument("--base", type=float, default=2.0)
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = add("subtree", cmd_subtree, help="does a kept set of a tree stay a tree")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--vp", required=True)

    sp = add("diagram", cmd_diagram, help="information-diagram construction plan")
    sp.add_argument("action", nargs="?", default="plan")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--format", choices=["json", "dot", "text"], default="json")

    sp = add("witness", cmd_witness, help="emit a named witness distribution")
    sp.add_argument("kind", choices=["star", "ring", "atom"])
    sp.add_argument("--graph", help="star: host graph JSON")
    sp.add_argument("--hub", type=int, help="star: the high-degree vertex")
    sp.add_argument("--leaves", help="star: three neighbors, comma-separated")
    sp.add_argument("--n", type=int, help="ring/atom: variable count")
    sp.add_argument("--field", type=int, help="ring: prime field size")
    sp.add_argument("--alphas", help="ring: distinct nonzero multipliers")
    sp.add_argument("--support", help="atom: plain variables of the loaded atom")

    sp = add("implies", cmd_implies, help="does one independency collection imply another")
    sp.add_argument("--pi1", required=True, help="JSON list of independencies")
    sp.add_argument("--pi2", required=True, help="JSON list of independencies")

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here rather than at exit
        return code
    except BrokenPipeError:
        # as in Python's signal docs: the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, KeyError, TypeError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
