"""Recursive construction plans for customized information diagrams.

A diagram for a graph on 1..n is grown one variable at a time: first take
the graph's boundary graphs on the prefixes {1..m}, each in closed form
(`subfield.g_star_closed_form`), then walk m upward, deciding for every
connected atom of the previous stage whether the new variable's curve splits
it, includes it, or excludes it.  Disconnected atoms stay suppressed: both of
their children remain disconnected, and no connected atom ever loses both
children, so the walk never gets stuck.

Every stage is typed at once from the connectivity tables of the stage-m-1
and stage-m boundary graphs (`Graph.connected_table`).  A plan keeps one int8
action code per atom of each stage, -1 for a disconnected atom, and derives
`steps` from them.  Every export is written from the codes and the cached atom
texts; the JSON one by an emitter in the layout of `json.dumps(..., indent=2)`.

The plan is structural: actions plus atom bookkeeping, no geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _intake as intake
from .atoms import BAR, Atom, AtomSet, atom_texts
from .graphs import MAX_ATOM_VARS, Graph
from .subfield import g_star_closed_form


class Action(str, Enum):
    SPLIT = "split"
    INCLUDE = "include"
    EXCLUDE = "exclude"


_ACTIONS = (Action.SPLIT, Action.INCLUDE, Action.EXCLUDE)  # codes 0, 1, 2 of _stage_actions
_CODES = {a.value: code for code, a in enumerate(_ACTIONS)}


def elimination_sequence(g: Graph) -> list[Graph]:
    """Boundary graphs of every label prefix, ending with g itself.

    Entry m-1 is the boundary graph on {1..m} as a graph on 1..m: the closed
    form, which equals eliminating the vertices above m one at a time.
    """
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("elimination needs a graph on the full universe 1..n")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    return [Graph(m, g_star_closed_form(g, (1 << m) - 1).edges) for m in range(1, g.n)] + [g]


def _stage_actions(seq: list[Graph], m: int) -> np.ndarray:
    """Action code (an index into _ACTIONS, as int8) of curve m for every atom
    of stage m-1, by complemented mask; -1 marks the disconnected atoms.

    With gamma the neighbors of m in the stage-m graph: no gamma vertex plain
    in the atom means exclude; exactly one means split; two or more means the
    plain child is connected and the complemented child's type decides between
    split and include.
    """
    g_prev, g_cur = seq[m - 2], seq[m - 1]
    c = np.arange((1 << (m - 1)) - 1)
    plain_gamma = g_cur.adjacency(m) & ~c
    at_most_one = (plain_gamma & (plain_gamma - 1)) == 0
    outside_connected = g_cur.connected_table()[c | 1 << (m - 1)]
    return np.select(
        [~g_prev.connected_table()[:-1], plain_gamma == 0, at_most_one | outside_connected],
        [-1, 2, 0],
        default=1,
    ).astype(np.int8)


def classify_atom(seq: list[Graph], m: int, a: Atom) -> Action:
    """Action of curve m on a connected atom of stage m-1 (see _stage_actions)."""
    if not 2 <= m <= len(seq):
        raise ValueError(f"stage {m} outside 2..{len(seq)}")
    if a.n != m - 1:
        raise ValueError(f"atom over {a.n} variables at stage {m}")
    code = _stage_actions(seq, m)[a.complemented]
    if code < 0:
        raise ValueError("disconnected atoms stay suppressed; classify connected atoms only")
    return _ACTIONS[code]


@dataclass(frozen=True)
class DiagramPlan:
    """`codes[i]` holds the `_stage_actions` array of stage m = i + 2 as int8 bytes."""

    n: int
    sequence: tuple[Graph, ...]
    codes: tuple[bytes, ...]
    final_type1: AtomSet

    def _stages(self):
        """(m, connected atoms of stage m-1 by ascending mask, their codes) for every m >= 2."""
        for m, raw in enumerate(self.codes, start=2):
            codes = np.frombuffer(raw, dtype=np.int8)
            live = np.flatnonzero(codes >= 0)
            yield m, live.tolist(), codes[live].tolist()

    @property
    def steps(self) -> tuple[dict[Atom, Action], ...]:
        """steps[i] maps every connected atom of stage m-1 = i + 1 to the action of curve m."""
        return tuple(
            {Atom(m - 1, c): _ACTIONS[k] for c, k in zip(cs, ks)} for m, cs, ks in self._stages()
        )

    def to_json(self) -> dict:
        return json.loads(_plan_json(self))  # one export path: the emitter

    @classmethod
    def from_json(cls, d: dict) -> "DiagramPlan":
        n, sequence, steps, final = intake.fields(d, "plan JSON", "n", "sequence", "steps", "final_type1")
        n = intake.var_count(n, MAX_ATOM_VARS)
        sequence = tuple(Graph.from_json(gd) for gd in intake.expect(sequence, list, "plan JSON field 'sequence'"))
        if len(sequence) != n or len(intake.expect(steps, list, "plan JSON field 'steps'")) != n - 1:
            raise ValueError(f"plan JSON over {n} variables needs {n} graphs and {n - 1} steps")
        codes = []
        for i, sd in enumerate(steps):
            m, rows = intake.fields(sd, "plan JSON step", "m", "actions")
            if intake.var_count(m, MAX_ATOM_VARS) != i + 2:
                raise ValueError("plan JSON steps out of order")
            texts, actions = intake.columns(rows, f"plan JSON step {m} field 'actions'", "atom", "action")
            cmasks = intake.atom_cmasks(texts, m - 1, f"plan JSON step {m}")
            try:
                ks = [_CODES[a] for a in actions]
            except (KeyError, TypeError):  # Action() names the first value that is not an action
                ks = [_ACTIONS.index(Action(a)) for a in actions]
            if len(set(cmasks)) != len(cmasks):
                raise ValueError(f"plan JSON step {m} names an atom twice")
            code = np.full((1 << (m - 1)) - 1, -1, dtype=np.int8)
            code[cmasks] = ks
            codes.append(code.tobytes())
        flags = np.zeros((1 << n) - 1, dtype=bool)
        flags[intake.atom_cmasks(final, n, "plan JSON field 'final_type1'")] = True
        plan = cls(n, sequence, tuple(codes), AtomSet.from_flags(n, flags))
        g = sequence[-1]
        if g.n != n or g.vmask != (1 << n) - 1:
            raise ValueError(f"plan JSON sequence graph {n} must be a graph on 1..{n}")
        built = build_plan(g)
        if plan != built:  # name the first stage whose graph or step differs
            differ = [m for m in range(1, n + 1) if sequence[m - 1] != built.sequence[m - 1]
                      or m > 1 and plan.codes[m - 2] != built.codes[m - 2]]
            where = f"stage {differ[0]}" if differ else "field 'final_type1'"
            raise ValueError(f"plan JSON {where} differs from the plan that build_plan makes of its last graph")
        return plan


def build_plan(g: Graph) -> DiagramPlan:
    """Full construction plan: one action code per atom per stage."""
    seq = elimination_sequence(g)
    codes = tuple(_stage_actions(seq, m).tobytes() for m in range(2, g.n + 1))
    final = AtomSet.from_flags(g.n, g.connected_table()[:-1])  # the connected atoms
    return DiagramPlan(g.n, tuple(seq), codes, final)


# The JSON form is laid out as json.dumps(..., sort_keys=True, indent=2) plus a
# newline, written directly: every key is known, and atom texts hold only
# digits, spaces and apostrophes, so nothing needs escaping.  Values are
# rendered strings; `depth` is the nesting level of the array or object.


def _array(items: list[str], depth: int, head: str = "", tail: str = "") -> str:
    """A JSON array of `head + item + tail` for every item."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + head + (tail + "," + pad + head).join(items) + tail + "\n" + "  " * depth + "]"


def _object(fields: list[tuple[str, str]], depth: int) -> str:
    """A JSON object of (key, rendered value) pairs, keys in sorted order."""
    pad = "\n" + "  " * (depth + 1)
    return "{" + pad + ("," + pad).join(f'"{k}": {v}' for k, v in fields) + "\n" + "  " * depth + "}"


# an action row sits at depth 4 (plan, steps, step, actions, row)
_ROW_HEAD = [f'{{\n          "action": "{a.value}",\n          "atom": "' for a in _ACTIONS]
_ROW_TAIL = '"\n        }'


def _graph_json(g: Graph) -> str:
    """A sequence entry (depth 2) with the fields of `Graph.to_json`."""
    d = g.to_json()
    fields = [("edges", _array([_array([str(u), str(v)], 4) for u, v in d["edges"]], 3)), ("n", str(g.n))]
    if "vertices" in d:
        fields.append(("vertices", _array(list(map(str, d["vertices"])), 3)))
    return _object(fields, 2)


def _plan_json(plan: DiagramPlan) -> str:
    steps = [
        _object([("actions", _array([_ROW_HEAD[k] + t for t, k in zip(atom_texts(m - 1, cs), ks)], 3, tail=_ROW_TAIL)),
                 ("m", str(m))], 2)
        for m, cs, ks in plan._stages()
    ]
    fields = [
        ("final_type1", _array(atom_texts(plan.n, plan.final_type1.cmasks()), 1, '"', '"')),
        ("n", str(plan.n)),
        ("sequence", _array([_graph_json(g) for g in plan.sequence], 1)),
        ("steps", _array(steps, 1)),
    ]
    return _object(fields, 0) + "\n"


def export_plan(plan: DiagramPlan, fmt: str = "json") -> str:
    """Render a plan as machine JSON, DOT graph blocks, or a step table."""
    if fmt == "json":
        return _plan_json(plan)
    if fmt == "dot":
        return "".join(
            g.to_dot(name=f"stage_{m}") for m, g in enumerate(plan.sequence, start=1)
        )
    if fmt == "text":
        lines = [f"diagram plan for {plan.n} variables"]
        for m, cs, ks in plan._stages():
            lines.append(f"stage {m}: add curve {m}")
            texts = atom_texts(m - 1, cs)
            for code, act in enumerate(_ACTIONS):
                names = [t for t, k in zip(texts, ks) if k == code]
                if names:
                    lines.append(f"  {act.value:8s} {', '.join(names)}".replace("'", BAR))
        kept = ", ".join(atom_texts(plan.n, plan.final_type1.cmasks())).replace("'", BAR)
        lines.append(f"kept atoms ({len(plan.final_type1)}): {kept}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_plan(text: str) -> DiagramPlan:
    """Inverse of export_plan(..., "json")."""
    return DiagramPlan.from_json(intake.loads(text, "plan text"))

