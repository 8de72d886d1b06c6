"""Recursive construction plans for customized information diagrams.

A diagram for a graph on 1..n is grown one variable at a time: first take
the graph's boundary graphs on the prefixes {1..m}, each in closed form
(`subfield.g_star_closed_form`), then walk m upward, deciding for every
connected atom of the previous stage whether the new variable's curve splits
it, includes it, or excludes it.  Disconnected atoms stay suppressed: both of
their children remain disconnected, and no connected atom ever loses both
children, so the walk never gets stuck.

Every stage is typed at once from the connectivity tables of the stage-m-1
and stage-m boundary graphs (`Graph.connected_table`).

The plan is structural: actions plus atom bookkeeping, no geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _intake as intake
from .atoms import Atom, AtomSet, atom_texts
from .graphs import MAX_ATOM_VARS, Graph
from .subfield import g_star_closed_form


class Action(str, Enum):
    SPLIT = "split"
    INCLUDE = "include"
    EXCLUDE = "exclude"


_ACTIONS = (Action.SPLIT, Action.INCLUDE, Action.EXCLUDE)  # codes 0, 1, 2 of _stage_actions


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
    """Action code (an index into _ACTIONS) of curve m for every atom of
    stage m-1, by complemented mask; -1 marks the disconnected atoms.

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
    )


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
    n: int
    sequence: tuple[Graph, ...]
    steps: tuple[dict[Atom, Action], ...]  # steps[i] handles stage m = i + 2
    final_type1: AtomSet

    def to_json(self) -> dict:
        steps = []
        for m, step in enumerate(self.steps, start=2):
            rows = sorted((a.complemented, act.value) for a, act in step.items())
            texts = atom_texts(m - 1, [c for c, _ in rows])
            steps.append(
                {"m": m, "actions": [{"atom": t, "action": v} for t, (_, v) in zip(texts, rows)]}
            )
        return {
            "n": self.n,
            "sequence": [g.to_json() for g in self.sequence],
            "steps": steps,
            "final_type1": atom_texts(self.n, self.final_type1.cmasks()),
        }

    @classmethod
    def from_json(cls, d: dict) -> "DiagramPlan":
        n, sequence, steps, final = intake.fields(d, "plan JSON", "n", "sequence", "steps", "final_type1")
        n = intake.var_count(n, MAX_ATOM_VARS)
        sequence = tuple(Graph.from_json(gd) for gd in intake.expect(sequence, list, "plan JSON field 'sequence'"))
        if len(sequence) != n or len(intake.expect(steps, list, "plan JSON field 'steps'")) != n - 1:
            raise ValueError(f"plan JSON over {n} variables needs {n} graphs and {n - 1} steps")
        out = []
        for i, sd in enumerate(steps):
            m, rows = intake.fields(sd, "plan JSON step", "m", "actions")
            if intake.var_count(m, MAX_ATOM_VARS) != i + 2:
                raise ValueError("plan JSON steps out of order")
            texts, actions = intake.columns(rows, f"plan JSON step {m} field 'actions'", "atom", "action")
            cmasks = intake.atom_cmasks(texts, m - 1, f"plan JSON step {m}")
            out.append({Atom(m - 1, c): Action(a) for c, a in zip(cmasks, actions)})
            if len(out[-1]) != len(cmasks):
                raise ValueError(f"plan JSON step {m} names an atom twice")
        flags = np.zeros((1 << n) - 1, dtype=bool)
        flags[intake.atom_cmasks(final, n, "plan JSON field 'final_type1'")] = True
        return cls(n, sequence, tuple(out), AtomSet.from_flags(n, flags))


def build_plan(g: Graph) -> DiagramPlan:
    """Full construction plan: one action per connected atom per stage."""
    seq = elimination_sequence(g)
    steps = []
    for m in range(2, g.n + 1):
        codes = _stage_actions(seq, m)
        live = np.flatnonzero(codes >= 0).tolist()
        steps.append({Atom(m - 1, c): _ACTIONS[k] for c, k in zip(live, codes[live].tolist())})
    final = AtomSet.from_flags(g.n, g.connected_table()[:-1])  # the connected atoms
    return DiagramPlan(g.n, tuple(seq), tuple(steps), final)


def export_plan(plan: DiagramPlan, fmt: str = "json") -> str:
    """Render a plan as machine JSON, DOT graph blocks, or a step table."""
    if fmt == "json":
        return json.dumps(plan.to_json(), sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        return "".join(
            g.to_dot(name=f"stage_{m}") for m, g in enumerate(plan.sequence, start=1)
        )
    if fmt == "text":
        lines = [f"diagram plan for {plan.n} variables"]
        for i, step in enumerate(plan.steps):
            m = i + 2
            lines.append(f"stage {m}: add curve {m}")
            by_action: dict[Action, list[str]] = {a: [] for a in Action}
            for atom, act in sorted(step.items()):
                by_action[act].append(str(atom))
            for act in Action:
                if by_action[act]:
                    lines.append(f"  {act.value:8s} {', '.join(by_action[act])}")
        kept = ", ".join(str(a) for a in plan.final_type1)
        lines.append(f"kept atoms ({len(plan.final_type1)}): {kept}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_plan(text: str) -> DiagramPlan:
    """Inverse of export_plan(..., "json")."""
    return DiagramPlan.from_json(intake.loads(text, "plan text"))

