"""Recursive construction plans for customized information diagrams.

A diagram for a graph on 1..n is grown one variable at a time: first reduce
the graph to its boundary graphs on the prefixes {1..m}, then walk m upward,
deciding for every connected atom of the previous stage whether the new
variable's curve splits it, includes it, or excludes it.  Disconnected atoms
stay suppressed: both of their children remain disconnected, and no connected
atom ever loses both children, so the walk never gets stuck.

The plan is structural: actions plus atom bookkeeping, no geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .atoms import Atom, AtomSet, AtomType, image_of_graph, type_of_atom
from .graphs import Graph, clique_edges


class Action(str, Enum):
    SPLIT = "split"
    INCLUDE = "include"
    EXCLUDE = "exclude"


def elimination_sequence(g: Graph) -> list[Graph]:
    """Boundary graphs of every label prefix, ending with g itself.

    Entry m-1 is the boundary graph on {1..m}, built by eliminating the top
    vertex one step at a time (each step cliques the dropped vertex's
    neighborhood).
    """
    if g.vmask != (1 << g.n) - 1:
        raise ValueError("elimination needs a graph on the full universe 1..n")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    seq: list[Graph] = [g] * g.n
    cur = g
    for m in range(g.n - 1, 0, -1):
        top = m + 1
        edges = set((u, v) for u, v in cur.edges if v != top)  # edges are sorted pairs
        edges |= clique_edges(cur.adjacency(top))
        cur = Graph(m, edges)
        seq[m - 1] = cur
    return seq


def classify_atom(seq: list[Graph], m: int, a: Atom) -> Action:
    """Action of curve m on a connected atom of stage m-1.

    With gamma the neighbors of m in the stage-m graph: no gamma vertex plain
    in the atom means exclude; exactly one means split; two or more means the
    plain child is connected and the complemented child's type decides between
    split and include.
    """
    if not 2 <= m <= len(seq):
        raise ValueError(f"stage {m} outside 2..{len(seq)}")
    if a.n != m - 1:
        raise ValueError(f"atom over {a.n} variables at stage {m}")
    g_prev, g_cur = seq[m - 2], seq[m - 1]
    if type_of_atom(g_prev, a) is AtomType.TYPE_II:
        raise ValueError("disconnected atoms stay suppressed; classify connected atoms only")
    gamma = g_cur.adjacency(m)
    plain_gamma = (gamma & ~a.complemented).bit_count()
    if plain_gamma == 0:
        return Action.EXCLUDE
    if plain_gamma == 1:
        return Action.SPLIT
    outside_child = Atom(m, a.complemented | 1 << (m - 1))
    if type_of_atom(g_cur, outside_child) is AtomType.TYPE_I:
        return Action.SPLIT
    return Action.INCLUDE


@dataclass(frozen=True)
class DiagramPlan:
    n: int
    sequence: tuple[Graph, ...]
    steps: tuple[dict[Atom, Action], ...]  # steps[i] handles stage m = i + 2
    final_type1: AtomSet

    def __eq__(self, other):
        return (
            isinstance(other, DiagramPlan)
            and self.n == other.n
            and self.sequence == other.sequence
            and self.steps == other.steps
            and self.final_type1 == other.final_type1
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sequence": [g.to_json() for g in self.sequence],
            "steps": [
                {
                    "m": i + 2,
                    "actions": [
                        {"atom": a.to_text(), "action": act.value}
                        for a, act in sorted(step.items())
                    ],
                }
                for i, step in enumerate(self.steps)
            ],
            "final_type1": [a.to_text() for a in self.final_type1],
        }

    @classmethod
    def from_json(cls, d: dict) -> "DiagramPlan":
        for key in ("n", "sequence", "steps", "final_type1"):
            if key not in d:
                raise ValueError(f"plan JSON missing field {key!r}")
        n = int(d["n"])
        sequence = tuple(Graph.from_json(gd) for gd in d["sequence"])
        steps = []
        for i, sd in enumerate(d["steps"]):
            m = int(sd["m"])
            if m != i + 2:
                raise ValueError("plan JSON steps out of order")
            steps.append(
                {
                    Atom.from_text(row["atom"], m - 1): Action(row["action"])
                    for row in sd["actions"]
                }
            )
        final = AtomSet.of(n, (Atom.from_text(t, n) for t in d["final_type1"]))
        return cls(n, sequence, tuple(steps), final)


def build_plan(g: Graph) -> DiagramPlan:
    """Full construction plan: one action per connected atom per stage."""
    seq = elimination_sequence(g)
    steps = []
    for m in range(2, g.n + 1):
        g_prev = seq[m - 2]
        step: dict[Atom, Action] = {}
        for c in range((1 << (m - 1)) - 1):
            a = Atom(m - 1, c)
            if type_of_atom(g_prev, a) is AtomType.TYPE_I:
                step[a] = classify_atom(seq, m, a)
        steps.append(step)
    every_atom = (1 << ((1 << g.n) - 1)) - 1
    final = AtomSet(g.n, every_atom & ~image_of_graph(g).bits)  # the connected atoms
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
    return DiagramPlan.from_json(json.loads(text))

