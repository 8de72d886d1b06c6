"""Building a customized information diagram one curve at a time.

A correct diagram for a graph suppresses exactly the atoms whose complemented
set separates the graph.  The plan works through the boundary graphs of the
label prefixes: when curve m arrives, every surviving atom is split, included
in the new curve, or excluded from it, and the suppressed atoms never come
back.  The output is a structural plan: which action applies to which atom.
A plan holds one int8 action code per atom of each stage (0 split, 1 include,
2 exclude, -1 for a suppressed atom); `plan.steps` reads them as atom -> action
dicts.
"""

from imeasure import Action, Graph, build_plan, elimination_sequence, export_plan, parse_plan

star = Graph(4, [(1, 4), (2, 4), (3, 4)])
print("prefix graphs of the star (hub last):")
for m, g in enumerate(elimination_sequence(star), start=1):
    print(f"   stage {m}:", sorted(g.edges) or "-")

plan = build_plan(star)
print("\nhub stage codes, by complemented mask:", list(plan.codes[-1]))
print("the same stage as actions:")
for atom, action in sorted(plan.steps[-1].items()):
    print(f"   {str(atom):10s} {action.value}")
print("surviving atoms:", len(plan.final_type1), "of", 2**4 - 1)

print("\nhuman-readable plan for the 4-cycle:")
print(export_plan(build_plan(Graph.cycle(4)), "text"))

# Machine formats round-trip, and the graph blocks render with graphviz
plan6 = build_plan(Graph.path(6))
assert parse_plan(export_plan(plan6, "json")) == plan6
dot = export_plan(plan6, "dot")
print("DOT export, first block:")
print(dot.split("}")[0] + "}")
