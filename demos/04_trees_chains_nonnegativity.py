"""Which fields keep a nonnegative measure, and what survives restriction.

Chains (and disjoint unions of chains) are the only graphs whose fields
always have nonnegative atom measures.  Restricting a chain always leaves a
chain; restricting a tree leaves a tree exactly when no dropped vertex sees
three kept vertices through dropped territory.
"""

import json
import random
from pathlib import Path

from imeasure import (
    Atom,
    Graph,
    chain_inequality_valid,
    check_mrf,
    generate_mrf,
    measure_from_distribution,
    nonnegativity_report,
    reduce_atom,
    subfield_graph,
    subtree_condition,
)

# Random chain fields: measure nonnegative, separator atoms vanish
rng = random.Random(0)
for n in (3, 4, 5):
    mu = measure_from_distribution(generate_mrf(Graph.path(n), seed=n))
    print(f"chain on {n}: nonnegative =", nonnegativity_report(mu, 1e-7).nonneg)

# Any connected atom reduces to a pairwise dependence given the complemented
# set, which explains the nonnegativity on chains.
p5 = Graph.path(5)
a = Atom.of(5, [1, 5])  # plain on the interval 2..4
print("reduction core of", a, "->", sorted(reduce_atom(p5, a).kept))

# Linear forms over connected chain atoms hold universally iff every
# coefficient is nonnegative; otherwise a one-atom distribution breaks them.
good = chain_inequality_valid({Atom.of(4, [1, 4]): 2.0, Atom.of(4, []): 0.5})
print("\nnonnegative combination always holds:", good.valid)
bad = chain_inequality_valid({Atom.of(4, [1, 4]): 2.0, Atom.of(4, [4]): -0.5})
print("negative coefficient refuted by witness:", not bad.valid,
      "on atom", bad.violating_atom)
mu_bad = measure_from_distribution(bad.witness)
print("witness stays a chain field:", check_mrf(mu_bad, Graph.path(4)).ok)

# Subtrees: keep {1,4,8,9,12} of the 12-vertex tree and the boundary graph is
# a path; also keep 7 and a cycle appears through the dropped vertex 6.
fixture = Path(__file__).parent.parent / "tests" / "fixtures" / "tree12.json"
tree = Graph.from_json(json.loads(fixture.read_text()))
ok = subtree_condition(tree, [1, 4, 8, 9, 12])
print("\nkeep {1,4,8,9,12}: still a tree ->", ok.is_subtree)
print("   boundary graph:", sorted(subfield_graph(tree, [1, 4, 8, 9, 12]).g_star.edges))
bad_keep = subtree_condition(tree, [1, 4, 7, 8, 9, 12])
print("keep {1,4,7,8,9,12}: still a tree ->", bad_keep.is_subtree,
      f"(vertex {bad_keep.witness_vertex} reaches {bad_keep.witness_targets})")
