"""The boundary graph: the smallest graph representing a sub-collection.

Keep a subset of the variables of a Markov field and ask which graph is
guaranteed to represent what is left.  Answer: join two kept vertices iff the
original graph connects them through dropped vertices only.  The library
computes it in closed form; every edge it keeps is genuinely necessary.
"""

import json
from pathlib import Path

from imeasure import (
    Graph,
    boundary_set,
    check_mrf,
    cutset_lift,
    equals_induced,
    g_star_closed_form,
    measure_from_distribution,
    measure_of_expression,
    minimality_witness,
)

fixture = Path(__file__).parent.parent / "tests" / "fixtures" / "graph_pockets9.json"
g = Graph.from_json(json.loads(fixture.read_text()))
keep = [1, 2, 5, 6, 8, 9]

print("graph:", sorted(g.edges))
print("keep:", keep, " boundary vertices:", sorted(boundary_set(g, keep)))

# Closed form: the induced edges, plus a clique on the neighborhood of every
# component of the dropped vertices.  Direct path search and one-at-a-time
# elimination give the same graph; the test suite asserts that three-way
# equality in acceptance criterion 05.
g_star = g_star_closed_form(g, keep)
print("boundary graph edges:", sorted(g_star.edges))

# Dropping {3,4,7} leaves two interior pockets; each pocket's neighborhood
# becomes a clique, so this boundary graph gains edges over the induced one.
print("equals induced subgraph:", equals_induced(g, keep))

# Composition: restricting twice equals restricting once
inner = [2, 5, 8, 9]
print("two-step equals direct:",
      g_star_closed_form(g_star, inner) == g_star_closed_form(g, inner))

# Separators of the boundary graph separate the original graph too
print("separator {2,5} lifts:", cutset_lift(g, keep, [2, 5]))

# Edge {1,6} exists only through the pocket {3,4}; copying one bit along the
# path 1-3-4-6 produces a distribution respecting g in which 1 and 6 stay
# dependent given the rest of the kept set.
w = minimality_witness(g, keep, (1, 6))
mu = measure_from_distribution(w)
print("witness respects g:", check_mrf(mu, g).ok)
rest = [v for v in keep if v not in (1, 6)]
print("dependence of 1 and 6 given the rest:", measure_of_expression(mu, [1, 6], rest))
