"""Signed information measures on atoms, Markov random fields, and subfields.

The package turns joint distributions into entropy vectors and the unique
signed measure on set-variable atoms, classifies atoms against undirected
graphs, builds the boundary graph representing any sub-collection of the
variables, tests when tree structure survives restriction, generates the
standard witness distributions, and emits recursive construction plans for
customized information diagrams.

Names resolve lazily (PEP 562): `import imeasure` loads no submodule, and the
first use of a public name or a submodule name imports the module behind it.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_NAMES = {
    "atoms": """Atom AtomSet AtomType FCMI NotAnFcmiImage all_atoms image_of_collection image_of_fcmi
        image_of_graph image_of_partial implies recover_fcmi recover_graph type_of_atom""",
    "diagram": "Action DiagramPlan build_plan classify_atom elimination_sequence export_plan parse_plan",
    "graphs": "Graph ShapeLabel classify_shape clique_edges maximal_cliques",
    "measures": """ChainInequalityCheck Distribution EntropyVector IMeasureVector MrfCheck NonnegativityReport
        Reduction atom_measure_from_distribution chain_inequality_valid check_mrf entropy_from_mu entropy_vector
        fcmi_holds generate_mrf marginal_entropy measure_from_distribution measure_of_expression measure_of_groups
        mu_from_entropy nonnegativity_report prefix_relabel reduce_atom restrict_entropy vanishing_atoms
        verify_reduction""",
    "subfield": """SmallestRepResult SubfieldResult SubtreeCheck boundary_set cutset_lift equals_induced
        g_star_closed_form minimality_witness smallest_graph subfield_graph subtree_condition""",
    "witnesses": "FieldSpec atom_concentrator ring_field_witness source_entropy star_xor_witness",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = frozenset(_NAMES) | {"_bits", "_intake", "cli"}  # not __main__, which runs the CLI

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached: a name rebound in its defining module (by a patch or a tracer) reads the same here
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:  # importing a submodule also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
