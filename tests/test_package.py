"""The lazy package namespace, and the modules each CLI call loads.

`import imeasure` loads no submodule; a public name or submodule name
imports its module on first use.  Each subcommand imports what it runs, and
numpy is imported only by functions that build arrays, so a graph-only call
never loads the measure engine and a tree query never loads numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imeasure

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "tests/fixtures"
INPUTS = "tests/golden/inputs"

# run in a fresh interpreter: the argv (or null for a bare `import imeasure`, or
# a module name to import) comes in as JSON, and the exit code and sys.modules go out as JSON
PROBE = """
import contextlib, importlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import imeasure
    code = None
elif isinstance(argv, str):
    importlib.import_module(argv)
    code = None
else:
    from imeasure.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps([code, sorted(sys.modules)]))
"""

HEAVY = ("imeasure.measures", "imeasure.witnesses", "imeasure.diagram")


def loaded_after(argv) -> tuple[int | None, set[str]]:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_bare_import_loads_no_submodule_and_no_numpy():
    _, modules = loaded_after(None)
    assert "imeasure" in modules
    assert not {m for m in modules if m.startswith("imeasure.")}
    assert "numpy" not in modules


@pytest.mark.parametrize("module", ["imeasure._labels", "imeasure._intake"])
def test_label_and_intake_modules_load_no_atoms_and_no_numpy(module):
    _, modules = loaded_after(module)
    assert module in modules
    assert not modules & {"numpy", "imeasure.atoms", *HEAVY}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["subtree", "--graph", f"{FIXTURES}/tree12.json", "--vp", "1,4,8,9,12"], 0),
        (["subtree", "--graph", f"{FIXTURES}/tree12.json", "--vp", "1,4,7,8,9,12"], 1),
        (["subfield", "--graph", f"{FIXTURES}/graph_pockets9.json", "--vp", "2,5,8,9"], 0),
        (["subfield", "--input", f"{INPUTS}/subfield_sep5.json", "--format", "dot"], 0),
    ],
)
def test_tree_and_subfield_calls_load_no_numpy(argv, code):
    got, modules = loaded_after(argv)
    assert got == code
    assert "imeasure.subfield" in modules
    assert not modules & {"numpy", "imeasure.atoms", *HEAVY}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["image", "--graph", f"{FIXTURES}/c4.json"], 0),
        (["recover", "--atoms", f"{INPUTS}/img_c4.json", "--target", "fcmi"], 1),
        (["recover", "--atoms", f"{INPUTS}/img_fcmi_given3.json", "--target", "graph"], 0),
        (["implies", "--pi1", f"{INPUTS}/pi_mutual3.json", "--pi2", f"{INPUTS}/pi_pair3.json"], 0),
    ],
)
def test_graph_only_calls_load_no_measure_engine(argv, code):
    got, modules = loaded_after(argv)
    assert got == code
    assert "imeasure.atoms" in modules
    assert not modules & set(HEAVY)


def test_every_public_name_comes_from_its_defining_module():
    for name in imeasure.__all__:
        ns = {}
        exec(f"from imeasure import {name}", ns)
        obj = ns[name]
        assert obj.__module__.startswith("imeasure.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert getattr(imeasure, name) is obj


def test_all_is_sorted_and_names_each_public_name_once():
    assert imeasure.__all__ == sorted(set(imeasure.__all__))
    assert len(imeasure.__all__) == sum(len(names.split()) for names in imeasure._NAMES.values())


def test_dir_and_star_import_cover_all():
    assert set(imeasure.__all__) <= set(dir(imeasure))
    ns = {}
    exec("from imeasure import *", ns)
    assert set(imeasure.__all__) <= set(ns)
    assert all(ns[name] is getattr(imeasure, name) for name in imeasure.__all__)


def test_submodule_names_resolve_to_the_modules():
    for module in ("atoms", "cli", "diagram", "graphs", "measures", "subfield", "witnesses"):
        assert getattr(imeasure, module) is sys.modules[f"imeasure.{module}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        imeasure.no_such_name
    assert not hasattr(imeasure, "__main__")  # importing it would run the CLI
    with pytest.raises(ImportError):
        exec("from imeasure import no_such_name", {})
