"""Per-layer timings at fixed sizes, printed as one JSON line.

Every input is built in code.  The script times two layers.  The atom-set
JSON layer is `AtomSet.from_json` (reading an image's atom lists) and
`AtomSet.to_json`, on the images of a 4x4 grid (54,029 atoms), a 14-cycle and
a 12-path.  The atom-expression layer, always at n = 16, is `image_of_fcmi`,
`image_of_partial`, `fcmi_holds`, `measure_of_groups` and `recover_fcmi` on the
independencies of STATEMENTS.  Each layer runs k times per input and reports
the best and the median, in seconds.

    PYTHONPATH=src python bench/layers.py                  # k = 20
    PYTHONPATH=src python bench/layers.py -k 1 --graphs path-3 grid-2x2

The source timed is whichever `imeasure` is imported; its path is printed under
"host", so two checkouts can be timed with two PYTHONPATH settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import sys
import time

import numpy as np

import imeasure
from imeasure import (
    FCMI,
    AtomSet,
    Graph,
    IMeasureVector,
    fcmi_holds,
    image_of_fcmi,
    image_of_graph,
    image_of_partial,
    measure_of_groups,
    recover_fcmi,
)

DEFAULT_GRAPHS = ("grid-4x4", "cycle-14", "path-12")
# (given, groups) on 1..16: a full statement whose image has 16,339 atoms; a
# partial one with 238 parts of 128 atoms; one with 4 parts of 8,192 atoms
STATEMENTS = {
    "full-4": ([15, 16], [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11], [12, 13, 14]]),
    "partial-3x3x2": ([16], [[1, 2, 3], [4, 5, 6], [7, 8]]),
    "partial-1x1x1": ([], [[1], [2], [3]]),
}


def build_graph(name: str) -> Graph:
    """`path-N`, `cycle-N` or `grid-RxC` (vertices numbered row by row)."""
    m = re.fullmatch(r"(path|cycle)-(\d+)|grid-(\d+)x(\d+)", name)
    if m is None:
        raise SystemExit(f"unknown graph {name!r}: path-N, cycle-N or grid-RxC expected")
    if m[1] == "path":
        return Graph.path(int(m[2]))
    if m[1] == "cycle":
        return Graph.cycle(int(m[2]))
    rows, cols = int(m[3]), int(m[4])
    right = [(r * cols + c + 1, r * cols + c + 2) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c + 1, (r + 1) * cols + c + 1) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, right + down)


def timings(fn, k: int) -> dict:
    """Best and median of k timed calls of `fn`."""
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"best_s": round(min(times), 7), "median_s": round(statistics.median(times), 7)}


def host() -> dict:
    model = platform.processor()
    if not model and os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "platform": platform.platform(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "imeasure": os.path.dirname(imeasure.__file__),
    }


def atomset_json(names, k: int) -> dict:
    """`AtomSet.from_json` and `to_json` on the image of each named graph."""
    out: dict = {"atomset.from_json": {}, "atomset.to_json": {}}
    for name in names:
        img = image_of_graph(build_graph(name))
        d = json.loads(json.dumps(img.to_json()))
        if AtomSet.from_json(d) != img:
            raise SystemExit(f"{name}: the image does not survive a JSON round trip")
        size = {"n": img.n, "atoms": len(d["atoms"])}
        out["atomset.from_json"][name] = {**size, **timings(lambda: AtomSet.from_json(d), k)}
        out["atomset.to_json"][name] = {**size, **timings(img.to_json, k)}
    return out


def atom_expressions(k: int) -> dict:
    """The n = 16 atom selections on STATEMENTS, under a measure on which each holds."""
    stmts = {name: FCMI.of(16, *gq) for name, gq in STATEMENTS.items()}
    table = np.random.default_rng(16).normal(size=1 << 16)
    for st in stmts.values():  # each statement's image vanishes, so fcmi_holds checks every part
        for part in [image_of_fcmi(st)] if st.is_full else image_of_partial(st):
            table[:-1][part.flags()] = 0.0
    mu = IMeasureVector(16, 2.0, table)
    full = stmts["full-4"]
    img = image_of_fcmi(full)
    if recover_fcmi(img) != full or not all(fcmi_holds(st, mu) for st in stmts.values()):
        raise SystemExit("atom expressions: a statement does not round-trip or hold")
    partial = {name: st for name, st in stmts.items() if not st.is_full}
    return {
        "atoms.image_of_fcmi": {"full-4": {"atoms": len(img), **timings(lambda: image_of_fcmi(full), k)}},
        "atoms.image_of_partial": {
            name: {"parts": len(image_of_partial(st)), **timings(lambda st=st: image_of_partial(st), k)}
            for name, st in partial.items()
        },
        "measures.fcmi_holds": {name: timings(lambda st=st: fcmi_holds(st, mu), k) for name, st in stmts.items()},
        "measures.measure_of_groups": {
            name: timings(lambda st=st: measure_of_groups(mu, st.groups, st.given), k) for name, st in stmts.items()
        },
        "atoms.recover_fcmi": {"full-4": timings(lambda: recover_fcmi(img), k)},
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", type=int, default=20, help="timed calls per layer and input (default 20)")
    ap.add_argument("--graphs", nargs="+", default=DEFAULT_GRAPHS, help="path-N, cycle-N or grid-RxC")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("-k must be at least 1")
    layers = {**atomset_json(args.graphs, args.k), **atom_expressions(args.k)}
    result = {"host": host(), "k": args.k, "layers": layers}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
