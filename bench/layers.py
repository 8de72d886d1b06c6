"""Per-layer timings at fixed sizes, printed as one JSON line.

Every input is built in code.  Today the script times the atom-set JSON layer:
`AtomSet.from_json` (reading an image's atom lists) and `AtomSet.to_json`, on
the images of a 4x4 grid (54,029 atoms), a 14-cycle and a 12-path.  Each layer
runs k times per input and reports the best and the median, in seconds.

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
from imeasure import AtomSet, Graph, image_of_graph

DEFAULT_GRAPHS = ("grid-4x4", "cycle-14", "path-12")


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


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", type=int, default=20, help="timed calls per layer and input (default 20)")
    ap.add_argument("--graphs", nargs="+", default=DEFAULT_GRAPHS, help="path-N, cycle-N or grid-RxC")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("-k must be at least 1")
    result = {"host": host(), "k": args.k, "layers": atomset_json(args.graphs, args.k)}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
