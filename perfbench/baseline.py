"""Record a baseline: two sets of ten seeds per workload, their spread, one held-out seed.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` twice per workload and seed with tracing off, alternating
which of the two sets runs first, then once per workload on the held-out
seed with tracing off and once with tracing on.
For each end-to-end metric it records the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread: the distance
between the quartiles as a share of the median, the figure each bound in
BENCHMARK.json is compared with.  Runs one process at a time; anything else
running on the machine shows up in the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
HELD_OUT = 101


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"baseline: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "machine": {"cpu": cpu_model(), "cores": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "held_out_seed": HELD_OUT,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        sets = ([], [])
        for i, s in enumerate(SEEDS):
            for which in (i % 2, 1 - i % 2):
                sets[which].append(run(name, s, seconds, 0))
        held = run(name, HELD_OUT, seconds, 0)
        traced = run(name, HELD_OUT, seconds, 1)
        results = sets[0]
        entry = {
            "failed": sum(r["failed"] for r in sets[0] + sets[1]),
            "attempted": [r["attempted"] for r in results],
            "end_to_end": {},
            "second_set": {},
            "held_out": {k: v["value"] for k, v in held["metrics"].items()},
            "traced_held_out": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric in bench["end_to_end"]:
            m = metric["name"]
            entry["end_to_end"][m] = summary([r["metrics"][m]["value"] for r in results])
            entry["end_to_end"][m]["bound"] = metric["bound"]
            entry["second_set"][m] = summary([r["metrics"][m]["value"] for r in sets[1]])
        out["workloads"][name] = entry
        print(f"{name}: " + ", ".join(f"{m} {s['median']:.4g} (spread {s['spread']:.3f})" for m, s in entry["end_to_end"].items()), flush=True)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
