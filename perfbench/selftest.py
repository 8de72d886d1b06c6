"""Self-test of the correctness gate: real outputs pass, perturbed ones fail.

    python3 perfbench/selftest.py

For one op of every class in every workload, runs the op, checks its real
output, then checks a few perturbed copies: a flipped verdict, a nudged
number, a dropped list entry, and for command-line calls a changed exit code
and a truncated stdout.  Exits nonzero if a real output fails its check or a
perturbed one passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 0  # inputs of the self-test; any seed would do
SKIP_KEYS = ("base", "n")  # fields some payloads carry without a check depending on them


def leaves(obj):
    """Depth-first (container, key) pairs in sorted-key order."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield obj, k
            yield from leaves(obj[k])
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield obj, i
            yield from leaves(v)


def json_mutants(text: str):
    """(description, perturbed JSON text) for each perturbation the payload allows."""
    for desc, test, change in (
        ("verdict flipped", lambda v: isinstance(v, bool), lambda v: not v),
        ("number nudged", lambda v: isinstance(v, float), lambda v: v + 1e-3),
        ("list entry dropped", lambda v: isinstance(v, list) and v, lambda v: v[:-1]),
    ):
        d = json.loads(text)
        for parent, key in leaves(d):
            if key not in SKIP_KEYS and test(parent[key]):
                parent[key] = change(parent[key])
                yield desc, json.dumps(d)
                break


def mutants(out):
    if not isinstance(out, tuple):
        yield from json_mutants(out)
        return
    code, text = out
    yield "exit code changed", (1 - code, text)
    yield "stdout truncated", (code, text[: len(text) // 2])
    try:
        json.loads(text)
    except ValueError:
        return  # text and DOT formats
    for desc, mutated in json_mutants(text):
        yield desc, (code, mutated)


def main() -> int:
    lib = run.load_library()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    problems = caught = 0
    try:
        for name, build in workloads.WORKLOADS.items():
            ops = build(lib, SEED, run.ROOT, tmp) if name == "cli_fixtures" else build(lib, SEED)
            chosen = ops if name == "cli_fixtures" else {op.label: op for op in ops}.values()
            for op in chosen:
                out = op.run()
                try:
                    op.check(out)
                except Exception as e:
                    problems += 1
                    print(f"FAIL {name} {op.label}: real output rejected: {e}")
                    continue
                for desc, bad in mutants(out):
                    try:
                        op.check(bad)
                    except Exception:
                        caught += 1
                        continue
                    problems += 1
                    print(f"FAIL {name} {op.label}: {desc} was not caught")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{caught} perturbed outputs caught, {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
