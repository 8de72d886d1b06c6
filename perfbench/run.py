"""imeasure benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload dense_fields --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Run it from anywhere inside a checkout; the library is imported from the
checkout's own `src/`.  The seed fixes the generated inputs.  Ops run one
after another, each timed alone; its output is checked outside the timed
interval.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics from a traced pass (see README.md).  The last line of
standard output is one JSON object; the exit code is nonzero when any op
failed or its output was wrong.
"""

import os

# One process, one client: keep native thread pools from taking both cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_SAMPLES = 100  # latencies per run, so the 90th percentile has ten samples beyond it
IMPORT_REPEATS = 5
UNTRACED_SHARE = 0.4  # share of --seconds spent on untraced calls in a traced run
MAX_REPORTED_FAILURES = 5


def load_library():
    """Import imeasure from this checkout's sources, never from elsewhere."""
    if not (SRC / "imeasure" / "__init__.py").is_file():
        sys.exit(f"perfbench: no imeasure sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import imeasure
    import imeasure.cli  # noqa: F401  (the package does not import its CLI)

    if Path(imeasure.__file__).resolve().parent != (SRC / "imeasure").resolve():
        sys.exit(f"perfbench: imported imeasure from {imeasure.__file__}, not {SRC}")
    return imeasure


class Outcomes:
    """Attempted and failed ops; the first few failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: op {op.label!r} failed: {type(error).__name__}: {error}", file=sys.stderr)


def call(fn):
    """(result, exception, seconds) of one op call; an op that raises has failed."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as e:  # the loop must go on and count the failure
        out, err = None, e
    return out, err, time.perf_counter() - t0


def verify(op, out, err):
    """The op's failure (its exception or a failed check), or None; run outside the timed interval."""
    if err is not None:
        return err
    try:
        op.check(out)
    except Exception as e:  # a malformed payload fails its op like a wrong one
        return e
    return None


def enough(busy: float, cycle: float, seconds: float) -> bool:
    """Whether the cycle just finished is the cycle end nearest to `seconds`."""
    return busy + cycle / 2 >= seconds


def closed_loop(ops, seconds: float, outcomes: Outcomes) -> tuple[list[float], list[float]]:
    """Run whole schedule cycles; the latency of every op, and a yardstick time next to each.

    Whole cycles keep the mix of op classes identical from run to run, so
    percentiles and throughput do not depend on where a run happened to stop.
    A run ends at the cycle end nearest to `seconds` of op time, but not
    before MIN_SAMPLES ops.
    """
    latencies, kernel = [], []
    busy = 0.0
    while True:
        start = busy
        for op in ops:
            kernel.append(yardstick.sample())
            out, err, dt = call(op.run)
            latencies.append(dt)
            busy += dt
            outcomes.record(op, verify(op, out, err))
        if len(latencies) >= MIN_SAMPLES and enough(busy, busy - start, seconds):
            return latencies, kernel


def warm_up(ops) -> None:
    """First op of each op function, so lazy imports and first-call costs land in set-up."""
    seen = set()
    for op in ops:
        key = getattr(op.run, "func", op.run)
        if key not in seen:
            seen.add(key)
            call(op.run)


def set_up(lib, build, seed: int, tmp: Path):
    """Build and warm the workload SETUP_REPEATS times; (ops, seconds of each build, yardstick times).

    Set-up time reported is the median build plus the median fresh-interpreter
    import, both repeated because a single set-up is too short to time
    steadily.
    """
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(yardstick.sample())
        t0 = time.perf_counter()
        ops = build(lib, seed, ROOT, tmp) if build.__name__ == "cli_fixtures" else build(lib, seed)
        warm_up(ops)
        times.append(time.perf_counter() - t0)
    return ops, times, kernel


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method), as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds(repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only import imeasure.cli, and a yardstick time next to each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernel = [], []
    for _ in range(repeats):
        kernel.append(yardstick.sample())
        t0 = time.perf_counter()
        # captured output makes run() wait on the pipes; a bare wait with a timeout polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import imeasure.cli"], cwd=ROOT, env=env, check=True, timeout=120, capture_output=True)
        times.append(time.perf_counter() - t0)
    return times, kernel


def end_to_end(ops, args, setup: list[tuple[list[float], list[float]]], outcomes: Outcomes) -> dict:
    """End-to-end metrics, every time scaled to the yardstick's reference speed.

    `setup` holds (times, yardstick times) of the set-up steps whose medians add up to set-up time.
    """
    latencies, kernel = closed_loop(ops, args.seconds, outcomes)
    scaled = yardstick.scale(latencies, kernel)
    print(f"yardstick median {statistics.median(kernel) * 1e3:.4g} ms (reference {yardstick.REFERENCE_S * 1e3:g} ms)")
    print(f"unscaled op_p50_s {statistics.median(latencies):.6g}, ops_per_s {len(latencies) / sum(latencies):.6g}")
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_p90_s": (percentile(scaled, 90), "s"),
        "setup_s": (sum(statistics.median(yardstick.scale(t, k)) for t, k in setup), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload == "cli_fixtures"), "MB"),
    }


def per_layer(lib, ops, args, outcomes: Outcomes) -> dict:
    """Each op untraced, then again traced, for whole cycles; per-op layer figures from the spans.

    Pairing the two calls of an op puts both under the same machine
    conditions, so their ratio is the tracing overhead.  Command-line ops run
    in-process here, since spans cannot cross a process boundary.
    """
    import spans

    tracer = spans.Tracer()
    done, calls = [], []
    base = traced = 0.0
    while True:
        start = base
        for op in ops:
            fn = op.run_inprocess or op.run
            out, err, dt = call(fn)
            base += dt
            err = verify(op, out, err)
            tracer.op_id, tracer.group = len(done) + 1, op.label
            patches = tracer.install(lib)
            try:
                out_traced, err_traced, dt = call(fn)
            finally:
                patches.undo()
                tracer.end_op()
            traced += dt
            if err is None and (err_traced or out_traced != out):
                err = err_traced or AssertionError("traced output differs from the untraced output")
            outcomes.record(op, err)
            done.append(op)
            calls.append(fn)
        if enough(base, base - start, args.seconds * UNTRACED_SHARE):
            break

    # one op per class among those that called entropy_vector keeps the tracemalloc pass short
    firsts = {done[i - 1].label: calls[i - 1] for i in sorted(tracer.ops_calling("measures.entropy_vector"))}
    peak = spans.entropy_peak_bytes(lib, firsts.values())

    k = len(calls)
    by_name: dict[str, float] = {}
    by_class: dict[str, dict[str, float]] = {}
    for (group, name), s in tracer.self_times().items():
        by_name[name] = by_name.get(name, 0.0) + s
        by_class.setdefault(group, {})[name] = s
    count = {}
    for (group, name), c in tracer.calls.items():
        count[name] = count.get(name, 0) + c
    print_class_breakdown(done, by_class)

    metrics = {}
    for module, path, kind in spans.TARGETS:
        name = f"{module}.{path}"
        if kind == spans.COUNT:
            label = "graphs.Graph.constructions" if path == "Graph.__init__" else f"{name}.calls"
            metrics[label] = (count.get(name, 0) / k, "calls/op")
        else:
            metrics[f"{name}.self_s"] = (by_name.get(name, 0.0) / k, "s/op")
    for attr in spans.JSON_TARGETS:
        metrics[f"json.{attr}.self_s"] = (by_name.get(f"json.{attr}", 0.0) / k, "s/op")
    cc_calls = count.get(spans.COMPONENT_COUNT, 0)
    metrics[f"{spans.COMPONENT_COUNT}.calls"] = (cc_calls / k, "calls/op")
    metrics[f"{spans.COMPONENT_COUNT}.memo_hit_ratio"] = (tracer.memo_repeats / cc_calls if cc_calls else 0.0, "ratio")
    metrics["measures.entropy_vector.peak_alloc_bytes"] = (float(peak), "B")
    metrics["cli.import_s"] = (statistics.median(import_seconds(IMPORT_REPEATS)[0]), "s")
    metrics["bench.unattributed_s"] = ((traced - tracer.top_level_s()) / k, "s/op")
    metrics["bench.trace_overhead_ratio"] = (traced / base, "ratio")
    return metrics


def print_class_breakdown(done, by_class) -> None:
    """The three largest self times per op of each op class, for reading only."""
    per_class = {}
    for op in done:
        per_class[op.label] = per_class.get(op.label, 0) + 1
    for label, n in per_class.items():
        top = sorted(by_class.get(label, {}).items(), key=lambda kv: -kv[1])[:3]
        shown = ", ".join(f"{name} {s / n:.4g}" for name, s in top)
        print(f"class {label!r} ({n} ops), self s/op: {shown}")


def report(metrics: dict, outcomes: Outcomes) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    print(f"{'ops attempted':52s} {outcomes.attempted:14d}  failed {outcomes.failed}")
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(args) -> int:
    lib = load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        yardstick.sample()  # first call pays numpy's and the kernel's own first-call costs
        ops, build_s, build_kernel = set_up(lib, workloads.WORKLOADS[args.workload], args.seed, tmp)
        outcomes = Outcomes()
        if args.trace:
            metrics = per_layer(lib, ops, args, outcomes)
        else:
            setup = [import_seconds(SETUP_REPEATS), (build_s, build_kernel)]
            metrics = end_to_end(ops, args, setup, outcomes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = report(metrics, outcomes)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(traced)]
            print(f"== {name} trace={traced}", flush=True)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if proc.returncode not in (0, 1) or not lines:
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
