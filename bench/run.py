"""Benchmark of rectpencil: four workloads, checked outputs, one command.

Run from the repository root:

    python3 bench/run.py --workload generic-ladder --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27

Each workload runs in one process, in a closed loop of whole rounds (see
workloads.py), for at least ``--seconds`` seconds.  Every output is checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans, see spans.py) with
``--trace 1``.  The program is imported from ``src/`` of the checkout that
holds this file; without it the benchmark exits with a non-zero code and
prints no result.
"""

import os

# One BLAS thread: the workload process stays on one core, and numpy's
# OpenBLAS pool would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
# Workloads in workloads.py, by name; listed here so that the command line
# can be parsed before the program is imported.
WORKLOADS = ("generic-ladder", "triangular-heine", "disc23-cli", "exact-identities")
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import rectpencil from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rectpencil
    except ImportError as exc:
        sys.exit(f"bench: cannot import rectpencil from {src}: {exc}")
    if Path(rectpencil.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: rectpencil was imported from {rectpencil.__file__}, not {src}")
    import workloads

    return workloads


def set_up(workload_cls, seed: int, workdir: Path):
    """Everything before the first timed operation: inputs, files, warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(seed, workdir)
    workload.warm_up()
    return workload, workload.round()


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to the
    moment the first timed operation would begin."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        samples.append(ready - started)
    return statistics.median(samples)


def measure(workload, first_round, seconds: float, tracer):
    from rectpencil.errors import IdentityViolation, NumericFailure

    import checks

    latencies, round_rates, problems = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    ops, rounds = first_round, 0
    while True:
        busy, done = 0.0, 0
        for op in ops:
            attempted += 1
            span = tracer.open_op(op.kind) if tracer else None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except (NumericFailure, IdentityViolation) as exc:
                result = exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close_op(span)
            busy += elapsed
            if isinstance(result, Exception):
                failed += 1
                print(f"failed: {op.kind}: {result}", file=sys.stderr)
                continue
            done += 1
            latencies.append(elapsed)
            try:
                op.check(result)
            except checks.CheckFailure as exc:
                problems.append(f"{op.kind}: {exc}")
        round_rates.append(done / busy)
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
        ops = workload.round()
    return {
        "latencies": latencies,
        "round_rates": round_rates,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": rounds,
        "wall": time.perf_counter() - started,
    }


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_one(args) -> dict:
    workloads = import_program()
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "_work" / str(os.getpid())
    try:
        if args.setup_probe:
            set_up(workload_cls, args.seed, workdir)
            print(f"{time.perf_counter():.9f}")
            return None
        setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
        workload, first_round = set_up(workload_cls, args.seed, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        result = measure(workload, first_round, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lat = result["latencies"]
    tail = workload_cls.tail_pct
    beyond = sum(1 for x in lat if x > percentile(lat, tail)) if len(lat) > 1 else 0
    print(
        f"{args.workload} seed {args.seed}: {result['rounds']} rounds in "
        f"{result['wall']:.1f} s, {result['attempted']} ops attempted, "
        f"{result['failed']} failed; p{tail} has {beyond} samples beyond it; "
        f"overall rate {len(lat) / sum(lat):.4g} ops/s"
    )
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        from spans import PER_LAYER, layer_metrics

        tracer.uninstall()
        tracer.write(BENCH / "_traces" / f"{args.workload}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer.spans)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = {
            "ops_per_s": statistics.median(result["round_rates"]),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_tail_ms": 1000 * percentile(lat, tail),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:30s} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    if result is not None:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
