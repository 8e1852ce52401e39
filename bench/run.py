"""Benchmark runner for elephantine: germ classification, local algebra and
CLI inventories.

Usage (from the repository root):

    python3 bench/run.py --workload germ-classify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One run is one process and one caller: the workload's seeded list of
operations runs in whole rounds, one operation after another, until a round
ends after --seconds have passed.  Every result is checked against the
closed-form oracles in oracles.py.  With --trace 0 the last line of stdout is
the end-to-end result.  With --trace 1 untraced and traced rounds alternate,
and the last line holds the per-layer metrics (per traced round) and the
tracing overhead.  The line before it records the Python version, CPU count
and run shape, and bench/results/ keeps a JSON copy of both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("germ-classify", "local-algebra", "cli-inventory")
SETUP_PROBES = 5
ENV_TRUNCATION = "ELEPHANTINE_TRUNCATION"

# per-layer metric -> unit; values are per round of the workload's list
PER_LAYER = {
    "poly.substitute.calls": "count",
    "poly.substitute.self_s": "s",
    "poly.substitute.terms_out": "count",
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "duval.truncated_split.self_s": "s",
    "duval.classify_double_point.self_s": "s",
    "duval.classify_germ.self_s": "s",
    "duval.oracle_s": "s",
    "locdef.quotient_dim.calls": "count",
    "locdef.quotient_dim.self_s": "s",
    "locdef.quotient_dim.monomials": "count",
    "locdef.echelons_per_stable_dim": "ratio",
    "locdef.milnor_number.self_s": "s",
    "locdef.tjurina_number.self_s": "s",
    "locdef.t1_eigenpart.self_s": "s",
    "locdef.in_m2_image.self_s": "s",
    "wps.analyze.calls": "count",
    "wps.analyze.self_s": "s",
    "wps.vertex_report.self_s": "s",
    "wps.stratum_report.self_s": "s",
    "wps.anticanonical_data.self_s": "s",
    "cyclo.normalize_type.calls": "count",
    "cyclo.normalize_type.self_s": "s",
    "wblow.charts.self_s": "s",
    "wblow.strict_transform.self_s": "s",
    "wblow.pair_discrepancy.self_s": "s",
    "poly.parse_poly.self_s": "s",
    "poly.render.self_s": "s",
    "cli.run.self_s": "s",
    "cli.run.bytes_out": "B",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median over cold starts of interpreter start to inputs built.

    One discarded start first, so bytecode caches exist as for any CLI user.
    """
    env = {k: v for k, v in os.environ.items() if k != ENV_TRUNCATION}
    samples = []
    for i in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        ready = float(proc.stdout.split()[-1])
        if i:
            samples.append(ready - start)
    return statistics.median(samples)


def run_round(ops, cli_result_type) -> dict:
    latencies: list[float] = []
    busy = 0.0
    errors: list[str] = []
    mismatches: list[str] = []
    bytes_out = 0
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            busy += clock() - start
            errors.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        busy += elapsed
        latencies.append(elapsed)
        if isinstance(result, cli_result_type):
            bytes_out += len(result.text.encode())
        if not op.check(result):
            mismatches.append(f"{op.kind}: result disagrees with the oracle")
    return {"latencies": latencies, "busy": busy, "errors": errors,
            "mismatches": mismatches, "bytes_out": bytes_out}


def run_rounds(ops, cli_result_type, seconds: float) -> list[dict]:
    """Whole rounds until `seconds` have passed."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        out.append(run_round(ops, cli_result_type))
    return out


def run_traced(ops, cli_result_type, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
    """Untraced and traced rounds in turn until `seconds` have passed.

    Alternating puts both kinds of round under the same drift in machine
    speed, so their difference is the tracing overhead.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_round(ops, cli_result_type))
        tracer.install()
        try:
            traced.append(run_round(ops, cli_result_type))
        finally:
            tracer.uninstall()
    return untraced, traced


def end_to_end(rounds: list[dict], setup_s: float) -> dict:
    """Each timing is the median over rounds of that round's figure.

    Every round is the same list of at least 100 operations, so each round
    has ten latencies above its 90th percentile, and the median round
    resists bursts of interference from other processes on the machine.
    """

    def per_round(figure) -> float:
        return statistics.median(figure(r["latencies"]) for r in rounds)

    metrics = {
        "ops_per_s": (statistics.median(len(r["latencies"]) / r["busy"] for r in rounds), "1/s"),
        "latency_ms_p50": (1000 * per_round(statistics.median), "ms"),
        "latency_ms_p90": (1000 * per_round(lambda xs: statistics.quantiles(xs, n=10)[-1]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(tracer, traced: list[dict], untraced: list[dict], import_s: float) -> dict:
    n = len(traced)
    stats, counters = tracer.stats, tracer.counters

    def value(name: str) -> float:
        layer, field = name.rsplit(".", 1)
        if field in ("calls", "self_s"):
            calls, _, self_s = stats[layer]
            return (calls if field == "calls" else self_s) / n
        return counters.get(name, 0) / n

    traced_s = statistics.median(r["busy"] for r in traced)
    untraced_s = statistics.median(r["busy"] for r in untraced)
    stabilizing = stats["locdef.milnor_number"][0] + stats["locdef.tjurina_number"][0]
    special = {
        "locdef.echelons_per_stable_dim": (
            counters.get("locdef.quotient_dim.in_stabilization", 0) / stabilizing
            if stabilizing else 0.0
        ),
        "cli.run.bytes_out": sum(r["bytes_out"] for r in traced) / n,
        "cli.import_s": import_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
    }
    return {
        name: {"value": special[name] if name in special else value(name), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def run_one(args: argparse.Namespace) -> int:
    os.environ.pop(ENV_TRUNCATION, None)
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import elephantine.cli  # noqa: F401
    import_s = time.perf_counter() - start
    import elephantine
    if not Path(elephantine.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported elephantine from {elephantine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        untraced, traced = run_traced(ops, workloads.CliResult, args.seconds, tracer)
        metrics = per_layer(tracer, traced, untraced, import_s)
        rounds = untraced + traced
    else:
        rounds = run_rounds(ops, workloads.CliResult, args.seconds)
        metrics = end_to_end(rounds, setup_s)

    errors = [e for r in rounds for e in r["errors"]]
    mismatches = [m for r in rounds for m in r["mismatches"]]
    for line in sorted(set(errors + mismatches))[:20]:
        print(f"run.py: {line}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    result = {
        "correct": not mismatches,
        "attempted": len(ops) * len(rounds),
        "failed": len(errors),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"context": context, "result": result}
    if args.trace:
        record["spans"] = tracer.table()
        record["counters"] = tracer.counters
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "elephantine" / "__init__.py").is_file():
        print(f"run.py: no elephantine sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
