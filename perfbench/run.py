"""Benchmark of the Aurora simulator: three workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp_write --seed 1 --seconds 40
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --workload cold_read --seed 1 --trace 1

A run repeats *rounds* of one workload until ``--seconds`` would be
exceeded.  Each round runs in a fresh interpreter: build and preload the
cluster (``setup_s``; several times, see :data:`SETUP_BUDGET_S`),
``gc.collect()``, the timed phase (``wall_s``), then the output checks.
Every round of a seed does identical simulated work, so wall-clock figures
are medians (over rounds; over every set-up for ``setup_s``) and simulated
figures must repeat exactly; a round that disagrees fails the run.

With ``--trace 1`` the rounds alternate untraced and traced; the traced
rounds wrap each layer's public functions (see ``tracing.py``), print the
per-layer metrics, write a Chrome trace to ``perfbench/out/`` and report
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("oltp_write", "cold_read", "proxy_failover")
ROUND_TIMEOUT_S = 170.0
#: A round sets up a fresh cluster until this much set-up time has
#: accumulated (at most MAX_SETUPS times) and runs the last one.  A single
#: 0.1 s set-up lands wholly in one of the host's fast or slow phases;
#: several average over them.
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 8

#: End-to-end metrics with a bound, printed for every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_p50_ms", "sim-ms"),
    ("commit_p99_ms", "sim-ms"),
    ("read_p99_ms", "sim-ms"),
]


# ----------------------------------------------------------------------
# One round (runs in a child interpreter)
# ----------------------------------------------------------------------
def run_round(name: str, seed: int, trace: bool,
              trace_path: str | None = None, scale: float = 1.0) -> dict:
    """Set up, time and check one workload; return a JSON-able result.
    ``scale`` < 1 shrinks the workload (the benchmark's tests use it)."""
    import layers
    from tracing import Tracer
    from repro.repair.metrics import percentile
    from workloads import WORKLOADS, sim_signature

    setups: list[float] = []
    while True:
        gc.collect()
        workload = WORKLOADS[name](seed, scale)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        if sum(setups) >= SETUP_BUDGET_S or len(setups) == MAX_SETUPS:
            break
    gc.collect()
    before = layers.snapshot(workload)
    tracer = Tracer(lambda: workload.loop.now) if trace else None
    started = time.perf_counter()
    if tracer is not None:
        with tracer:
            workload.run()
    else:
        workload.run()
    wall_s = time.perf_counter() - started
    after = layers.snapshot(workload)
    errors = workload.check()
    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setups,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": workload.ops(),
        "attempted": workload.attempted,
        "refused": workload.refused,
        "failed": workload.failed,
        "errors": errors,
        "signature": sim_signature(workload),
        "latency": {
            kind: {
                "n": len(series),
                "p50": percentile(series, 50) or 0.0,
                "p90": percentile(series, 90) or 0.0,
                "p99": percentile(series, 99) or 0.0,
            }
            for kind, series in workload.latencies().items()
        },
    }
    if tracer is not None:
        values = layers.per_layer(workload, before, after, tracer)
        chain, entries = layers.mvcc_sample(workload)
        values["db.mvcc.chain_len_mean"] = chain
        values["db.mvcc.txn_table_entries"] = entries
        result["layers"] = values
        result["dropped_spans"] = tracer.dropped_spans
        if trace_path:
            tracer.write_chrome_trace(trace_path)
    return result


def round_main(args) -> int:
    sys.path.insert(0, str(SRC))
    result = run_round(args.workload, args.seed, bool(args.trace),
                       args.trace_out)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Orchestration (parent)
# ----------------------------------------------------------------------
def spawn_round(name: str, seed: int, trace: bool,
                trace_out: str | None) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--round",
        "--workload", name, "--seed", str(seed),
        "--trace", "1" if trace else "0",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(
            f"{name} round (seed {seed}) exited {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> list[dict]:
    """Rounds until another one would overrun ``seconds`` (at least one;
    with tracing at least one untraced and one traced)."""
    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        trace_out = None
        if traced and not any(r["traced"] for r in rounds):
            OUT.mkdir(exist_ok=True)
            trace_out = str(OUT / f"{name}.trace.json")
        began = time.perf_counter()
        rounds.append(spawn_round(name, seed, traced, trace_out))
        if trace_out:
            rounds[-1]["trace_file"] = trace_out
        last = time.perf_counter() - began
        elapsed = time.perf_counter() - started
        if len(rounds) >= (2 if trace else 1) and elapsed + last > seconds:
            return rounds


def summarize(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Aggregate rounds into metrics; returns (metrics, problems)."""
    import layers

    first = rounds[0]
    problems = list(first["errors"])
    for other in rounds[1:]:
        problems += [e for e in other["errors"] if e not in problems]
        if other["signature"] != first["signature"]:
            kind = "traced" if other["traced"] else "untraced"
            problems.append(
                f"a {kind} round's simulated results differ from the first "
                "round's (non-deterministic or perturbed schedule)"
            )
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in untraced)
    setups = [s for r in untraced for s in r["setup_s"]]
    latency = first["latency"]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (wall_s, len(untraced)),
        "ops_per_s": (first["ops"] / wall_s, first["ops"]),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced),
                        len(untraced)),
        "commit_p50_ms": (latency["commit"]["p50"], latency["commit"]["n"]),
        "commit_p99_ms": (latency["commit"]["p99"], latency["commit"]["n"]),
        "read_p50_ms": (latency["read"]["p50"], latency["read"]["n"]),
        "read_p99_ms": (latency["read"]["p99"], latency["read"]["n"]),
        "outage_p50_ms": (latency["outage"]["p50"], latency["outage"]["n"]),
        "outage_p90_ms": (latency["outage"]["p90"], latency["outage"]["n"]),
        "failed_frac": (
            (first["refused"] + first["failed"]) / max(1, first["attempted"]),
            first["attempted"],
        ),
    }
    if traced:
        layer_values = {}
        for key, value in traced[0]["layers"].items():
            if key.endswith("_s"):
                value = statistics.median(r["layers"][key] for r in traced)
            layer_values[key] = (value, len(traced))
        for key, _unit in layers.UNGATED:
            layer_values[key] = metrics[key]
        overhead = statistics.median(r["wall_s"] for r in traced) / wall_s
        layer_values["trace.overhead"] = (overhead, len(traced))
        metrics["layers"] = layer_values
    return metrics, problems


#: Tail percentile -> share of samples beyond it.
TAILS = {"p99": 0.01, "p90": 0.10}


def print_report(name: str, rounds: list[dict], metrics: dict,
                 problems: list[str]) -> None:
    import layers

    first = rounds[0]
    print(f"== {name}  seed {first['seed']}  rounds {len(rounds)}  "
          f"attempted {first['attempted']}  refused {first['refused']}  "
          f"failed {first['failed']}")
    print(f"   {'metric':<40} {'value':>14}  {'unit':<8} samples")
    for title, group in (("", END_TO_END),
                         ("-- reported without a bound --", layers.UNGATED)):
        if title:
            print(f"   {title}")
        for metric, unit in group:
            value, n = metrics[metric]
            note = ""
            for tail, share in TAILS.items():
                if metric.endswith(f"_{tail}_ms") and n * share < 10:
                    note = f"  (< 10 samples beyond {tail})"
            print(f"   {metric:<40} {value:>14.6g}  {unit:<8} {n}{note}")
    if "layers" in metrics:
        print("   -- per layer (traced rounds) --")
        for metric, unit in layers.PER_LAYER:
            value, n = metrics["layers"][metric]
            print(f"   {metric:<40} {value:>14.6g}  {unit:<8} {n}")
        for r in rounds:
            if r.get("trace_file"):
                print(f"   chrome trace: {r['trace_file']} "
                      f"({r['dropped_spans']} spans dropped)")
    for problem in problems:
        print(f"   CHECK FAILED: {problem}")


def result_line(runs: list[tuple[str, list[dict], dict, list[str]]],
                trace: bool) -> dict:
    """The JSON summary; metric names are prefixed by workload when
    several workloads ran."""
    import layers

    wanted = layers.PER_LAYER if trace else END_TO_END
    out_metrics = {}
    for name, _rounds, metrics, _problems in runs:
        table = metrics["layers"] if trace else metrics
        for metric, unit in wanted:
            key = metric if len(runs) == 1 else f"{name}.{metric}"
            out_metrics[key] = {"value": table[metric][0], "unit": unit}
    return {
        "correct": all(not problems for *_rest, problems in runs),
        "attempted": sum(r[0]["attempted"] for _n, r, _m, _p in runs),
        "failed": sum(r[0]["failed"] for _n, r, _m, _p in runs),
        "metrics": out_metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.round:
        if args.workload == "all":
            return 2
        return round_main(args)
    sys.path.insert(0, str(SRC))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        try:
            rounds = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        metrics, problems = summarize(rounds)
        print_report(name, rounds, metrics, problems)
        runs.append((name, rounds, metrics, problems))
    line = result_line(runs, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
