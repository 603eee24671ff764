"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``      -- the quickstart scenario with a final cluster report;
- ``workload``  -- run a named OLTP profile and print latency statistics;
- ``faults``    -- a guided failure tour: AZ outage, crash recovery,
  membership change, each with before/after consistency points;
- ``report``    -- build a cluster, run brief traffic, dump the report;
- ``audit-run`` -- seeded chaos schedule + runtime invariant auditor;
  exits nonzero with a violation report if any safety invariant broke.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

from repro import AuroraCluster, ClusterConfig
from repro.db.session import Session
from repro.report import cluster_report, format_report
from repro.workloads import PROFILES, WorkloadGenerator, WorkloadRunner, profile


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Amazon Aurora: On Avoiding Distributed "
            "Consensus for I/Os, Commits, and Membership Changes' "
            "(SIGMOD 2018)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="simulation seed"
    )
    # Accept --seed after the subcommand too (friendlier UX).
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=None,
                             dest="sub_seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "demo", help="quickstart scenario + cluster report",
        parents=[seed_parent],
    )

    workload = sub.add_parser(
        "workload", help="run an OLTP profile and report latencies",
        parents=[seed_parent],
    )
    workload.add_argument(
        "--profile", choices=sorted(PROFILES), default="read_write"
    )
    workload.add_argument("--clients", type=int, default=4)
    workload.add_argument("--txns", type=int, default=50)
    workload.add_argument(
        "--full-tail", action="store_true",
        help="use the 3 full + 3 tail segment mix (section 4.2)",
    )

    sub.add_parser(
        "faults", help="guided tour: AZ outage, crash recovery, repair",
        parents=[seed_parent],
    )

    multiwriter = sub.add_parser(
        "multiwriter",
        help="the multi-writer extension: journal-ordered cross-partition "
             "transactions",
        parents=[seed_parent],
    )
    multiwriter.add_argument("--partitions", type=int, default=3)
    multiwriter.add_argument("--transfers", type=int, default=10)

    report = sub.add_parser(
        "report", help="dump a cluster report", parents=[seed_parent]
    )
    report.add_argument("--txns", type=int, default=30)
    report.add_argument("--replicas", type=int, default=1)

    audit = sub.add_parser(
        "audit-run",
        help="chaos workload with the runtime invariant auditor armed",
        parents=[seed_parent],
    )
    audit.add_argument("--steps", type=int, default=2000)
    audit.add_argument("--replicas", type=int, default=1)
    audit.add_argument(
        "--tail", type=int, default=48,
        help="protocol events kept for the violation report tail",
    )
    audit.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="run N consecutive seeds starting at --seed (CI sweeps)",
    )
    audit.add_argument(
        "--no-heal", action="store_true",
        help="disable the self-healing control plane (health monitor + "
             "repair planner)",
    )
    audit.add_argument(
        "--no-background", action="store_true",
        help="disable stochastic MTTF/MTTR background node failures",
    )
    audit.add_argument(
        "--mttf", type=float, default=3500.0, metavar="MS",
        help="background failure MTTF in simulated ms",
    )
    audit.add_argument(
        "--mttr", type=float, default=150.0, metavar="MS",
        help="background failure MTTR in simulated ms",
    )
    # The audit profiles each reshape the whole run; combining them would
    # let the last one silently undo the others.
    profiles = audit.add_mutually_exclusive_group()
    profiles.add_argument(
        "--fleet", action="store_true",
        help="fleet mode: 10-PG volume, a 9-PG permanent kill storm with "
             "a same-PG double fault, correlated AZ failure bursts, and "
             "the >=8 concurrent-repair gate; the sweep footer reports "
             "detection/MTTR distributions and achieved durability vs "
             "the paper's C7 window",
    )
    audit.add_argument(
        "--pgs", type=int, default=0, metavar="N",
        help="override the protection-group count (default: 1, or 10 "
             "with --fleet)",
    )
    audit.add_argument(
        "--failover", action="store_true",
        help="arm database-tier failover: passive writer health "
             "monitoring plus autonomous replica promotion answer chaos "
             "writer kills and grey failures (implied by --fleet); the "
             "sweep footer reports failover windows vs the ~30s budget",
    )
    profiles.add_argument(
        "--geo", action="store_true",
        help="geo disaster-recovery mode: a two-region Global Database "
             "over a lossy WAN, one terminal region event (region loss "
             "or split-brain partition) plus WAN brownouts and stream "
             "stalls per seed, gated on zero sync-acked commit loss, "
             "lag-bounded async RPO, and the RTO budget; the sweep "
             "footer reports merged RPO/RTO distributions",
    )
    audit.add_argument(
        "--geo-ack", choices=("auto", "sync", "async"), default="auto",
        help="geo commit ack mode; 'auto' alternates by seed parity so "
             "a sweep covers both RPO regimes",
    )
    profiles.add_argument(
        "--proxy", action="store_true",
        help="serving-tier mode: a lag-aware connection-multiplexing "
             "proxy fronts the session fleet through one writer kill "
             "per seed, gated on zero acked-commit loss, zero "
             "read-your-writes violations, every session outage inside "
             "the 5s recovery budget, and steady-state replica time-lag "
             "p95 inside the 10ms SLO; the sweep footer merges per-seed "
             "serving reports",
    )
    audit.add_argument(
        "--proxy-sessions", type=int, default=100_000, metavar="N",
        help="concurrent logical sessions per seed in --proxy mode",
    )
    audit.add_argument(
        "--proxy-pool", type=int, default=128, metavar="N",
        help="backend connection-pool size in --proxy mode",
    )
    profiles.add_argument(
        "--integrity", action="store_true",
        help="silent-corruption mode: seeded bit-rot, torn, lost, and "
             "misdirected writes against the storage fleet with read-time "
             "verification, scrub, and quorum-vote repair armed; gated on "
             "zero corrupt reads served and every corruption repaired "
             "inside the exposure budget; the sweep footer merges "
             "per-seed MTTD/MTTR/exposure distributions",
    )
    audit.add_argument(
        "--backend", choices=("aurora", "taurus"), default="aurora",
        help="storage backend of the cluster under audit, in every "
             "profile",
    )
    audit.add_argument(
        "--integrity-json", metavar="PATH", default="",
        help="write the merged integrity report as JSON to PATH "
             "(--integrity only)",
    )
    audit.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="run sweep seeds across K worker processes (seeds are "
             "independent, so reports are byte-identical to --jobs 1)",
    )

    bench = sub.add_parser(
        "bench-engine",
        help="engine perf harness: batched fast path vs an unbatched "
             "baseline of the same workload, written to BENCH_engine.json",
        parents=[seed_parent],
    )
    bench.add_argument("--steps", type=int, default=1200)
    bench.add_argument(
        "--sweep", type=int, default=4, metavar="N",
        help="seeds in the sweep wall-clock measurement",
    )
    bench.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="worker processes for the sweep measurement",
    )
    bench.add_argument(
        "--out", default="BENCH_engine.json",
        help="where to write the benchmark record",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="compare against the committed record at --out before "
             "overwriting it; exit nonzero on a >25%% throughput "
             "regression (machine-independent: both runs measure the "
             "batched/unbatched ratio on the same host) or on a "
             "genuinely-parallel >=4-seed sweep running no faster than "
             "the sequential one",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="cProfile one batched measured run and emit the top-25 "
             "cumulative-time functions as a text table plus a JSON "
             "artifact next to --out",
    )
    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    db = cluster.session()
    txn = db.begin()
    db.put(txn, "hello", "aurora")
    scn = db.commit(txn)
    print(f"committed 'hello' at SCN {scn}; read back: {db.get('hello')!r}")
    cluster.crash_writer()
    db.drive(cluster.recover_writer())
    print(f"crashed + recovered; 'hello' survived: {db.get('hello')!r}")
    print()
    print(format_report(cluster_report(cluster)))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    config = ClusterConfig(seed=args.seed, full_tail=args.full_tail)
    cluster = AuroraCluster.build(config)
    generator = WorkloadGenerator(profile(args.profile), seed=args.seed)
    runner = WorkloadRunner(cluster, generator)
    stats = runner.run_closed_loop(
        clients=args.clients, transactions_per_client=args.txns
    )
    summary = stats.summary()
    print(f"profile={args.profile} clients={args.clients} "
          f"txns/client={args.txns} full_tail={args.full_tail}")
    print(f"  committed={summary['committed']:.0f} "
          f"aborted={summary['aborted']:.0f}")
    print(f"  commit latency ms: p50={summary['p50_ms']:.3f} "
          f"p95={summary['p95_ms']:.3f} p99={summary['p99_ms']:.3f} "
          f"mean={summary['mean_ms']:.3f}")
    print(f"  peak/average={summary['peak_to_average']:.2f}")
    print(f"  simulated time: {cluster.loop.now:.1f} ms")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    db = cluster.session()
    db.write_many({f"row{i:02d}": i for i in range(10)})
    print(f"[t={cluster.loop.now:7.1f}] 10 rows committed; "
          f"VCL={cluster.writer.vcl}")

    cluster.failures.crash_az("az3")
    db.write("during-az-outage", 1)
    print(f"[t={cluster.loop.now:7.1f}] az3 down; commit still completed "
          f"(4/6 quorum)")

    cluster.failures.restore_az("az3")
    cluster.run_for(300)
    scls = set(cluster.segment_scls(0).values())
    print(f"[t={cluster.loop.now:7.1f}] az3 restored; gossip converged "
          f"SCLs={scls}")

    cluster.crash_writer()
    db = Session(cluster.writer)
    result = db.drive(cluster.recover_writer())
    print(f"[t={cluster.loop.now:7.1f}] writer crashed + recovered: "
          f"VCL={result.vcl}, volume epoch="
          f"{cluster.writer.driver.epochs.volume}")

    cluster.failures.crash_node("pg0-f")
    candidate = db.drive(cluster.replace_segment(0, "pg0-f"))
    print(f"[t={cluster.loop.now:7.1f}] pg0-f failed and was replaced by "
          f"{candidate} (membership epoch="
          f"{cluster.metadata.membership(0).epoch})")

    intact = all(db.get(f"row{i:02d}") == i for i in range(10))
    print(f"[t={cluster.loop.now:7.1f}] all original rows intact: {intact}")
    return 0 if intact else 1


def _cmd_multiwriter(args: argparse.Namespace) -> int:
    from repro.multiwriter import MultiWriterCluster

    mw = MultiWriterCluster(
        partition_count=args.partitions, seed=args.seed
    )
    session = mw.session()
    accounts = [f"acct{i:02d}" for i in range(args.partitions * 2)]
    for account in accounts:
        session.write(account, 100)
    total_before = sum(session.get(a) for a in accounts)
    for i in range(args.transfers):
        src = accounts[i % len(accounts)]
        dst = accounts[(i + 1) % len(accounts)]
        txn = session.begin()
        session.put(txn, src, session.get(src, txn=txn) - 5)
        session.put(txn, dst, session.get(dst, txn=txn) + 5)
        session.commit(txn)
    # Crash + recover every partition; the books must still balance.
    for index in range(mw.partition_count):
        mw.crash_partition(index)
        session.drive(mw.recover_partition(index))
    total_after = sum(session.get(a) for a in accounts)
    print(f"partitions={args.partitions} transfers={args.transfers}")
    print(f"  journal: {mw.journal.appends} appends, durable "
          f"gsn={mw.journal.durable_gsn}")
    print(f"  commit paths: {session.cross_partition_commits} journal / "
          f"{session.single_partition_commits} single-partition")
    print(f"  balance before={total_before} after all-partition "
          f"crash+recovery={total_after} (conserved: "
          f"{total_before == total_after})")
    return 0 if total_before == total_after else 1


def _cmd_report(args: argparse.Namespace) -> int:
    cluster = AuroraCluster.build(seed=args.seed)
    for i in range(args.replicas):
        cluster.add_replica(f"replica-{i + 1}")
    db = cluster.session()
    for i in range(args.txns):
        db.write(f"key{i:04d}", i)
    cluster.run_for(100)
    print(format_report(cluster_report(cluster)))
    return 0


def _audit_config(args: argparse.Namespace, seed: int):
    """The AuditRunConfig for one sweep seed (shared by both runners)."""
    from repro.audit import AuditRunConfig

    config = AuditRunConfig(
        seed=seed,
        steps=args.steps,
        replicas=args.replicas,
        tail_size=args.tail,
        heal=not args.no_heal,
        background_failures=not args.no_background,
        background_mttf_ms=args.mttf,
        background_mttr_ms=args.mttr,
        backend=args.backend,
    )
    if args.fleet:
        config.as_fleet()
    if args.failover and not config.failover:
        # Standalone failover mode borrows the fleet writer-chaos
        # cadence without the storage storm.
        config.failover = True
        config.replicas = max(config.replicas, 2)
        config.writer_kill_period_ms = max(
            config.writer_kill_period_ms, 6000.0
        )
        config.writer_grey_period_ms = max(
            config.writer_grey_period_ms, 5000.0
        )
    if args.pgs > 0:
        config.pg_count = args.pgs
    if args.geo:
        config.as_geo()
        config.geo_ack_mode = args.geo_ack
    if args.proxy:
        config.as_proxy()
        config.proxy_sessions = args.proxy_sessions
        config.proxy_pool = args.proxy_pool
    if args.integrity:
        config.as_integrity()
    return config


def _cmd_audit_run(args: argparse.Namespace) -> int:
    from repro.audit import run_audit_sweep
    from repro.repair.failover import FailoverSummary
    from repro.repair.metrics import RepairSummary

    seeds = (
        range(args.seed, args.seed + args.sweep)
        if args.sweep > 0
        else [args.seed]
    )
    failed = 0
    fleet = RepairSummary()
    fleet_failovers = FailoverSummary()
    geo_records = []
    serving_reports = []
    integrity_reports = []
    configs = [_audit_config(args, seed) for seed in seeds]
    for report in run_audit_sweep(configs, jobs=args.jobs):
        print(report.render())
        if not report.ok:
            failed += 1
        if report.repairs is not None:
            fleet.merge(report.repairs)
        if report.failovers is not None:
            fleet_failovers.merge(report.failovers)
        geo_records.extend(report.geo_records)
        if report.serving is not None:
            serving_reports.append(report.serving)
        if report.integrity is not None:
            integrity_reports.append(report.integrity)
        if args.sweep > 0:
            print()
    if args.sweep > 0:
        print(f"sweep: {len(seeds) - failed}/{len(seeds)} seeds clean")
        if fleet.resolution.count:
            from repro.analysis import fleet_durability

            durability = fleet_durability(
                # Every terminal outcome counts: judging the window only
                # by finalized repairs would be survivorship-biased.
                fleet.resolution.samples,
                detection_samples_ms=fleet.detection.samples,
            )
            print(
                f"fleet repair telemetry across {len(seeds)} seeds "
                f"(peak {fleet.peak_concurrent} concurrent PG repairs):"
            )
            for line in durability.render_lines():
                print(line)
        if fleet_failovers.unavailability.samples:
            from repro.analysis import failover_availability

            availability = failover_availability(
                fleet_failovers.unavailability.samples,
                detection_samples_ms=fleet_failovers.detection.samples,
                promotion_samples_ms=fleet_failovers.promotion.samples,
            )
            print(
                f"fleet failover telemetry across {len(seeds)} seeds "
                f"({fleet_failovers.confirmed} writer failovers):"
            )
            for line in availability.render_lines():
                print(line)
        if geo_records:
            from repro.analysis import rpo_rto_from_records
            from repro.errors import ConfigurationError
            from repro.geo import summarize_geo_failovers

            print(
                f"geo disaster-recovery telemetry across {len(seeds)} "
                f"seeds:"
            )
            for line in summarize_geo_failovers(geo_records).render_lines():
                print(line)
            try:
                for line in rpo_rto_from_records(geo_records).render_lines():
                    print(line)
            except ConfigurationError:
                print("  (no promoted recovery to report RPO/RTO on)")
        if serving_reports:
            from repro.analysis import merge_serving_reports

            merged = merge_serving_reports(serving_reports)
            print(
                f"serving-tier telemetry across {len(seeds)} seeds:"
            )
            for line in merged.render_lines():
                print(line)
        if integrity_reports:
            from repro.analysis import merge_integrity_reports

            merged = merge_integrity_reports(integrity_reports)
            print(
                f"integrity telemetry across {len(seeds)} seeds "
                f"({merged.backend}):"
            )
            for line in merged.render_lines():
                print(line)
    if integrity_reports and args.integrity_json:
        import json

        from repro.analysis import merge_integrity_reports

        merged = merge_integrity_reports(integrity_reports)
        payload = merged.to_json()
        payload["seeds"] = len(integrity_reports)
        payload["seeds_clean"] = len(seeds) - failed
        with open(args.integrity_json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"integrity report written to {args.integrity_json}")
    return 1 if failed else 0


def _bench_run(
    seed: int,
    steps: int,
    boxcar: str,
    detailed: bool,
) -> dict:
    """One measured run of the C1-style concurrent write workload.

    Returns engine telemetry (events/sec, messages/sec, per-type counts
    when ``detailed``) for a closed-loop write-only load -- the workload
    whose commit path the boxcar batching targets.
    """
    import time

    from repro.db.driver import BoxcarMode

    config = ClusterConfig(seed=seed)
    if boxcar == "immediate":
        config.instance.driver.boxcar_mode = BoxcarMode.IMMEDIATE
    clients = 16
    cluster = AuroraCluster.build(config)
    cluster.network.set_stats_detail(detailed)
    cluster.add_replica("bench-replica")
    generator = WorkloadGenerator(profile("write_only"), seed=seed)
    runner = WorkloadRunner(cluster, generator)
    # Exclude cluster construction from the measured window.
    events0 = cluster.loop.events_executed
    messages0 = cluster.network.stats.messages_sent
    t0 = time.perf_counter()
    runner.run_closed_loop(
        clients=clients,
        transactions_per_client=max(steps // clients, 1),
    )
    wall = max(time.perf_counter() - t0, 1e-9)
    events = cluster.loop.events_executed - events0
    messages = cluster.network.stats.messages_sent - messages0
    return {
        "events_executed": events,
        "messages_sent": messages,
        "sim_time_ms": round(cluster.loop.now, 3),
        "wall_clock_s": round(wall, 4),
        "events_per_sec": round(events / wall),
        "messages_per_sec": round(messages / wall),
        "message_types": dict(cluster.network.stats.by_type),
    }


def _profile_bench(args: argparse.Namespace) -> list[dict]:
    """cProfile one batched run; top-25 functions by cumulative time."""
    import cProfile

    prof = cProfile.Profile()
    prof.enable()
    _bench_run(args.seed, args.steps, "aurora", False)
    prof.disable()
    prof.create_stats()
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        prof.stats.items(), key=lambda kv: kv[1][3], reverse=True
    )[:25]:
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return rows


def _cmd_bench_engine(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.audit import AuditRunConfig, run_audit_sweep
    from repro.audit.runner import effective_sweep_jobs

    def best_of(boxcar: str, detailed: bool, reps: int = 3) -> dict:
        # Fastest of `reps` identical runs: scheduler noise only ever
        # slows a run down, so the minimum is the cleanest estimate.
        runs = [
            _bench_run(args.seed, args.steps, boxcar, detailed)
            for _ in range(reps)
        ]
        return min(runs, key=lambda r: r["wall_clock_s"])

    # Single-seed comparison, measured in the same run: the unbatched
    # baseline and the batched fast path execute the same seeded C1-style
    # workload, so their ratio is machine-independent.
    print(f"bench-engine: seed={args.seed} steps={args.steps}")
    baseline = best_of("immediate", detailed=True)
    fast_detailed = best_of("aurora", detailed=True, reps=1)
    fast = best_of("aurora", detailed=False)
    speedup = baseline["wall_clock_s"] / fast["wall_clock_s"]

    base_batches = baseline["message_types"].get("WriteBatch", 0)
    fast_batches = fast_detailed["message_types"].get("WriteBatch", 0)
    fast_records = fast_detailed["message_types"].get(
        "WriteBatch.records", 0
    )
    batching_ratio = fast_records / max(fast_batches, 1)
    batch_reduction = base_batches / max(fast_batches, 1)

    # Sweep wall-clock: the batched fast path across consecutive seeds,
    # sequentially and (optionally) across --jobs worker processes.
    sweep_cfgs = [
        AuditRunConfig(seed=args.seed + i, steps=args.steps)
        for i in range(max(args.sweep, 1))
    ]
    t0 = time.perf_counter()
    sweep_reports = run_audit_sweep(sweep_cfgs, jobs=1)
    sequential_wall = time.perf_counter() - t0
    # Only measure the parallel lane when the sweep will genuinely fork:
    # on a box whose core count clamps --jobs to 1 the "parallel" wall is
    # the sequential wall plus pool overhead, which is noise, not signal.
    effective_jobs = effective_sweep_jobs(args.jobs, len(sweep_cfgs))
    parallel_wall = None
    if effective_jobs > 1:
        t0 = time.perf_counter()
        run_audit_sweep(sweep_cfgs, jobs=args.jobs)
        parallel_wall = time.perf_counter() - t0

    baseline.pop("message_types")
    fast.pop("message_types")
    record = {
        "schema": 1,
        "seed": args.seed,
        "steps": args.steps,
        "single_seed": {
            "baseline_unbatched": baseline,
            "fast_batched": fast,
            "speedup": round(speedup, 3),
            "write_batches_unbatched": base_batches,
            "write_batches_batched": fast_batches,
            "write_records_batched": fast_records,
            "batching_ratio": round(batching_ratio, 2),
            "write_batch_reduction": round(batch_reduction, 2),
        },
        "sweep": {
            "seeds": len(sweep_cfgs),
            "jobs": args.jobs,
            "effective_jobs": effective_jobs,
            "sequential_wall_s": round(sequential_wall, 3),
            "parallel_wall_s": (
                round(parallel_wall, 3) if parallel_wall else None
            ),
            "per_seed_wall_s": [
                round(r.wall_clock_s, 4) for r in sweep_reports
            ],
            "all_clean": all(r.ok for r in sweep_reports),
        },
    }

    print(f"  unbatched baseline: "
          f"{record['single_seed']['baseline_unbatched']['events_per_sec']:,}"
          f" events/s, {base_batches} WriteBatch msgs")
    print(f"  batched fast path:  "
          f"{record['single_seed']['fast_batched']['events_per_sec']:,}"
          f" events/s, {fast_batches} WriteBatch msgs "
          f"({fast_records} records, ratio {batching_ratio:.1f})")
    print(f"  same-workload speedup: {speedup:.2f}x, WriteBatch "
          f"reduction: {batch_reduction:.1f}x")
    print(f"  sweep ({len(sweep_cfgs)} seeds): sequential "
          f"{sequential_wall:.2f}s"
          + (f", --jobs {args.jobs}: {parallel_wall:.2f}s"
             if parallel_wall else ""))

    status = 0
    out = Path(args.out)
    if args.check and out.exists():
        committed = json.loads(out.read_text())["single_seed"]
        floor = 0.75 * committed["speedup"]
        if speedup < floor:
            print(f"REGRESSION: speedup {speedup:.2f}x fell >25% below "
                  f"the committed {committed['speedup']:.2f}x")
            status = 1
        if batch_reduction < 5.0:
            print(f"REGRESSION: WriteBatch reduction "
                  f"{batch_reduction:.1f}x is below the 5x floor")
            status = 1
        if (
            parallel_wall is not None
            and len(sweep_cfgs) >= 4
            and parallel_wall >= sequential_wall
        ):
            print(f"REGRESSION: parallel sweep ({effective_jobs} workers) "
                  f"took {parallel_wall:.2f}s vs {sequential_wall:.2f}s "
                  f"sequential -- fork-pool overhead is eating the "
                  f"parallelism")
            status = 1
    if args.profile:
        rows = _profile_bench(args)
        print("  top-25 by cumulative time (batched measured run):")
        print(f"    {'cumtime':>8} {'tottime':>8} {'ncalls':>9} function")
        for row in rows:
            print(f"    {row['cumtime_s']:8.4f} {row['tottime_s']:8.4f} "
                  f"{row['ncalls']:9d} {row['function']}")
        profile_out = out.with_name(out.stem + "_profile.json")
        profile_out.write_text(
            json.dumps(
                {"seed": args.seed, "steps": args.steps, "top": rows},
                indent=2,
            )
            + "\n"
        )
        print(f"  wrote {profile_out}")
    if status == 0:
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  wrote {out}")
    return status


_COMMANDS = {
    "demo": _cmd_demo,
    "workload": _cmd_workload,
    "faults": _cmd_faults,
    "multiwriter": _cmd_multiwriter,
    "report": _cmd_report,
    "audit-run": _cmd_audit_run,
    "bench-engine": _cmd_bench_engine,
}


def _reject_dropped_audit_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Usage-error (exit 2) on audit flags the chosen profile would drop."""
    if args.failover and (args.geo or args.integrity):
        parser.error(
            "audit-run: --failover cannot be combined with --geo or "
            "--integrity (both profiles run without writer failover)"
        )
    if args.integrity_json and not args.integrity:
        parser.error("audit-run: --integrity-json requires --integrity")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "audit-run":
        _reject_dropped_audit_flags(parser, args)
    if getattr(args, "sub_seed", None) is not None:
        args.seed = args.sub_seed
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
