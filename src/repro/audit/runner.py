"""Chaos-driven audit runs: workload + seeded faults + armed auditor.

:func:`run_audit` builds a small cluster, arms an
:class:`~repro.audit.auditor.Auditor` on every protocol component, installs
a seeded :class:`~repro.sim.chaos.ChaosSchedule`, and drives a mixed
read/write workload (including writer crash/recovery cycles and a
membership change) through the turbulence.  The result is an
:class:`AuditReport`: zero violations means every safety invariant held on
every state transition of the run.

On top of the protocol-level invariants, the runner keeps a client-side
model of acknowledged commits and flags ``client-read-consistency`` when a
read returns a value that was never possibly committed, or loses a value
whose commit was acknowledged -- the end-to-end "no committed write lost"
check of section 3.3, observed from the client's chair.

Everything is reproducible from the seed: the cluster build, the chaos
schedule, and the workload all derive their randomness from it.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.audit.auditor import Auditor, AuditViolation
from repro.db.cluster import AuroraCluster, ClusterConfig
from repro.db.instance import InstanceState
from repro.errors import (
    LockConflictError,
    MembershipError,
    ReproError,
    SimulationError,
)
from repro.repair.failover import FailoverSummary
from repro.repair.metrics import ROLLED_BACK, RepairSummary
from repro.sim.chaos import ChaosConfig, ChaosSchedule, fleet_chaos_config


@dataclass
class AuditRunConfig:
    """Shape of one audit run (everything derives from ``seed``)."""

    seed: int = 7
    steps: int = 1000
    replicas: int = 1
    keys: int = 24
    tail_size: int = 48
    #: Simulated ms allowed per client operation before it is counted as
    #: an availability error (chaos makes timeouts normal, not fatal).
    op_timeout_ms: float = 2500.0
    #: Crash + recover the writer every N steps (0 = derived from steps).
    writer_crash_every: int = 0
    #: Run a live segment replacement mid-run (skipped on tiny runs).
    membership_change: bool = True
    #: Arm the self-healing control plane (health monitor + repair
    #: planner).  With healing on, the mid-run membership change becomes a
    #: *permanent* segment crash that the healer must detect and repair.
    heal: bool = True
    #: Stochastic MTTF/MTTR background node failures on top of the chaos
    #: schedule (the fleet-wide churn the healer runs against).
    background_failures: bool = True
    background_mttf_ms: float = 3500.0
    background_mttr_ms: float = 150.0
    #: Plant a false-positive repair mid-run: isolate a healthy segment
    #: until it is confirmed dead, then let it return mid-hydration and
    #: require the planner to roll the transition back (skipped on tiny
    #: runs or when healing is off).
    plant_false_positive: bool = True
    #: Protection groups in the simulated volume (fleet mode raises this
    #: so many per-PG repairs can run concurrently).
    pg_count: int = 1
    #: Fleet storm: permanently kill one segment in each of this many
    #: *distinct* non-zero PGs mid-run; the healer must repair them all
    #: concurrently (per-PG serialization allows cross-PG concurrency).
    fleet_kills: int = 0
    #: Also kill a second member of the first storm PG shortly after, so
    #: the sweep exercises same-PG queueing under fleet load.
    fleet_double_fault: bool = False
    #: Use the correlated-AZ-burst chaos profile (see
    #: :func:`repro.sim.chaos.fleet_chaos_config`).
    az_bursts: bool = False
    #: Fail the run unless this many repairs were observed in flight at
    #: once (0 disables the gate).
    min_concurrent_repairs: int = 0
    #: Modeled baseline bulk-copy time per repair (see
    #: :attr:`repro.repair.RepairConfig.baseline_transfer_ms`).  Fleet
    #: mode sets this so repair duration is realistic relative to the
    #: detection spread -- in the real system the ~10GB segment copy
    #: dominates the window, which is exactly why simultaneous failures
    #: produce many overlapping repairs.
    repair_transfer_ms: float = 0.0
    #: Database-tier failover: arm the DbHealthMonitor +
    #: FailoverCoordinator, run the workload through a failover-aware
    #: cluster session, and replace operator-driven writer recovery with
    #: chaos writer kills (and grey failures) the coordinator must answer
    #: autonomously.
    failover: bool = False
    #: Chaos periods for writer kills / grey failures (0 = none; only
    #: meaningful with ``failover``).
    writer_kill_period_ms: float = 0.0
    writer_grey_period_ms: float = 0.0
    #: End-to-end write-unavailability budget per failover (ms); the run
    #: fails if any terminal failover exceeds it.
    failover_budget_ms: float = 30_000.0
    #: Arm per-payload-type network accounting.  Off by default: audit
    #: sweeps only need the aggregate counters, and the lite mode skips a
    #: Counter update per simulated message on the hottest path.  The
    #: engine benchmark arms it to measure batching ratios.
    detailed_stats: bool = False
    #: Geo-replicated disaster-recovery mode: build a two-region
    #: :class:`repro.geo.GeoCluster`, run the workload through a
    #: region-aware session, inject exactly one terminal region event
    #: (region loss or region partition) plus WAN degradation, and gate
    #: on the audited RPO/RTO objectives.
    geo: bool = False
    #: Commit acknowledgement mode for geo runs: "sync", "async", or
    #: "auto" (sync for even seeds, async for odd, so a sweep covers
    #: both RPO regimes deterministically).
    geo_ack_mode: str = "auto"
    #: Region-loss recovery budget (ms): detection + lease + promotion.
    geo_rto_budget_ms: float = 30_000.0
    #: Serving-tier proxy mode: front a replica'd cluster with a
    #: :class:`repro.db.proxy.ConnectionProxy`, drive ``proxy_sessions``
    #: logical sessions through one writer kill, and gate on zero
    #: acked-commit loss, zero read-your-writes violations, every session
    #: recovering inside ``proxy_recovery_budget_ms``, and steady-state
    #: replica time lag p95 under ``proxy_lag_slo_ms``.
    proxy: bool = False
    proxy_sessions: int = 100_000
    proxy_pool: int = 128
    proxy_recovery_budget_ms: float = 5_000.0
    proxy_lag_slo_ms: float = 10.0
    #: End-to-end integrity mode: inject silent corruption (bit rot, torn
    #: writes, lost-but-acked writes, misdirected writes) via the
    #: integrity chaos profile and gate on zero corrupt reads served plus
    #: every corruption repaired inside ``integrity_repair_budget_ms``
    #: (see DESIGN.md section 12).
    integrity: bool = False
    #: Storage backend for the cluster under audit ("aurora" or "taurus"),
    #: honoured by every profile (geo builds both regions on it).
    backend: str = "aurora"
    #: Injection-to-repair budget per corruption (ms).
    integrity_repair_budget_ms: float = 12_000.0

    def as_proxy(self) -> "AuditRunConfig":
        """Switch this config to the serving-tier shape.  The storage
        control planes stay off (they have their own gates): the single
        writer kill is the disaster under test, and the replica fleet
        plus the failover coordinator are what the proxy rides on."""
        self.proxy = True
        self.heal = False
        self.membership_change = False
        self.plant_false_positive = False
        self.background_failures = False
        self.fleet_kills = 0
        self.fleet_double_fault = False
        self.az_bursts = False
        self.geo = False
        self.failover = True
        self.replicas = max(self.replicas, 3)
        return self

    def as_geo(self) -> "AuditRunConfig":
        """Switch this config to the geo disaster-recovery shape.  The
        intra-region control planes (healer, planted false positives,
        fleet storms, writer failover) stay off: the region event is the
        correlated disaster under test, and the geo chaos profile keeps
        only light intra-primary noise plus WAN degradation."""
        self.geo = True
        self.heal = False
        self.membership_change = False
        self.plant_false_positive = False
        self.background_failures = False
        self.failover = False
        self.fleet_kills = 0
        self.fleet_double_fault = False
        self.az_bursts = False
        self.replicas = 0
        return self

    def as_fleet(self) -> "AuditRunConfig":
        """Switch this config to the fleet-scale shape: a 10-PG volume,
        a 9-PG kill storm with a same-PG double fault, correlated AZ
        bursts, the >= 8 concurrent-repair gate, and autonomous writer
        failover under writer-kill + writer-grey chaos."""
        self.pg_count = max(self.pg_count, 10)
        self.fleet_kills = max(self.fleet_kills, 9)
        self.fleet_double_fault = True
        self.az_bursts = True
        self.min_concurrent_repairs = max(self.min_concurrent_repairs, 8)
        self.repair_transfer_ms = max(self.repair_transfer_ms, 750.0)
        self.failover = True
        self.replicas = max(self.replicas, 2)
        self.writer_kill_period_ms = max(
            self.writer_kill_period_ms, 6000.0
        )
        self.writer_grey_period_ms = max(
            self.writer_grey_period_ms, 5000.0
        )
        return self

    def as_integrity(self) -> "AuditRunConfig":
        """Switch this config to the integrity-audit shape.  The fail-stop
        control planes (healer, failover, planted false positives, fleet
        storms, background churn) stay off: they answer *loud* failures,
        and their own gates already cover them.  What remains is exactly
        the silent-failure machinery under test -- read-time verification,
        scrub, and quorum-vote repair -- under corruption chaos plus light
        crash/partition noise.  Operator-driven writer crash cycles are
        pushed out past the horizon so torn-write restarts are the only
        instance churn."""
        self.integrity = True
        self.heal = False
        self.membership_change = False
        self.plant_false_positive = False
        self.background_failures = False
        self.failover = False
        self.fleet_kills = 0
        self.fleet_double_fault = False
        self.az_bursts = False
        self.geo = False
        self.proxy = False
        self.writer_crash_every = 10**9
        return self


@dataclass
class AuditReport:
    """Outcome of one audit run."""

    seed: int
    steps: int
    sim_time_ms: float
    chaos_events: int
    commit_acks: int
    availability_errors: int
    writer_recoveries: int
    protocol_events: int
    violations: list[AuditViolation] = field(default_factory=list)
    event_tail: list[str] = field(default_factory=list)
    #: Self-healing telemetry (None when the healer was not armed).
    repairs: RepairSummary | None = None
    health_counters: dict = field(default_factory=dict)
    #: Confirmed-dead segments left unrepaired at run end (active or
    #: stalled records, or a PG still in a dual membership).
    unrepaired: int = 0
    #: Planted false positive: None = not planted, True = the transition
    #: rolled back as required, False = it did not.
    planted_rollback_ok: bool | None = None
    #: Fleet storm bookkeeping: segments permanently killed by the storm,
    #: and the concurrency gate (None = gate off).
    fleet_kills: int = 0
    concurrency_ok: bool | None = None
    #: Failover telemetry (None when the coordinator was not armed), the
    #: number of chaos writer kills, and the budget gate: every terminal
    #: failover resolved, with its write-unavailability window inside the
    #: configured budget (None = failover off).
    failovers: FailoverSummary | None = None
    writer_kills: int = 0
    failover_ok: bool | None = None
    #: Geo disaster-recovery telemetry (empty/None when ``geo`` is off):
    #: the terminal region records (picklable, so sweeps can merge the
    #: RPO/RTO distributions across seeds), the ack mode this run used,
    #: the single-run RPO/RTO report, and the gate -- promotion reached a
    #: terminal PROMOTED outcome with its RTO inside the budget (loss
    #: and fencing violations surface through the auditors).
    geo_records: list = field(default_factory=list)
    geo_ack_mode: str = ""
    geo_rpo_rto: object | None = None
    geo_ok: bool | None = None
    #: Serving-tier telemetry (None when ``proxy`` is off): the
    #: :class:`repro.analysis.serving.ServingReport` (picklable, so
    #: sweeps can merge recovery/lag distributions across seeds), the
    #: logical session count, and the gate -- a promotion happened, no
    #: acked write was lost, no read-your-writes violation, every
    #: session outage inside the recovery budget, lag p95 inside the SLO.
    serving: object | None = None
    proxy_sessions: int = 0
    proxy_ok: bool | None = None
    #: Integrity telemetry (None when ``integrity`` is off): the
    #: :class:`repro.analysis.integrity.IntegrityReport` (picklable, so
    #: sweeps can merge MTTD/MTTR/exposure distributions across seeds)
    #: and the gate -- at least one corruption injected, zero corrupt
    #: reads served, every corruption repaired inside budget, zero
    #: auditor violations.
    integrity: object | None = None
    integrity_ok: bool | None = None
    #: Name of the storage backend the run built (every profile).
    backend: str = ""
    #: Engine telemetry for the perf harness (`repro bench-engine`).
    events_executed: int = 0
    messages_sent: int = 0
    wall_clock_s: float = 0.0
    #: Per-payload-type message counts (only when ``detailed_stats``).
    message_types: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.unrepaired == 0
            and self.planted_rollback_ok is not False
            and self.concurrency_ok is not False
            and self.failover_ok is not False
            and self.geo_ok is not False
            and self.proxy_ok is not False
            and self.integrity_ok is not False
        )

    def render(self) -> str:
        lines = [
            f"audit run: seed={self.seed} steps={self.steps} "
            f"sim_time={self.sim_time_ms:.0f}ms",
            f"  chaos events:        {self.chaos_events}",
            f"  commit acks:         {self.commit_acks}",
            f"  writer recoveries:   {self.writer_recoveries}",
            f"  availability errors: {self.availability_errors}",
            f"  protocol events:     {self.protocol_events}",
            f"  violations:          {len(self.violations)}",
        ]
        if self.repairs is not None:
            lines += self.repairs.render_lines()
            lines.append(
                f"  health verdicts:     "
                f"suspected={self.health_counters.get('suspected', 0)} "
                f"confirmed={self.health_counters.get('confirmed_dead', 0)} "
                f"false_pos={self.health_counters.get('false_positives', 0)}"
            )
            if self.unrepaired:
                lines.append(
                    f"  UNREPAIRED segments: {self.unrepaired}"
                )
            if self.planted_rollback_ok is not None:
                verdict = "ok" if self.planted_rollback_ok else "FAILED"
                lines.append(
                    f"  planted false pos:   rollback {verdict}"
                )
            if self.fleet_kills:
                lines.append(
                    f"  fleet storm:         {self.fleet_kills} segments "
                    f"killed across distinct PGs"
                )
            if self.concurrency_ok is not None:
                verdict = "ok" if self.concurrency_ok else "FAILED"
                lines.append(
                    f"  concurrency gate:    {verdict} "
                    f"(peak {self.repairs.peak_concurrent})"
                )
        if self.failovers is not None:
            lines.append(f"  writer kills:        {self.writer_kills}")
            lines += self.failovers.render_lines()
            if self.failover_ok is not None:
                verdict = "ok" if self.failover_ok else "FAILED"
                lines.append(f"  failover gate:       {verdict}")
        if self.geo_ok is not None:
            from repro.geo import summarize_geo_failovers

            lines.append(f"  geo ack mode:        {self.geo_ack_mode}")
            lines += summarize_geo_failovers(self.geo_records).render_lines()
            if self.geo_rpo_rto is not None:
                lines += self.geo_rpo_rto.render_lines()
            verdict = "ok" if self.geo_ok else "FAILED"
            lines.append(f"  geo DR gate:         {verdict}")
        if self.proxy_ok is not None:
            # The failover telemetry above already covered the kill; add
            # the client-edge view.
            if self.serving is not None:
                lines += self.serving.render_lines()
            verdict = "ok" if self.proxy_ok else "FAILED"
            lines.append(f"  proxy gate:          {verdict}")
        if self.integrity_ok is not None:
            lines.append(f"  storage backend:     {self.backend}")
            if self.integrity is not None:
                lines += self.integrity.render_lines()
            verdict = "ok" if self.integrity_ok else "FAILED"
            lines.append(f"  integrity gate:      {verdict}")
        if self.violations:
            lines.append("")
            lines.append(f"VIOLATIONS (reproduce with --seed {self.seed}):")
            for violation in self.violations:
                lines.append(f"  {violation.invariant}: {violation.subject}")
                lines.append(f"    {violation.detail}")
            lines.append("")
            lines.append("event log tail:")
            for event in self.event_tail:
                lines.append(f"  {event}")
        return "\n".join(lines)


def run_audit(config: AuditRunConfig | None = None) -> AuditReport:
    """Run a seeded chaos workload with the invariant auditor armed."""
    cfg = config if config is not None else AuditRunConfig()
    wall_start = time.perf_counter()
    if cfg.geo:
        return _run_geo_audit(cfg, wall_start)
    if cfg.proxy:
        return _run_proxy_audit(cfg, wall_start)
    if cfg.integrity:
        return _run_integrity_audit(cfg, wall_start)
    cluster_cfg = ClusterConfig(
        seed=cfg.seed, pg_count=cfg.pg_count, backend=cfg.backend
    )
    cluster = AuroraCluster.build(config=cluster_cfg, seed=cfg.seed)
    cluster.network.set_stats_detail(cfg.detailed_stats)
    auditor = Auditor(tail_size=cfg.tail_size)
    cluster.arm_auditor(auditor)
    if cfg.heal:
        from repro.repair import RepairConfig

        cluster.arm_healer(
            repair_config=RepairConfig(
                baseline_transfer_ms=cfg.repair_transfer_ms
            )
        )
    for _ in range(cfg.replicas):
        cluster.add_replica()
    if cfg.failover:
        cluster.arm_failover()
    cluster.run_for(10.0)  # let replicas settle before the storm

    horizon_ms = max(4000.0, cfg.steps * 4.0)
    chaos_cfg = fleet_chaos_config() if cfg.az_bursts else None
    if cfg.failover and (
        cfg.writer_kill_period_ms > 0 or cfg.writer_grey_period_ms > 0
    ):
        chaos_cfg = chaos_cfg if chaos_cfg is not None else ChaosConfig()
        chaos_cfg.writer_kill_period_ms = cfg.writer_kill_period_ms
        chaos_cfg.writer_grey_period_ms = cfg.writer_grey_period_ms
    schedule = ChaosSchedule.generate(
        seed=cfg.seed,
        nodes=sorted(cluster.nodes),
        azs={az: cluster.failures.az_nodes(az)
             for az in ("az1", "az2", "az3")},
        horizon_ms=horizon_ms,
        config=chaos_cfg,
    )
    runner = _WorkloadRunner(cluster, auditor, cfg)
    runner.chaos_horizon_ms = cluster.loop.now + horizon_ms
    schedule.install(
        cluster.failures,
        writer_kill=runner.kill_writer if cfg.failover else None,
        writer_grey=runner.grey_writer if cfg.failover else None,
    )
    if cfg.background_failures:
        cluster.failures.enable_background_failures(
            sorted(cluster.nodes),
            mttf_ms=cfg.background_mttf_ms,
            mttr_ms=cfg.background_mttr_ms,
            horizon_ms=cluster.loop.now + horizon_ms,
        )

    runner.run()

    failovers = None
    failover_ok = None
    if cfg.failover:
        runner.settle_failover()
        failovers = cluster.failover.summary()
        failover_ok = runner.failover_gate()
    repairs = None
    health_counters: dict = {}
    unrepaired = 0
    concurrency_ok = None
    if cfg.heal:
        runner.settle_repairs()
        repairs = cluster.healer.summary()
        health_counters = dict(cluster.health.counters)
        unrepaired = _count_unrepaired(cluster)
        if cfg.min_concurrent_repairs > 0:
            concurrency_ok = (
                repairs.peak_concurrent >= cfg.min_concurrent_repairs
            )

    return AuditReport(
        seed=cfg.seed,
        steps=cfg.steps,
        sim_time_ms=cluster.loop.now,
        chaos_events=len(schedule),
        commit_acks=auditor.commit_acks,
        availability_errors=runner.availability_errors,
        writer_recoveries=runner.recoveries,
        protocol_events=auditor.events_seen,
        violations=list(auditor.violations),
        event_tail=auditor.event_tail,
        repairs=repairs,
        health_counters=health_counters,
        unrepaired=unrepaired,
        planted_rollback_ok=runner.planted_rollback_ok,
        fleet_kills=len(runner.fleet_killed),
        concurrency_ok=concurrency_ok,
        failovers=failovers,
        writer_kills=runner.writer_kills,
        failover_ok=failover_ok,
        backend=cluster.backend.name,
        events_executed=cluster.loop.events_executed,
        messages_sent=cluster.network.stats.messages_sent,
        wall_clock_s=time.perf_counter() - wall_start,
        message_types=dict(cluster.network.stats.by_type),
    )


def _run_integrity_audit(
    cfg: AuditRunConfig, wall_start: float
) -> AuditReport:
    """End-to-end integrity audit: silent corruption under a live workload.

    The integrity chaos profile injects disk bit rot (stored block
    versions and redo records), torn writes surfacing at crash restart,
    lost-but-acked writes, and misdirected writes, on top of light node
    crash / partition noise, while the mixed workload keeps reading and
    writing.  The machinery of DESIGN.md section 12 -- read-time
    verification with quarantine + peer read-repair, record scrub, and
    the rotating quorum-vote sweep -- must find and repair every
    injection.  The gate: at least one corruption injected, zero corrupt
    reads served (``integrity-corrupt-served``), zero repairs sourced
    from a corrupt peer copy (``integrity-repair-propagated-corruption``),
    and every corruption's injection-to-repair exposure inside
    ``cfg.integrity_repair_budget_ms`` (``integrity-unrepaired-past-
    budget``).  Runs on either storage backend via ``cfg.backend``.
    """
    from repro.analysis.integrity import integrity_report
    from repro.sim.chaos import integrity_chaos_config
    from repro.storage.node import StorageNodeConfig

    # A fast scrub rotation: the audit horizon is seconds, not hours, so
    # the sweep must cover the whole segment well inside it (the repair
    # budget assumes roughly two rotations' worth of detection latency).
    node_cfg = StorageNodeConfig(scrub_interval=400.0)
    cluster_cfg = ClusterConfig(
        seed=cfg.seed,
        pg_count=cfg.pg_count,
        backend=cfg.backend,
        node=node_cfg,
    )
    cluster = AuroraCluster.build(config=cluster_cfg, seed=cfg.seed)
    cluster.network.set_stats_detail(cfg.detailed_stats)
    auditor = Auditor(tail_size=cfg.tail_size)
    cluster.arm_auditor(auditor)
    for _ in range(cfg.replicas):
        cluster.add_replica()
    integrity = cluster.failures.integrity
    integrity.bind_auditor(auditor)
    cluster.failures.attach_storage(cluster.nodes.values())
    # GC, truncation, and restores can destroy corrupt bytes without the
    # repair hooks firing; the periodic reconcile closes those entries so
    # the unrepaired gate only counts damage that is actually still live.
    cluster.failures.start_integrity_reconcile()
    cluster.run_for(10.0)

    horizon_ms = max(6000.0, cfg.steps * 4.0)
    schedule = ChaosSchedule.generate(
        seed=cfg.seed,
        nodes=sorted(cluster.nodes),
        azs={az: cluster.failures.az_nodes(az)
             for az in ("az1", "az2", "az3")},
        horizon_ms=horizon_ms,
        config=integrity_chaos_config(),
    )
    runner = _WorkloadRunner(cluster, auditor, cfg)
    runner.chaos_horizon_ms = cluster.loop.now + horizon_ms
    schedule.install(cluster.failures)

    runner.run()

    # Run the chaos horizon out (late injections must still land), then
    # keep the fleet scrubbing -- with light keepalive traffic so SCLs
    # and gossip keep advancing -- until every open corruption closes.
    while cluster.loop.now < runner.chaos_horizon_ms:
        cluster.run_for(50.0)
    if not integrity.by_kind():
        # Non-vacuity backstop: a schedule whose draws all missed (no
        # eligible victim at fire time -- a caught-up fleet has nothing
        # above its GC floors) would let the gate pass without exercising
        # anything.  Write fresh records, then land one corruption
        # deterministically before settling.
        injectors = (
            cluster.failures.bit_rot_any,
            cluster.failures.lost_write_any,
            cluster.failures.misdirected_write_any,
        )
        for attempt in range(30):
            # Inject right after the write lands, before the next PGMRPL
            # update hoists the GC floor over the fresh records and
            # closes the eligibility window again.
            runner._keepalive(attempt)
            if injectors[attempt % len(injectors)]() is not None:
                cluster.run_for(60.0)
                break
            cluster.run_for(60.0)
    for spin in range(4000):
        if integrity.open_count() == 0:
            break
        cluster.run_for(25.0)
        if spin % 40 == 0:
            runner._keepalive(spin)
    cluster.run_for(200.0)
    runner._harvest_pending()
    integrity.audit_unrepaired(cfg.integrity_repair_budget_ms)

    def summed(counter: str) -> int:
        return sum(n.counters[counter] for n in cluster.nodes.values())

    report = integrity_report(
        backend=cluster.backend.name,
        by_kind=integrity.by_kind(),
        mttd_samples_ms=integrity.mttd_samples(),
        mttr_samples_ms=integrity.mttr_samples(),
        exposure_samples_ms=integrity.exposure_samples(),
        reads_intercepted=summed("reads_intercepted"),
        versions_quarantined=sum(
            n.segment.stats["versions_quarantined"]
            for n in cluster.nodes.values()
        ),
        ingest_rejects=summed("ingest_rejects"),
        vote_rounds=summed("vote_rounds"),
        vote_repairs=summed("vote_repairs"),
        scrub_runs=summed("scrub_runs"),
        corrupt_reads_served=integrity.corrupt_reads_served,
        repair_budget_ms=cfg.integrity_repair_budget_ms,
    )
    integrity_ok = (
        report.ok
        # The gate must not pass vacuously: the schedule has to have
        # actually landed corruption for the machinery to answer.
        and report.injected >= 1
        and not auditor.violations
    )

    return AuditReport(
        seed=cfg.seed,
        steps=cfg.steps,
        sim_time_ms=cluster.loop.now,
        chaos_events=len(schedule),
        commit_acks=auditor.commit_acks,
        availability_errors=runner.availability_errors,
        writer_recoveries=runner.recoveries,
        protocol_events=auditor.events_seen,
        violations=list(auditor.violations),
        event_tail=auditor.event_tail,
        integrity=report,
        integrity_ok=integrity_ok,
        backend=cluster.backend.name,
        events_executed=cluster.loop.events_executed,
        messages_sent=cluster.network.stats.messages_sent,
        wall_clock_s=time.perf_counter() - wall_start,
        message_types=dict(cluster.network.stats.by_type),
    )


def _run_proxy_audit(cfg: AuditRunConfig, wall_start: float) -> AuditReport:
    """Serving-tier audit: >=100k logical sessions through a writer kill.

    A replica'd cluster with the failover plane armed is fronted by a
    :class:`repro.db.proxy.ConnectionProxy`; a
    :class:`repro.workloads.sessions.SessionScaleWorkload` drives
    ``cfg.proxy_sessions`` logical sessions (closed loop, think times
    that dwarf the horizon) while exactly one deterministic writer kill
    lands mid-horizon.  The workload flags ``proxy-read-your-writes``
    and ``proxy-read-consistency`` violations live; after the failover
    settles, :meth:`~repro.workloads.sessions.SessionScaleWorkload.
    reconcile` re-reads every acknowledged private write and flags any
    loss as ``proxy-acked-write-loss``.  The gate additionally requires
    the kill to have produced a promotion, every session outage inside
    the recovery budget, and steady-state replica time lag p95 inside
    the SLO.
    """
    from repro.analysis.serving import serving_report
    from repro.db.proxy import ConnectionProxy, ProxyConfig
    from repro.repair import PROMOTED
    from repro.workloads.sessions import (
        SessionScaleConfig,
        SessionScaleWorkload,
    )

    cluster_cfg = ClusterConfig(
        seed=cfg.seed, pg_count=cfg.pg_count, backend=cfg.backend
    )
    cluster = AuroraCluster.build(config=cluster_cfg, seed=cfg.seed)
    cluster.network.set_stats_detail(cfg.detailed_stats)
    auditor = Auditor(tail_size=cfg.tail_size)
    cluster.arm_auditor(auditor)
    for _ in range(cfg.replicas):
        cluster.add_replica()
    cluster.arm_failover()
    cluster.run_for(200.0)  # replicas attach and catch up

    horizon_ms = max(12_000.0, cfg.steps * 40.0)
    proxy = ConnectionProxy(
        cluster,
        ProxyConfig(
            pool_size=cfg.proxy_pool,
            lag_slo_ms=cfg.proxy_lag_slo_ms,
            recovery_budget_ms=cfg.proxy_recovery_budget_ms,
        ),
    )
    workload = SessionScaleWorkload(
        proxy,
        SessionScaleConfig(
            sessions=cfg.proxy_sessions,
            horizon_ms=horizon_ms,
            think_ms=max(60_000.0, horizon_ms * 6.0),
            seed=cfg.seed,
        ),
        flag=auditor.flag,
    )

    # Exactly one writer kill, at a seed-derived point mid-horizon (away
    # from the edges so both the pre-kill steady state and the post-kill
    # recovery are observed inside the horizon).
    rng = random.Random(cfg.seed * 104_729 + 7)
    kill_at = cluster.loop.now + horizon_ms * (0.35 + 0.3 * rng.random())
    kills: list[float] = []

    def kill_writer() -> None:
        writer = cluster.writer
        if writer is None or cluster.failover_in_progress:
            return
        kills.append(cluster.loop.now)
        name = writer.name
        writer.crash()
        cluster.network.fail_node(name)

    cluster.loop.schedule(kill_at - cluster.loop.now, kill_writer)

    workload.run()

    # Let the failover plane drain before judging loss.
    for _spin in range(4000):
        writer = cluster.writer
        if (
            cluster.failover.idle
            and not cluster.failover_in_progress
            and writer is not None
            and writer.state is InstanceState.OPEN
        ):
            break
        cluster.run_for(25.0)
    cluster.run_for(200.0)
    workload.reconcile()

    stats = workload.stats
    promoted = [
        r for r in cluster.failover.records if r.outcome == PROMOTED
    ]
    serving = serving_report(
        sessions=cfg.proxy_sessions,
        ops=stats.ops_completed,
        recovery_samples_ms=proxy.stats.recovery_samples,
        lag_samples_ms=proxy.lag.samples,
        replica_reads=proxy.stats.replica_reads,
        writer_reads=proxy.stats.writer_reads,
        floor_exclusions=proxy.stats.floor_exclusions,
        pool_waits=proxy.stats.pool_waits,
        ryw_violations=stats.ryw_violations,
        lost_acked_writes=stats.lost_acked_writes,
        recovery_budget_s=cfg.proxy_recovery_budget_ms / 1000.0,
        lag_slo_ms=cfg.proxy_lag_slo_ms,
    )
    proxy_ok = (
        serving.ok
        and len(kills) == 1
        and len(promoted) == 1
        # The kill must actually have been *observed* at the client edge
        # -- otherwise the recovery gate would pass vacuously.
        and len(proxy.stats.recovery_samples) > 0
        and not auditor.violations
    )

    return AuditReport(
        seed=cfg.seed,
        steps=cfg.steps,
        sim_time_ms=cluster.loop.now,
        chaos_events=len(kills),
        commit_acks=auditor.commit_acks,
        availability_errors=stats.errors,
        writer_recoveries=len(promoted),
        protocol_events=auditor.events_seen,
        violations=list(auditor.violations),
        event_tail=auditor.event_tail,
        failovers=cluster.failover.summary(),
        writer_kills=len(kills),
        serving=serving,
        proxy_sessions=cfg.proxy_sessions,
        proxy_ok=proxy_ok,
        backend=cluster.backend.name,
        events_executed=cluster.loop.events_executed,
        messages_sent=cluster.network.stats.messages_sent,
        wall_clock_s=time.perf_counter() - wall_start,
        message_types=dict(cluster.network.stats.by_type),
    )


def _run_geo_audit(cfg: AuditRunConfig, wall_start: float) -> AuditReport:
    """Geo disaster-recovery audit: two regions, lossy WAN, one terminal
    region event, audited RPO/RTO gates.

    The run drives a keyed workload through a region-failover-aware
    session while the geo chaos profile degrades the WAN and eventually
    destroys (or partitions away) the primary region.  At promotion the
    runner reconciles its client-side model of acknowledged commits
    against the promoted region: a sync-acked commit the secondary does
    not serve flags ``geo-sync-commit-loss``; an async loss inside the
    applied replication frontier flags ``geo-rpo-exceeds-lag``.  The
    measured RPO/RTO land on the promotion record for
    :mod:`repro.analysis.rpo_rto`.
    """
    from repro.analysis.rpo_rto import rpo_rto_from_records
    from repro.errors import ConfigurationError
    from repro.geo import GEO_TERMINAL, PROMOTED, SYNC, GeoCluster, GeoConfig
    from repro.sim.chaos import geo_chaos_config

    ack_mode = cfg.geo_ack_mode
    if ack_mode == "auto":
        # Deterministic coverage of both RPO regimes across a sweep.
        ack_mode = SYNC if cfg.seed % 2 == 0 else "async"
    geo = GeoCluster.build(
        GeoConfig(
            seed=cfg.seed,
            pg_count=cfg.pg_count,
            ack_mode=ack_mode,
            backend=cfg.backend,
        )
    )
    geo.network.set_stats_detail(cfg.detailed_stats)
    primary_auditor = Auditor(tail_size=cfg.tail_size)
    secondary_auditor = Auditor(tail_size=cfg.tail_size)
    geo.arm_auditors(primary_auditor, secondary_auditor)
    geo.arm_geo_failover()
    geo.run_for(10.0)

    horizon_ms = max(24_000.0, cfg.steps * 8.0)
    schedule = ChaosSchedule.generate(
        seed=cfg.seed,
        nodes=sorted(geo.primary.nodes),
        azs={az: geo.failures.az_nodes(az)
             for az in ("az1", "az2", "az3")},
        horizon_ms=horizon_ms,
        config=geo_chaos_config(),
    )
    runner = _GeoWorkloadRunner(geo, primary_auditor, cfg)
    runner.chaos_horizon_ms = geo.loop.now + horizon_ms
    schedule.install(
        geo.failures,
        region_loss=geo.lose_region,
        region_partition=runner.region_partition,
        wan_brownout=geo.wan_brownout,
        stream_stall=geo.stall_stream,
    )
    runner.run()
    runner.settle_geo()
    geo.check_fencing(primary_auditor)

    coordinator = geo.geo_failover
    promoted_records = [
        r for r in coordinator.records if r.outcome == PROMOTED
    ]
    geo_ok = (
        geo.promoted
        and len(promoted_records) == 1
        and all(r.outcome in GEO_TERMINAL for r in coordinator.records)
        and all(
            r.rto_ms is not None and r.rto_ms <= cfg.geo_rto_budget_ms
            for r in promoted_records
        )
        and runner.reconciled
    )
    try:
        rpo_rto = rpo_rto_from_records(
            coordinator.records, rto_budget_s=cfg.geo_rto_budget_ms / 1000.0
        )
    except ConfigurationError:
        rpo_rto = None  # nothing promoted; geo_ok is already False

    return AuditReport(
        seed=cfg.seed,
        steps=cfg.steps,
        sim_time_ms=geo.loop.now,
        chaos_events=len(schedule),
        commit_acks=primary_auditor.commit_acks
        + secondary_auditor.commit_acks,
        availability_errors=runner.availability_errors,
        writer_recoveries=sum(
            r.promotion_attempts for r in coordinator.records
        ),
        protocol_events=primary_auditor.events_seen
        + secondary_auditor.events_seen,
        violations=list(primary_auditor.violations)
        + list(secondary_auditor.violations),
        event_tail=primary_auditor.event_tail
        + secondary_auditor.event_tail,
        geo_records=list(coordinator.records),
        geo_ack_mode=ack_mode,
        geo_rpo_rto=rpo_rto,
        geo_ok=geo_ok,
        backend=geo.primary.backend.name,
        events_executed=geo.loop.events_executed,
        messages_sent=geo.network.stats.messages_sent,
        wall_clock_s=time.perf_counter() - wall_start,
        message_types=dict(geo.network.stats.by_type),
    )


class _GeoWorkloadRunner:
    """Drives the geo workload and reconciles acked commits at promotion."""

    def __init__(self, geo, primary_auditor: Auditor, cfg: AuditRunConfig):
        self.geo = geo
        self.primary_auditor = primary_auditor
        self.cfg = cfg
        self.rng = random.Random(cfg.seed * 7919 + 13)
        self.db = geo.session()
        self.availability_errors = 0
        self.chaos_horizon_ms = 0.0
        self.reconciled = False
        #: key -> [(acked_at, scn, value)] for every acknowledged
        #: auto-commit; value ``None`` records an acknowledged delete.
        self.acked_log: dict[str, list[tuple[float, int, object]]] = {}
        #: key -> every value that may be on disk (read-check model).
        self.history: dict[str, set] = {}
        #: keys with an uncertain commit outcome (timeout mid-retry);
        #: excluded from loss judgment -- their value set is ambiguous.
        self.tainted: set[str] = set()

    # ------------------------------------------------------------------
    def run(self) -> None:
        cfg = self.cfg
        # Pace the workload across the chaos horizon so writes are in
        # flight when the region event fires (ops themselves also burn
        # simulated time -- a sync commit costs a WAN round trip).
        pace = max(1.0, self.chaos_horizon_ms - self.geo.loop.now) / max(
            1, cfg.steps
        )
        for step in range(cfg.steps):
            self._maybe_reconcile()
            self._one_op(step)
            self.geo.run_for(self.rng.uniform(0.2, 1.8) * pace)
        self.geo.run_for(500.0)

    def settle_geo(self) -> None:
        """Run the chaos horizon out (the region event may fire late),
        wait for the terminal promotion, then reconcile."""
        geo = self.geo
        while geo.loop.now < self.chaos_horizon_ms:
            geo.run_for(50.0)
        for _spin in range(2000):
            if geo.promoted and geo.geo_failover.idle:
                break
            geo.run_for(25.0)
        geo.run_for(500.0)
        self._maybe_reconcile()

    def region_partition(self, duration_ms: float) -> None:
        """Chaos callback: split brain for ``duration_ms``, then heal.
        The heal is the interesting part -- the deposed primary comes
        back reachable and must stay fenced."""
        geo = self.geo
        geo.partition_regions()
        geo.loop.schedule(duration_ms, geo.heal_regions)

    # ------------------------------------------------------------------
    def _key(self) -> str:
        return f"k{self.rng.randrange(self.cfg.keys):03d}"

    def _one_op(self, step: int) -> None:
        roll = self.rng.random()
        key = self._key()
        try:
            if roll < 0.55:
                value = f"g{step}"
                # Record before driving: the value may land even if the
                # ack never arrives.
                self.history.setdefault(key, set()).add(value)
                scn = self.db.write(key, value)
                self._note_ack(key, scn, value)
            elif roll < 0.65:
                scn = self.db.remove(key)
                self._note_ack(key, scn, None)
            else:
                value = self.db.get(key)
                self._check_read(key, value)
        except SimulationError:
            self.tainted.add(key)
            self.availability_errors += 1
        except ReproError:
            self.tainted.add(key)
            self.availability_errors += 1

    def _note_ack(self, key: str, scn: int, value) -> None:
        self.acked_log.setdefault(key, []).append(
            (self.geo.loop.now, scn, value)
        )
        if value is not None:
            self.history.setdefault(key, set()).add(value)

    def _check_read(self, key: str, value) -> None:
        """Flag values that were never written.  ``None`` is never
        flagged here: after an async promotion a key's acked tail may be
        legitimately missing -- the reconciliation pass judges loss."""
        if value is None:
            return
        if value not in self.history.get(key, set()):
            self.primary_auditor.flag(
                "client-read-consistency",
                key,
                f"read returned {value!r}, which was never written "
                f"({len(self.history.get(key, set()))} known candidates)",
            )

    # ------------------------------------------------------------------
    def _maybe_reconcile(self) -> None:
        """At promotion, judge every pre-failure acknowledged commit
        against the promoted region (once, before new writes muddy it)."""
        from repro.geo import SYNC

        geo = self.geo
        if self.reconciled or not geo.promoted:
            return
        self.reconciled = True
        record = geo.promoted_record
        lost: list[tuple[float, int, str]] = []
        judged_acks: list[float] = []
        #: Acks provably covered by the applied replication frontier.
        #: Value-equality "survival" is NOT used for the recovery point:
        #: a lost delete whose key is also absent from the promoted
        #: region matches by coincidence and would understate the RPO.
        covered_acks: list[float] = []
        skipped = 0
        for key in sorted(self.acked_log):
            entries = self.acked_log[key]
            pre = [e for e in entries if e[0] < record.promoted_at]
            if not pre:
                continue
            if len(pre) != len(entries) or key in self.tainted:
                # Rewritten post-promotion (a write that blocked across
                # the failover re-applied on the new region), or an
                # uncertain outcome muddied the expected value set.
                skipped += 1
                continue
            acked_at, scn, value = pre[-1]
            try:
                current = self.db.get(key)
            except (SimulationError, ReproError):
                skipped += 1
                continue
            judged_acks.append(acked_at)
            if scn <= record.applied_vdl:
                covered_acks.append(acked_at)
            if current == value:
                continue
            lost.append((acked_at, scn, key))
            if geo.ack_mode == SYNC:
                self.primary_auditor.flag(
                    "geo-sync-commit-loss",
                    key,
                    f"sync-acked commit scn={scn} (acked at "
                    f"{acked_at:.1f}ms) missing after promotion: "
                    f"expected {value!r}, promoted region has {current!r}",
                )
            elif scn <= record.applied_vdl:
                self.primary_auditor.flag(
                    "geo-rpo-exceeds-lag",
                    key,
                    f"async loss of scn={scn} inside the applied "
                    f"replication frontier {record.applied_vdl}: "
                    f"expected {value!r}, promoted region has {current!r}",
                )
        record.lost_commits = len(lost)
        if lost:
            last_ack = max(judged_acks)
            recovery_point = max(covered_acks) if covered_acks else 0.0
            record.rpo_ms = max(0.0, last_ack - recovery_point)
        record.notes.append(
            f"reconciled {len(judged_acks)} key(s), skipped {skipped}, "
            f"lost {len(lost)}"
        )


def _run_audit_worker(config: AuditRunConfig) -> AuditReport:
    """Module-level worker so configs/reports pickle across processes."""
    return run_audit(config)


def effective_sweep_jobs(jobs: int, n_configs: int) -> int:
    """Worker processes a sweep will actually use.

    ``jobs`` is clamped to the machine's CPU count as well as the config
    count: forking more workers than cores buys nothing and the pool
    setup/pickling tax makes an oversubscribed "parallel" sweep *slower*
    than the sequential path (observed 6.18s vs 5.16s at ``--jobs 4`` on
    one core).  Anything at or below 1 means run sequentially in-process.
    """
    cores = os.cpu_count() or 1
    return min(jobs, n_configs, cores)


def run_audit_sweep(
    configs: Iterable[AuditRunConfig], jobs: int = 1
) -> list[AuditReport]:
    """Run many independent audit seeds, optionally across processes.

    Each seed derives every bit of randomness from its own config, so the
    runs are embarrassingly parallel: reports come back in input order and
    are byte-identical to what the sequential path produces.  ``jobs`` is
    a request, not a command: see :func:`effective_sweep_jobs`.
    """
    configs = list(configs)
    jobs = effective_sweep_jobs(jobs, len(configs))
    if jobs <= 1:
        return [run_audit(cfg) for cfg in configs]
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(_run_audit_worker, configs)


def _count_unrepaired(cluster: AuroraCluster) -> int:
    """Confirmed failures the healer failed to resolve by run end:
    records still in flight, protection groups parked in a dual
    membership, and members the monitor still holds confirmed-dead.
    (A ``stalled`` record alone does not count: its retry record covers
    the same segment.)"""
    from repro.repair.health import SegmentHealth
    from repro.repair.metrics import ACTIVE

    open_records = sum(
        1 for r in cluster.healer.records if r.outcome == ACTIVE
    )
    unstable_pgs = sum(
        1
        for pg_index in cluster.metadata.pg_indexes()
        if not cluster.metadata.membership(pg_index).is_stable
    )
    dead_members = sum(
        1
        for pg_index in cluster.metadata.pg_indexes()
        for member in cluster.metadata.membership(pg_index).members
        if cluster.health.state_of(member) is SegmentHealth.DEAD
    )
    return open_records + unstable_pgs + dead_members


class _WorkloadRunner:
    """Drives the mixed workload and maintains the client-side model."""

    def __init__(
        self, cluster: AuroraCluster, auditor: Auditor, cfg: AuditRunConfig
    ) -> None:
        self.cluster = cluster
        self.auditor = auditor
        self.cfg = cfg
        self.rng = random.Random(cfg.seed * 7919 + 13)
        # In failover mode the writer identity changes under the client's
        # feet; the cluster session re-resolves it per operation.
        self.session = (
            cluster.cluster_session() if cfg.failover else cluster.session()
        )
        self.availability_errors = 0
        self.recoveries = 0
        self.writer_kills = 0
        #: End of the chaos schedule's horizon (absolute sim ms); the
        #: failover settle runs this out so late writer kills still fire.
        self.chaos_horizon_ms = 0.0
        #: key -> last value whose commit was acknowledged.
        self.committed: dict[str, str] = {}
        #: key -> every value that may have been durably committed (acked
        #: commits, plus writes whose commit outcome the client never saw).
        self.history: dict[str, set[str]] = {}
        #: keys a delete was ever attempted on (exempt from None-checks).
        self.deleted: set[str] = set()
        #: unresolved commit futures: (future, {key: value}).
        self.pending: list[tuple[object, dict[str, str]]] = []
        #: Outcome of the planted false-positive scenario (None = never
        #: planted).
        self.planted_rollback_ok: bool | None = None
        #: Segments permanently killed by the fleet storm.
        self.fleet_killed: list[str] = []

    # ------------------------------------------------------------------
    def run(self) -> None:
        cfg = self.cfg
        crash_every = cfg.writer_crash_every or max(150, cfg.steps // 4)
        membership_step = (
            cfg.steps // 2
            if cfg.membership_change and cfg.steps >= 300
            else None
        )
        plant_step = (
            cfg.steps // 3
            if cfg.plant_false_positive and cfg.heal and cfg.steps >= 300
            else None
        )
        # After the planted false positive resolves (it blocks until the
        # rollback lands), so the storm's candidate churn cannot race the
        # plant's candidate-name prediction.
        storm_step = (
            cfg.steps * 3 // 5
            if cfg.fleet_kills > 0 and cfg.heal
            else None
        )
        double_step = (
            min(cfg.steps - 1, storm_step + max(20, cfg.steps // 10))
            if storm_step is not None and cfg.fleet_double_fault
            else None
        )
        for step in range(cfg.steps):
            self._harvest_pending()
            if (
                step > 0
                and step % crash_every == 0
                and not cfg.failover
            ):
                # In failover mode the chaos schedule kills the writer and
                # the coordinator restores it; the operator-driven cadence
                # would race the autonomous plane.
                self._crash_and_recover()
            if membership_step is not None and step == membership_step:
                self._membership_change()
            if plant_step is not None and step == plant_step:
                self._plant_false_positive()
            if storm_step is not None and step == storm_step:
                self._fleet_storm()
            if double_step is not None and step == double_step:
                self._fleet_double_fault()
            self._one_op(step)
            self.cluster.run_for(self.rng.uniform(0.5, 2.5))
        # Let in-flight chaos and acks drain, then harvest final acks.
        self.cluster.run_for(500.0)
        self._harvest_pending()

    def settle_repairs(self) -> None:
        """Keep the simulation rolling until the healer drains.

        Background faults all heal (chaos durations are bounded, the
        background renewal process stops at its horizon), so every
        outstanding repair converges given time.  The client keeps issuing
        light traffic so acks continue feeding the health monitor.
        """
        cluster = self.cluster
        healer = cluster.healer
        monitor = cluster.health
        for spin in range(4000):
            if healer.idle and not self._dead_members(monitor):
                break
            cluster.run_for(25.0)
            if spin % 40 == 0:
                self._keepalive(spin)
        self.cluster.run_for(200.0)
        self._harvest_pending()

    # ------------------------------------------------------------------
    # Failover mode: chaos callbacks + settling
    # ------------------------------------------------------------------
    def kill_writer(self) -> None:
        """Chaos callback: hard-kill the writer host -- crash the instance
        and take its network link down, with no scheduled restore.
        Bringing a writer back is the failover coordinator's job now, not
        the schedule's (and not the client's)."""
        cluster = self.cluster
        writer = cluster.writer
        if (
            writer is None
            or cluster.failover_in_progress
            or writer.state is not InstanceState.OPEN
        ):
            return  # mid-failover already; don't stack kills
        # The crash resolves every in-flight commit future with
        # CommitUncertainError; _harvest_pending folds those into the
        # uncertain set, never the acknowledged set.
        writer.crash()
        cluster.network.fail_node(writer.name)
        self.writer_kills += 1

    def grey_writer(self, factor: float, duration_ms: float) -> None:
        """Chaos callback: grey failure -- the writer host turns slow, not
        dead, for ``duration_ms``.  The health monitor must ride it out
        (SUSPECT at worst); a failover here would be a false positive."""
        cluster = self.cluster
        writer = cluster.writer
        if writer is None or not cluster.network.is_up(writer.name):
            return
        name = writer.name
        cluster.failures.slow_node(name, factor)
        cluster.loop.schedule(
            duration_ms, lambda: cluster.failures.unslow_node(name)
        )

    def _await_failover(self) -> None:
        """Wait (in simulated time) for the coordinator to reopen a
        writer.  Time spent here *is* the write-unavailability window the
        failover report measures."""
        try:
            self.session.await_writer(max_ms=10_000.0)
        except SimulationError:
            self.availability_errors += 1

    def settle_failover(self) -> None:
        """Run the chaos horizon out, then wait for the failover plane to
        drain and a writer to be open.

        The workload usually finishes in simulated time well before the
        last scheduled writer kill; without running the horizon out, a
        run could report a clean failover gate having never actually
        killed its writer.
        """
        cluster = self.cluster
        while cluster.loop.now < self.chaos_horizon_ms:
            cluster.run_for(50.0)
        for _spin in range(4000):
            writer = cluster.writer
            if (
                cluster.failover.idle
                and not cluster.failover_in_progress
                and writer is not None
                and writer.state is InstanceState.OPEN
            ):
                break
            cluster.run_for(25.0)
        cluster.run_for(200.0)
        self._harvest_pending()

    def failover_gate(self) -> bool:
        """The budget gate: every confirmed writer failure resolved (no
        record left active or stalled), and every measured total
        write-unavailability window fit inside the configured budget."""
        from repro.repair.metrics import ACTIVE, STALLED

        for record in self.cluster.failover.records:
            if record.outcome in (ACTIVE, STALLED):
                return False
            window = record.unavailability_ms
            if window is not None and window > self.cfg.failover_budget_ms:
                return False
        return True

    def _dead_members(self, monitor) -> bool:
        """Members the healer still owes work for: confirmed dead, or
        *suspected* -- a failure near the end of the chaos horizon is
        still inside its confirmation window when settling starts, and
        breaking out then would strand its repair mid-flight."""
        from repro.repair.health import SegmentHealth

        metadata = self.cluster.metadata
        return any(
            monitor.state_of(member) is not SegmentHealth.HEALTHY
            for pg_index in metadata.pg_indexes()
            for member in metadata.membership(pg_index).members
        )

    def _keepalive(self, step: int) -> None:
        """One cheap write so liveness signals keep flowing while the
        healer settles (segments only ack when there is traffic)."""
        writer = self.cluster.writer
        if writer is None or writer.state is not InstanceState.OPEN:
            if self.cfg.failover:
                self._await_failover()
            else:
                try:
                    self._crash_and_recover()
                except ReproError:
                    pass
            return
        key, value = self._key(), f"keep{step}.{self.rng.randrange(1000)}"
        try:
            txn = writer.begin()
        except ReproError:
            self.availability_errors += 1
            return
        try:
            self._drive(writer.put(txn, key, value))
        except ReproError:
            # The value may have reached storage buffers; same uncertainty
            # bookkeeping as the regular put op.
            self._note_uncertain({key: value})
            self._abandon(txn)
            self.availability_errors += 1
            return
        try:
            self._commit(txn, {key: value})
        except ReproError:
            self.availability_errors += 1

    # ------------------------------------------------------------------
    # Client-side model upkeep
    # ------------------------------------------------------------------
    def _harvest_pending(self) -> None:
        still = []
        for future, writes in self.pending:
            if not future.done:
                still.append((future, writes))
                continue
            try:
                future.result()
            except ReproError:
                # The commit was rejected, but its redo may still have
                # reached a write quorum first (an epoch bump from a
                # concurrent repair can fail the future after the records
                # landed): the values are uncertain, not absent.
                self._note_uncertain(writes)
                continue
            for key, value in writes.items():
                self.committed[key] = value
                self.history.setdefault(key, set()).add(value)
        self.pending = still

    def _note_uncertain(self, writes: dict[str, str]) -> None:
        """A write batch whose commit outcome is unknown: each value may or
        may not be durable, so reads returning it are legitimate."""
        for key, value in writes.items():
            self.history.setdefault(key, set()).add(value)

    def _check_read(self, key: str, value, replica: bool) -> None:
        if key in self.deleted:
            return
        if value is None:
            # Deliberately NOT harvesting first: a commit that resolved
            # while this read was in flight postdates the read's snapshot,
            # so a None result must be judged against the model as of the
            # read's start.
            if not replica and key in self.committed:
                self.auditor.flag(
                    "client-read-consistency",
                    key,
                    f"writer read returned None but commit of "
                    f"{self.committed[key]!r} was acknowledged",
                )
            return
        # The converse race: a pending commit may have resolved during the
        # read's own drive, making its value legitimately visible before
        # the per-step harvest recorded it.  Fold it in before judging.
        self._harvest_pending()
        seen = self.history.get(key, set())
        if value not in seen:
            where = "replica" if replica else "writer"
            self.auditor.flag(
                "client-read-consistency",
                key,
                f"{where} read returned {value!r}, which was never "
                f"written ({len(seen)} known candidate values)",
            )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _one_op(self, step: int) -> None:
        writer = self.cluster.writer
        if writer is None or writer.state is not InstanceState.OPEN:
            if self.cfg.failover:
                self._await_failover()
            else:
                self._crash_and_recover()
            return
        roll = self.rng.random()
        try:
            if roll < 0.40:
                self._op_put(step)
            elif roll < 0.50:
                self._op_multi_put(step)
            elif roll < 0.75:
                self._op_get()
            elif roll < 0.80:
                self._op_scan()
            elif roll < 0.85:
                self._op_delete(step)
            elif roll < 0.90:
                self._op_rollback(step)
            else:
                self._op_replica_get()
        except LockConflictError:
            self.availability_errors += 1
        except SimulationError:
            self.availability_errors += 1
        except ReproError:
            self.availability_errors += 1

    def _key(self) -> str:
        return f"k{self.rng.randrange(self.cfg.keys):03d}"

    def _drive(self, awaitable):
        return self.session.drive(awaitable, max_ms=self.cfg.op_timeout_ms)

    def _abandon(self, txn) -> None:
        """Best-effort rollback so a failed op does not pin locks forever
        (NO-WAIT locking would otherwise starve the key until the next
        writer crash clears the lock table)."""
        try:
            self._drive(self.cluster.writer.rollback(txn))
        except ReproError:
            pass

    def _commit(self, txn, writes: dict[str, str]) -> None:
        writer = self.cluster.writer
        future = writer.commit(txn)
        self.pending.append((future, writes))
        try:
            self._drive(future)
        except SimulationError:
            # Timed out under chaos; _harvest_pending resolves it later.
            self._note_uncertain(writes)
            self.availability_errors += 1
        except ReproError:
            # Rejected -- but possibly after the redo reached a quorum.
            self._note_uncertain(writes)
            self.availability_errors += 1

    def _op_put(self, step: int) -> None:
        writer = self.cluster.writer
        key, value = self._key(), f"v{step}"
        txn = writer.begin()
        try:
            self._drive(writer.put(txn, key, value))
        except ReproError:
            self._note_uncertain({key: value})
            self._abandon(txn)
            raise
        self._commit(txn, {key: value})

    def _op_multi_put(self, step: int) -> None:
        writer = self.cluster.writer
        writes = {
            self._key(): f"m{step}.{i}" for i in range(self.rng.randint(2, 4))
        }
        txn = writer.begin()
        try:
            for key in sorted(writes):
                self._drive(writer.put(txn, key, writes[key]))
        except ReproError:
            self._note_uncertain(writes)
            self._abandon(txn)
            raise
        self._commit(txn, writes)

    def _op_get(self) -> None:
        key = self._key()
        value = self._drive(self.cluster.writer.get(key))
        self._check_read(key, value, replica=False)

    def _op_scan(self) -> None:
        low, high = sorted((self._key(), self._key()))
        self._drive(self.cluster.writer.scan(low, high))

    def _op_delete(self, step: int) -> None:
        writer = self.cluster.writer
        key = self._key()
        self.deleted.add(key)
        txn = writer.begin()
        try:
            self._drive(writer.delete(txn, key))
        except ReproError:
            self._abandon(txn)
            raise
        future = writer.commit(txn)
        try:
            self._drive(future)
        except SimulationError:
            self.availability_errors += 1

    def _op_rollback(self, step: int) -> None:
        writer = self.cluster.writer
        key, value = self._key(), f"r{step}"
        txn = writer.begin()
        # Whatever happens, the value may reach storage buffers before the
        # rollback lands; never flag a read that returns it.
        self._note_uncertain({key: value})
        try:
            self._drive(writer.put(txn, key, value))
        except ReproError:
            self._abandon(txn)
            raise
        self._drive(writer.rollback(txn))

    def _op_replica_get(self) -> None:
        if not self.cluster.replicas:
            self._op_get()
            return
        name = self.rng.choice(sorted(self.cluster.replicas))
        replica_session = self.cluster.replica_session(name)
        key = self._key()
        value = replica_session.drive(
            self.cluster.replicas[name].get(key),
            max_ms=self.cfg.op_timeout_ms,
        )
        self._check_read(key, value, replica=True)

    # ------------------------------------------------------------------
    # Writer crash / recovery under chaos
    # ------------------------------------------------------------------
    def _crash_and_recover(self) -> None:
        cluster = self.cluster
        if cluster.writer.state is InstanceState.OPEN:
            cluster.crash_writer()
        # Commit futures from the dead generation never resolve; their
        # values stay in `history` (recovery may still surface them if the
        # commit record was durable before the crash).
        for _future, writes in self.pending:
            self._note_uncertain(writes)
        self.pending = []
        self.recoveries += 1
        process = cluster.recover_writer()
        for _attempt in range(60):
            try:
                self.session.drive(process, max_ms=2000.0)
                break
            except SimulationError:
                continue  # recovery still in flight; keep driving it
            except ReproError:
                # Recovery failed (read quorum unreachable mid-chaos).
                # Wait for faults to heal, then start a fresh recovery.
                self.availability_errors += 1
                cluster.writer.state = InstanceState.CRASHED
                cluster.run_for(250.0)
                process = cluster.recover_writer()
        if cluster.writer.state is not InstanceState.OPEN:
            raise SimulationError(
                f"writer never recovered (seed {self.cfg.seed})"
            )
        if cluster.replicas:
            cluster.reattach_replicas()

    # ------------------------------------------------------------------
    # Membership change under chaos (Figure 5 under fire)
    # ------------------------------------------------------------------
    def _membership_change(self) -> None:
        cluster = self.cluster
        if cluster.writer.state is not InstanceState.OPEN:
            return
        state = cluster.metadata.membership(0)
        if not state.is_stable:
            return  # a previous attempt is still in flight
        candidates = [
            node_id
            for alts in state.slots
            for node_id in alts
            if cluster.network.is_up(node_id)
        ]
        if not candidates:
            return
        target = self.rng.choice(sorted(candidates))
        if self.cfg.heal:
            # Condemn (not merely crash) the segment: a chaos-schedule AZ
            # restore must not resurrect it -- it is down for good.  The
            # healer must now detect it, confirm it dead, and drive
            # Figure 5 on its own, no operator-driven replacement.
            cluster.failures.condemn_node(target)
            return
        cluster.failures.crash_node(target)
        try:
            self.session.drive(
                cluster.replace_segment(0, target), max_ms=20_000.0
            )
        except (SimulationError, MembershipError, ReproError):
            # Replacement stalled under chaos; the dual-quorum membership
            # is legal indefinitely, so leave it and carry on.
            self.availability_errors += 1

    # ------------------------------------------------------------------
    # Fleet storm: simultaneous permanent kills across distinct PGs
    # ------------------------------------------------------------------
    def _fleet_storm(self) -> None:
        """Permanently kill one member in each of ``fleet_kills`` distinct
        non-zero PGs at the same instant.

        The victims are *condemned*: every later restore -- including a
        chaos-schedule AZ recovery sweeping over them -- is a no-op, so
        these segments are down for good and the healer must drive a full
        Figure 5 repair for every one of them.  PG 0 is left out -- it
        already hosts the mid-run membership change and the planted false
        positive.
        """
        cluster = self.cluster
        pgs = [p for p in cluster.metadata.pg_indexes() if p != 0]
        for pg_index in pgs:
            if len(self.fleet_killed) >= self.cfg.fleet_kills:
                break
            state = cluster.metadata.membership(pg_index)
            if not state.is_stable:
                continue  # a repair is already in flight here; next PG
            up = sorted(
                m for m in state.members if cluster.network.is_up(m)
            )
            if not up:
                continue
            target = self.rng.choice(up)
            cluster.failures.condemn_node(target)
            self.fleet_killed.append(target)

    def _fleet_double_fault(self) -> None:
        """A second permanent kill in the first storm PG: the healer must
        queue it behind the in-flight repair (per-PG serialization)."""
        cluster = self.cluster
        if not self.fleet_killed:
            return
        pg_index = cluster.metadata.pg_of(self.fleet_killed[0])
        state = cluster.metadata.membership(pg_index)
        up = sorted(
            m
            for m in state.members
            if cluster.network.is_up(m) and m not in self.fleet_killed
        )
        if not up:
            return
        target = self.rng.choice(up)
        cluster.failures.condemn_node(target)
        self.fleet_killed.append(target)

    # ------------------------------------------------------------------
    # Planted false positive (grey failure that comes back mid-repair)
    # ------------------------------------------------------------------
    def _plant_false_positive(self) -> None:
        """Isolate a healthy segment until the healer starts replacing it,
        then let it return and require the transition to roll back.

        The incumbent is partitioned (not crashed): its durable state is
        intact the whole time, exactly the paper's "network problem"
        false-positive scenario.  The candidate is slowed so hydration
        cannot win the race against the returning incumbent.
        """
        from repro.repair.metrics import ACTIVE

        cluster = self.cluster
        healer = cluster.healer
        state = cluster.metadata.membership(0)
        if not state.is_stable or healer.active_repair(0) is not None:
            return  # needs a quiet PG; skip rather than entangle repairs
        up = sorted(
            m for m in state.members if cluster.network.is_up(m)
        )
        if not up:
            return
        target = self.rng.choice(up)
        # Bump the target's failure generation (cancelling pre-scheduled
        # background events) so nothing crashes it for real: the scenario
        # needs the segment to *return*.
        cluster.failures.restore_node(target)
        # Quarantine (not pairwise-partition) the target and the names
        # its replacement candidate could get: a quarantine also drops
        # traffic with nodes created *later* -- a concurrent repair's
        # candidate would otherwise gossip with the target and keep
        # reviving it in the monitor, so it could never be confirmed
        # dead.  The quarantined candidate then cannot hydrate, which
        # removes the race between hydration finishing and the incumbent
        # returning: the rollback path is the only way out.  Candidate
        # names are slot-specific but draw generations from a
        # cluster-wide counter, and concurrent repairs can consume
        # generations between this prediction and our begin -- so
        # reserve a window of future generations.  Only a candidate for
        # *this* slot can ever match these names, so the reservations
        # are inert for every other repair.
        predictions = {
            cluster.segment_name(
                0,
                state.slot_of(target),
                generation=cluster._candidate_counter + 1 + drift,
            )
            for drift in range(6)
        }
        for predicted in predictions:
            cluster.failures.quarantine_node(predicted, allow={target})
        cluster.failures.quarantine_node(target, allow=predictions)
        record = None
        for spin in range(1500):
            record = next(
                (
                    r
                    for r in healer.records
                    if r.segment_id == target
                    and r.outcome == ACTIVE
                    and r.candidate_id is not None
                ),
                None,
            )
            if record is not None:
                break
            cluster.run_for(5.0)
            if spin % 60 == 0:
                self._keepalive(spin)
        if record is None:
            cluster.failures.lift_quarantine(target)
            for predicted in predictions:
                cluster.failures.lift_quarantine(predicted)
            self.planted_rollback_ok = False
            return
        if record.candidate_id not in predictions:
            # The counter drifted past the reserved window; isolate the
            # actual candidate instead (best effort against the race).
            cluster.failures.quarantine_node(
                record.candidate_id, allow={target}
            )
        # The incumbent "returns": lift its quarantine and let its acks
        # and gossip revive it in the monitor.
        cluster.failures.lift_quarantine(target)
        for spin in range(1500):
            if record.outcome != ACTIVE:
                break
            cluster.run_for(5.0)
            if spin % 60 == 0:
                self._keepalive(spin)
        for isolated in predictions | {record.candidate_id}:
            cluster.failures.lift_quarantine(isolated)
        self.planted_rollback_ok = record.outcome == ROLLED_BACK
