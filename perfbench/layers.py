"""Per-layer metrics: work counters from public stats plus traced times.

Counters are read from the simulator's public stats objects before and
after the timed phase (:func:`snapshot`), so they are exact and repeat for
a seed.  The ``*_s`` values come from a :class:`tracing.Tracer` and are
wall-clock.  :data:`PER_LAYER` lists every metric with its unit; the
comment on each group names the end-to-end metric it should move.
"""

from __future__ import annotations

from repro.db.session import Session
from repro.errors import ReproError
from repro.repair.metrics import percentile

#: Figures a user sees that cannot carry a bound, so they are reported
#: with the per-layer metrics.  wall_s and ops_per_s follow the machine's
#: speed, which drifts by up to 1.6x over tens of seconds on a shared host;
#: the others are zero by construction on some workload.
UNGATED = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "sim-ms"),
    ("outage_p50_ms", "sim-ms"),
    ("outage_p90_ms", "sim-ms"),
    ("failed_frac", "1"),
]

PER_LAYER = UNGATED + [
    # -> ops_per_s on every workload.
    ("sim.events.events_per_op", "count"),
    ("sim.events.self_s", "s"),
    # -> ops_per_s, commit_p50_ms on oltp_write.
    ("sim.network.messages_per_op", "count"),
    ("sim.network.wire_bytes_per_user_byte", "ratio"),
    ("db.driver.records_per_batch", "count"),
    ("db.driver.busy_s", "s"),
    ("db.wire.compression_ratio", "ratio"),
    # -> read_p99_ms, ops_per_s on cold_read.
    ("db.driver.storage_reads_per_read", "count"),
    # -> ops_per_s on oltp_write.
    ("storage.node.busy_s", "s"),
    ("storage.segment.receive_s", "s"),
    ("storage.segment.coalesce_records", "count"),
    ("storage.segment.coalesce_s", "s"),
    # -> ops_per_s, read_p99_ms on cold_read and proxy_failover.
    ("storage.segment.read_s", "s"),
    ("storage.page.checksum_calls", "count"),
    ("storage.page.checksum_s", "s"),
    # -> ops_per_s: get on cold_read, put/seal on oltp_write.
    ("db.btree.get_s", "s"),
    ("db.btree.put_s", "s"),
    ("db.btree.nodes_per_lookup", "count"),
    ("db.mtr.records_per_mtr", "count"),
    ("db.mtr.seal_s", "s"),
    # -> read_p99_ms, ops_per_s on cold_read.
    ("db.buffer_cache.writer.hit_rate", "1"),
    ("db.buffer_cache.writer.evictions", "count"),
    ("db.buffer_cache.replica.hit_rate", "1"),
    ("db.buffer_cache.replica.evictions", "count"),
    # -> ops_per_s, peak_rss_mb on oltp_write.
    ("db.instance.commit_s", "s"),
    ("core.records.apply_s", "s"),
    ("db.mvcc.chain_len_mean", "count"),
    ("db.mvcc.txn_table_entries", "count"),
    # -> commit_p50_ms, commit_p99_ms on oltp_write.
    ("core.commit.mean_wait_ms", "sim-ms"),
    ("core.commit.max_depth", "count"),
    # -> ops_per_s on oltp_write; read_p99_ms on cold_read.
    ("db.replica.busy_s", "s"),
    ("db.replica.records_applied", "count"),
    ("db.replica.records_discarded", "count"),
    # -> ops_per_s, read_p99_ms, outage_p50_ms on proxy_failover.
    ("db.proxy.busy_s", "s"),
    ("db.proxy.pool_waits", "count"),
    ("db.proxy.retries", "count"),
    ("db.proxy.writer_fallbacks", "count"),
    ("db.proxy.lag_p95_ms", "sim-ms"),
    ("repair.failover.detection_ms", "sim-ms"),
    ("repair.failover.promotion_ms", "sim-ms"),
    # Traced wall_s / untraced wall_s.
    ("trace.overhead", "ratio"),
]

#: Traced layers whose busy (or self) seconds are reported.
TIMED = {
    "sim.events.self_s": ("self", "sim.events"),
    "db.driver.busy_s": ("busy", "db.driver"),
    "storage.node.busy_s": ("busy", "storage.node"),
    "storage.segment.receive_s": ("busy", "storage.segment.receive"),
    "storage.segment.coalesce_s": ("busy", "storage.segment.coalesce"),
    "storage.segment.read_s": ("busy", "storage.segment.read"),
    "storage.page.checksum_s": ("busy", "storage.page.checksum"),
    "db.btree.get_s": ("busy", "db.btree.get"),
    "db.btree.put_s": ("busy", "db.btree.put"),
    "db.mtr.seal_s": ("busy", "db.mtr.seal"),
    "db.instance.commit_s": ("busy", "db.instance.commit"),
    "core.records.apply_s": ("busy", "core.records.apply"),
    "db.replica.busy_s": ("busy", "db.replica"),
    "db.proxy.busy_s": ("busy", "db.proxy"),
}


def _instance_counters(instance) -> dict:
    cache, drv = instance.cache.stats, instance.driver.stats
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "batches": drv.batches_sent,
        "records": drv.records_sent,
        "storage_reads": drv.reads_issued,
    }


def snapshot(workload) -> dict:
    """Cumulative counters per object, keyed by object identity."""
    cluster = workload.cluster
    per_object = {}
    for writer in workload.writers():
        counters = _instance_counters(writer)
        queue = writer.driver.commit_queue.stats
        counters.update(
            commits=queue.acknowledged,
            commit_wait=queue.total_wait,
            commit_depth=queue.max_queue_depth,
        )
        per_object[("writer", id(writer))] = counters
    for rep in workload.replicas():
        counters = _instance_counters(rep)
        counters.update(
            applied=rep.stats.records_applied,
            discarded=rep.stats.records_discarded,
        )
        per_object[("replica", id(rep))] = counters
    net = cluster.network.stats
    per_object[("cluster", 0)] = {
        "events": cluster.loop.events_executed,
        "messages": net.messages_sent,
        "wire_bytes": net.wire_bytes_sent,
        "logical_bytes": net.logical_bytes_sent,
        "coalesced": sum(
            n.stats_snapshot().get("segment_coalesce_applications", 0)
            for n in cluster.nodes.values()
        ),
    }
    return per_object


def _delta(before: dict, after: dict, role: str, field: str) -> float:
    total = 0.0
    for (kind, key), counters in after.items():
        if kind != role:
            continue
        total += counters[field] - before.get((kind, key), {}).get(field, 0)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mvcc_sample(workload, keys: int = 256) -> tuple[float, int]:
    """(mean version-chain length over sampled keys, txn-table entries),
    read through the current writer after the run."""
    writer = workload.cluster.writer
    session = Session(writer)
    population = workload.sample_keys()
    step = max(1, len(population) // keys)
    lengths = []
    for key in population[::step][:keys]:
        try:
            lengths.append(len(session.drive(writer.btree.versions_of(key))))
        except ReproError:
            continue
    entries = 0
    for block in range(1, writer.config.txn_table_blocks + 1):
        try:
            entries += len(session.drive(writer.read_image(block)))
        except ReproError:
            continue
    return _ratio(sum(lengths), len(lengths)), entries


def per_layer(workload, before: dict, after: dict, tracer) -> dict:
    """Every :data:`PER_LAYER` metric except ``trace.overhead`` and the
    :data:`UNGATED` figures, which every run reports."""
    ops = workload.ops()
    cluster = after[("cluster", 0)]
    base = before[("cluster", 0)]
    net = {k: cluster[k] - base[k] for k in cluster}

    def d(role: str, field: str) -> float:
        return _delta(before, after, role, field)

    lookups = (tracer.calls["db.btree.get"] + tracer.calls["db.btree.put"])
    commits = d("writer", "commits")
    values = {
        "sim.events.events_per_op": _ratio(net["events"], ops),
        "sim.network.messages_per_op": _ratio(net["messages"], ops),
        "sim.network.wire_bytes_per_user_byte": _ratio(
            net["wire_bytes"], tracer.user_bytes),
        "db.driver.records_per_batch": _ratio(
            d("writer", "records"), d("writer", "batches")),
        "db.wire.compression_ratio": _ratio(
            net["logical_bytes"], net["wire_bytes"]),
        "db.driver.storage_reads_per_read": _ratio(
            d("writer", "storage_reads") + d("replica", "storage_reads"),
            workload.client_reads),
        "storage.segment.coalesce_records": net["coalesced"],
        "storage.page.checksum_calls": (
            tracer.function_calls["page.image_checksum"]
            + tracer.function_calls["segment.image_checksum"]),
        "db.btree.nodes_per_lookup": _ratio(tracer.node_reads, lookups),
        "db.mtr.records_per_mtr": _ratio(
            tracer.sealed_records, tracer.calls["db.mtr.seal"]),
        "core.commit.mean_wait_ms": _ratio(
            d("writer", "commit_wait"), commits),
        "core.commit.max_depth": max(
            c["commit_depth"] for (kind, _), c in after.items()
            if kind == "writer"),
        "db.replica.records_applied": d("replica", "applied"),
        "db.replica.records_discarded": d("replica", "discarded"),
    }
    for role in ("writer", "replica"):
        hits = d(role, "cache_hits")
        values[f"db.buffer_cache.{role}.hit_rate"] = _ratio(
            hits, hits + d(role, "cache_misses"))
        values[f"db.buffer_cache.{role}.evictions"] = d(
            role, "cache_evictions")
    proxy = getattr(workload, "proxy", None)
    stats = proxy.stats if proxy is not None else None
    for field in ("pool_waits", "retries", "writer_fallbacks"):
        values[f"db.proxy.{field}"] = getattr(stats, field, 0)
    values["db.proxy.lag_p95_ms"] = (
        (percentile(proxy.lag.samples, 95) or 0.0) if proxy is not None
        else 0.0)
    promoted = workload.promoted() if proxy is not None else []
    values["repair.failover.detection_ms"] = (
        promoted[0].detection_ms if promoted else 0.0)
    values["repair.failover.promotion_ms"] = (
        (promoted[0].promotion_ms or 0.0) if promoted else 0.0)
    for metric, (kind, layer) in TIMED.items():
        table = tracer.self_time if kind == "self" else tracer.busy
        values[metric] = table.get(layer, 0.0)
    return values
