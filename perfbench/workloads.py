"""The benchmark's three workloads, driven through the simulator's public API.

Each workload is a closed loop of simulated clients on one seeded cluster.
A workload object goes through three phases:

- ``setup()`` builds the cluster and does the fixed preload work;
- ``run()`` is the timed phase (clients, then drain/settle/reconcile);
- ``check()`` verifies the outputs and returns a list of failures.

Everything a workload records in simulated time (latencies, counts) is a
pure function of the seed, so two runs of one seed must agree exactly;
:func:`sim_signature` collects those values for that comparison.
"""

from __future__ import annotations

import random

from repro.db.cluster import AuroraCluster, ClusterConfig
from repro.db.instance import InstanceConfig, InstanceState
from repro.db.proxy import ConnectionProxy, ProxyConfig
from repro.db.replica import ReplicaConfig
from repro.db.session import Session
from repro.errors import LockConflictError, ReproError
from repro.repair import PROMOTED
from repro.sim.process import Process
from repro.workloads.generator import OpKind, WorkloadGenerator
from repro.workloads.profiles import profile
from repro.workloads.sessions import SessionScaleConfig, SessionScaleWorkload

#: Closed-loop client count of oltp_write and cold_read.
CLIENTS = 16


def drive_until(loop, done, what: str, limit_ms: float = 600_000.0) -> None:
    """Step the event loop until ``done()``; fail loudly on a stall."""
    deadline = loop.now + limit_ms
    while not done():
        if not loop.step() or loop.now > deadline:
            raise ReproError(f"simulation stalled while {what}")


class Workload:
    """Shared client bookkeeping: counts, latencies and outage windows."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.cluster: AuroraCluster | None = None
        #: Client operations attempted / completed in the timed phase.
        self.attempted = 0
        self.completed = 0
        #: Operations refused by design (NO_WAIT lock conflicts) and
        #: operations that raised any other error from a public call.
        self.refused = 0
        self.failed = 0
        self.client_reads = 0
        self.commit_ms: list[float] = []
        self.read_ms: list[float] = []
        #: Per-client first fault -> next success windows (sim ms).
        self.outage_ms: list[float] = []
        self._fault_at: dict[int, float] = {}
        #: Exceptions that ended a client process (a check failure).
        self.client_errors: list[str] = []

    @property
    def loop(self):
        return self.cluster.loop

    def _fault(self, client: int) -> None:
        self._fault_at.setdefault(client, self.loop.now)

    def _success(self, client: int) -> None:
        started = self._fault_at.pop(client, None)
        if started is not None:
            self.outage_ms.append(self.loop.now - started)

    def _abort(self, client: int, writer, txn, refused: bool):
        """Generator: roll back a failed transaction and count it."""
        if refused:
            self.refused += 1
        else:
            self.failed += 1
        self._fault(client)
        try:
            yield from writer.rollback(txn)
        except ReproError:
            pass  # the writer died or already finished the transaction

    def _run_clients(self, clients: list) -> None:
        """Start the client generators and drive them all to the end.

        Clients count every exception from a public call themselves; one
        that still escapes (say, from a rollback) ends its client, and is
        recorded here so that :meth:`check` fails.
        """
        processes = [Process(self.loop, client) for client in clients]
        drive_until(
            self.loop,
            lambda: all(p.finished for p in processes),
            f"{self.name} clients ran",
        )
        for process in processes:
            exc = process.completion.exception()
            if exc is not None:
                self.client_errors.append(
                    f"a client died: {type(exc).__name__}: {exc}"
                )

    def writers(self) -> list:
        """Every writer instance that served the timed phase."""
        return [self.cluster.writer] if self.cluster.writer else []

    def replicas(self) -> list:
        """Every replica instance that served the timed phase."""
        return list(self.cluster.replicas.values())

    def latencies(self) -> dict[str, list[float]]:
        return {
            "commit": self.commit_ms,
            "read": self.read_ms,
            "outage": self.outage_ms,
        }

    def ops(self) -> int:
        return self.completed

    def extra_signature(self) -> dict:
        return {}

    def sample_keys(self) -> list:
        """Keys whose version chains the traced run samples at the end."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class OltpWrite(Workload):
    """16 clients commit write_only transactions of 1-4 writes each.

    Set-up preloads the profile's 2,000 keys on a one-PG cluster with one
    replica.  The timed phase has no reads; the read latencies reported
    for this workload come from the output check, which reads every key
    back through the replica once it has caught up.
    """

    name = "oltp_write"
    TRANSACTIONS = 2_000

    def setup(self) -> None:
        self.cluster = AuroraCluster.build(ClusterConfig(seed=self.seed))
        self.replica = self.cluster.add_replica()
        self.cluster.run_for(10.0)
        config = profile("write_only")
        keys = [f"key{i:08d}" for i in range(config.key_count)]
        self.model: dict = {}
        session = Session(self.cluster.writer)
        for start in range(0, len(keys), 50):
            txn = session.begin()
            for key in keys[start:start + 50]:
                value = f"init-{key}"
                session.put(txn, key, value)
                self.model[key] = value
            session.commit(txn)
        self.cluster.settle()
        count = max(16, int(self.TRANSACTIONS * self.scale))
        self.transactions = WorkloadGenerator(config, seed=self.seed) \
            .transactions(count)
        self._next = 0

    def _client(self, client: int):
        loop, writer = self.loop, self.cluster.writer
        while self._next < len(self.transactions):
            operations = self.transactions[self._next]
            self._next += 1
            self.attempted += 1
            started = loop.now
            txn = writer.begin()
            try:
                for op in operations:
                    if op.kind is OpKind.DELETE:
                        yield from writer.delete(txn, op.key)
                    elif op.kind is OpKind.WRITE:
                        yield from writer.put(txn, op.key, op.value)
                    else:
                        yield from writer.get(op.key, txn)
                yield writer.commit(txn)
            except LockConflictError:
                yield from self._abort(client, writer, txn, refused=True)
                continue
            except Exception:  # noqa: BLE001 - every failure is counted
                yield from self._abort(client, writer, txn, refused=False)
                continue
            self.completed += 1
            self.commit_ms.append(loop.now - started)
            self._success(client)
            for op in operations:
                if op.kind is OpKind.WRITE:
                    self.model[op.key] = op.value
                elif op.kind is OpKind.DELETE:
                    self.model[op.key] = None

    def run(self) -> None:
        self._run_clients([self._client(i) for i in range(CLIENTS)])

    def check(self) -> list[str]:
        errors = list(self.client_errors)
        writer, replica = self.cluster.writer, self.replica
        drive_until(
            self.loop,
            lambda: replica.applied_vdl >= writer.vdl,
            "the replica caught up",
        )
        view = Session(writer)
        for key in sorted(self.model):
            got = view.get(key)
            if got != self.model[key]:
                errors.append(
                    f"writer: {key} = {got!r}, last ack {self.model[key]!r}"
                )
        # Read-back through the replica: checks replica redo apply and
        # gives this workload's read latencies (replica cache misses).
        keys = sorted(self.model)
        random.Random(self.seed).shuffle(keys)
        reader = Session(replica)
        for key in keys:
            started = self.loop.now
            got = reader.get(key)
            self.read_ms.append(self.loop.now - started)
            self.client_reads += 1
            if got != self.model[key]:
                errors.append(
                    f"replica: {key} = {got!r}, last ack {self.model[key]!r}"
                )
        return errors[:20]

    def sample_keys(self) -> list:
        return sorted(self.model)


class ColdRead(Workload):
    """16 readers issue uniform point reads across two replicas whose
    buffer caches are far smaller than the table, while one writer commits
    a single-row update per ~50 reads.

    The writer's cache is as small as the replicas', so any failure of a
    writer cache miss shows in the failure counts.
    """

    name = "cold_read"
    ROWS = 12_000
    READS = 16_000
    CACHE_BLOCKS = 128
    READS_PER_WRITE = 50

    def setup(self) -> None:
        config = ClusterConfig(
            seed=self.seed,
            instance=InstanceConfig(cache_capacity=self.CACHE_BLOCKS),
            replica=ReplicaConfig(cache_capacity=self.CACHE_BLOCKS),
        )
        self.cluster = AuroraCluster.build(config)
        rows = max(1_000, int(self.ROWS * self.scale))
        self.keys = [f"row{i:08d}" for i in range(rows)]
        #: key -> every value some write of that key produced.
        self.allowed: dict[str, set] = {}
        session = Session(self.cluster.writer)
        for start in range(0, rows, 100):
            txn = session.begin()
            for key in self.keys[start:start + 100]:
                value = f"init-{key}"
                session.put(txn, key, value)
                self.allowed[key] = {value}
            session.commit(txn)
        self.read_replicas = [self.cluster.add_replica() for _ in range(2)]
        self.cluster.run_for(50.0)
        self.reads_total = max(CLIENTS, int(self.READS * self.scale))
        self.rng = random.Random(self.seed)
        self.reads_issued = 0
        self.writes_issued = 0
        self.bad_reads: list[str] = []

    def _reader(self, client: int):
        loop = self.loop
        replica = self.read_replicas[client % len(self.read_replicas)]
        while self.reads_issued < self.reads_total:
            self.reads_issued += 1
            self.attempted += 1
            key = self.keys[self.rng.randrange(len(self.keys))]
            started = loop.now
            try:
                value = yield from replica.get(key)
            except Exception:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                self._fault(client)
                continue
            self.read_ms.append(loop.now - started)
            self.completed += 1
            self.client_reads += 1
            self._success(client)
            if value not in self.allowed[key]:
                self.bad_reads.append(f"{key} read {value!r}")

    def _writer(self, client: int):
        loop, writer = self.loop, self.cluster.writer
        while self.reads_issued < self.reads_total:
            due = (self.writes_issued + 1) * self.READS_PER_WRITE
            if self.reads_issued < due:
                yield 1.0
                continue
            self.writes_issued += 1
            self.attempted += 1
            key = self.keys[self.rng.randrange(len(self.keys))]
            value = f"w{self.writes_issued}-{key}"
            self.allowed[key].add(value)
            started = loop.now
            txn = writer.begin()
            try:
                yield from writer.put(txn, key, value)
                yield writer.commit(txn)
            except LockConflictError:
                yield from self._abort(client, writer, txn, refused=True)
                continue
            except Exception:  # noqa: BLE001 - every failure is counted
                yield from self._abort(client, writer, txn, refused=False)
                continue
            self.completed += 1
            self.commit_ms.append(loop.now - started)
            self._success(client)

    def run(self) -> None:
        clients = [self._reader(i) for i in range(CLIENTS)]
        self._run_clients(clients + [self._writer(CLIENTS)])

    def check(self) -> list[str]:
        return self.client_errors + [
            f"never written: {bad}" for bad in self.bad_reads[:20]
        ]

    def extra_signature(self) -> dict:
        return {"writes": self.writes_issued}

    def sample_keys(self) -> list:
        return self.keys


class ProxyFailover(Workload):
    """~50k logical sessions through a ConnectionProxy (pool 128) over
    three replicas, with exactly one writer kill mid-horizon.

    The kill lands at a seed-derived point in 47.5-52.5% of the horizon.
    That window is narrower than the ``audit-proxy`` rule's 35-65%:
    memory grows with every simulated second, faster after the kill, so
    a wide window makes peak RSS depend mostly on where the seed put the
    kill rather than on the code.

    The timed phase runs the 12 s simulated horizon, drains in-flight
    operations, waits for the failover to settle and reconciles every
    acknowledged private write.
    """

    name = "proxy_failover"
    SESSIONS = 50_000
    HORIZON_MS = 12_000.0
    SHARED_KEYS = 512

    def setup(self) -> None:
        self.cluster = AuroraCluster.build(ClusterConfig(seed=self.seed))
        for _ in range(3):
            self.cluster.add_replica()
        self.cluster.arm_failover()
        self.cluster.run_for(200.0)
        self.proxy = ConnectionProxy(self.cluster, ProxyConfig(pool_size=128))
        self.sessions = max(500, int(self.SESSIONS * self.scale))
        self.workload = SessionScaleWorkload(
            self.proxy,
            SessionScaleConfig(
                sessions=self.sessions,
                horizon_ms=self.HORIZON_MS,
                think_ms=self.HORIZON_MS * 6.0,
                shared_keys=self.SHARED_KEYS,
                seed=self.seed,
            ),
        )
        # Shared rows exist before the run.  Their preload value is None,
        # which the workload's shared-read check treats as "not yet
        # written", so only values sessions wrote are ever judged.
        session = Session(self.cluster.writer)
        for start in range(0, self.SHARED_KEYS, 64):
            txn = session.begin()
            for index in range(start, start + 64):
                session.put(txn, f"shared:{index}", None)
            session.commit(txn)
        self.cluster.settle()
        self.start_writer = self.cluster.writer
        self.start_replicas = list(self.cluster.replicas.values())
        self.kills: list[float] = []

    def _kill_writer(self) -> None:
        writer = self.cluster.writer
        if writer is None or self.cluster.failover_in_progress:
            return
        self.kills.append(self.loop.now)
        writer.crash()
        self.cluster.network.fail_node(writer.name)

    def run(self) -> None:
        cluster = self.cluster
        rng = random.Random(self.seed * 104_729 + 7)
        kill_in = self.HORIZON_MS * (0.475 + 0.05 * rng.random())
        cluster.loop.schedule(kill_in, self._kill_writer)
        self.workload.run()
        # The proxy times each operation from dispatch to result, retries
        # included; waiting for a pool slot shows in pool_waits/outage.
        # Reconciliation reads come later and are not client traffic.
        self.read_ms = list(self.proxy.stats.read_latencies)
        self.commit_ms = list(self.proxy.stats.write_latencies)

        def settled() -> bool:
            writer = cluster.writer
            return (
                cluster.failover.idle
                and not cluster.failover_in_progress
                and writer is not None
                and writer.state is InstanceState.OPEN
            )

        for _spin in range(4_000):
            if settled():
                break
            cluster.run_for(25.0)
        cluster.run_for(200.0)
        self.workload.reconcile()
        stats = self.workload.stats
        self.attempted = stats.ops_started
        self.completed = stats.ops_completed
        self.refused = stats.aborts
        self.failed = stats.errors
        self.client_reads = stats.reads
        self.outage_ms = list(self.proxy.stats.recovery_samples)

    def promoted(self) -> list:
        return [
            r for r in self.cluster.failover.records if r.outcome == PROMOTED
        ]

    def check(self) -> list[str]:
        stats = self.workload.stats
        errors = []
        if len(self.kills) != 1:
            errors.append(f"{len(self.kills)} writer kills, expected 1")
        if len(self.promoted()) != 1:
            errors.append(f"{len(self.promoted())} promotions, expected 1")
        if stats.ryw_violations:
            errors.append(f"{stats.ryw_violations} read-your-writes violations")
        if stats.shared_check_violations:
            errors.append(
                f"{stats.shared_check_violations} shared reads of values "
                "never written"
            )
        if stats.lost_acked_writes:
            errors.append(f"{stats.lost_acked_writes} acked writes lost")
        if not self.outage_ms:
            errors.append("the kill was never observed by a session")
        return errors

    def sample_keys(self) -> list:
        return [f"shared:{i}" for i in range(self.SHARED_KEYS)]

    def writers(self) -> list:
        end = self.cluster.writer
        found = [self.start_writer]
        if end is not None and end is not self.start_writer:
            found.append(end)
        return found

    def replicas(self) -> list:
        # The promoted replica leaves cluster.replicas; keep counting it.
        found = {id(r): r for r in self.start_replicas}
        for replica in self.cluster.replicas.values():
            found.setdefault(id(replica), replica)
        return list(found.values())

    def extra_signature(self) -> dict:
        stats = self.workload.stats
        return {
            "reconciled": stats.reconciled,
            "kill_at": self.kills,
            "retries": self.proxy.stats.retries,
        }


WORKLOADS = {w.name: w for w in (OltpWrite, ColdRead, ProxyFailover)}


def sim_signature(workload: Workload) -> dict:
    """Every simulated result of a finished workload (exact per seed)."""
    cluster = workload.cluster
    signature = {
        "attempted": workload.attempted,
        "completed": workload.completed,
        "refused": workload.refused,
        "failed": workload.failed,
        "client_reads": workload.client_reads,
        "sim_now_ms": cluster.loop.now,
        "events": cluster.loop.events_executed,
        "messages": cluster.network.stats.messages_sent,
    }
    for kind, series in workload.latencies().items():
        signature[f"{kind}_n"] = len(series)
        signature[f"{kind}_sum_ms"] = sum(series)
    signature.update(workload.extra_signature())
    return signature
