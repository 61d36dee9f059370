"""Chaos recovery benchmark: throughput dip and time-to-recover.

Kills one shard of a four-shard deployment mid-workload and measures
what the paper's §4.3 crash-consistency story costs end-to-end: the
acknowledged-request throughput in 1 ms buckets (the dip while the
shard is dark, the climb back after raw-disk recovery), the metadata
recovery time itself, and the durability audit over the final disk
state.  Run with ``pytest -m chaos benchmarks/test_chaos_recovery.py``.
"""

import hashlib
from types import SimpleNamespace

import pytest
from _tables import emit, kops, us

from repro.bench.harness import build_sharded_cluster
from repro.core.client import ClientConfig, DdsClient
from repro.core.messages import IoRequest, OpCode
from repro.faults import (
    DurabilityChecker,
    FaultInjector,
    FaultPlan,
    ReplicationInvariantChecker,
    ShardKill,
)
from repro.sim import Environment

pytestmark = pytest.mark.chaos

IO_SIZE = 1024
FILES = 16
FILE_BYTES = 1 << 20
SLOTS = FILE_BYTES // IO_SIZE
TOTAL_REQUESTS = 4800
BUCKET = 1e-3  # throughput histogram resolution

KILL_AT = 2e-3
DOWN_FOR = 3e-3


class AckTimeline:
    """Client observer: durability audit plus an ack timestamp stream."""

    def __init__(self, env, checker):
        self.env = env
        self.checker = checker
        self.acks = []  # (sim time, file id)

    def on_issue(self, request):
        self.checker.on_issue(request)

    def on_ack(self, request, response):
        self.checker.on_ack(request, response)
        if response.ok:
            self.acks.append((self.env.now, request.file_id))

    def on_give_up(self, request):
        self.checker.on_give_up(request)


def make_workload(file_ids):
    """Every 4th request writes a request-id-unique (file, offset)."""

    def factory(request_id, rng):
        if request_id % 4 == 0:
            ordinal = request_id // 4
            file_id = file_ids[ordinal % FILES]
            offset = ((ordinal // FILES) % SLOTS) * IO_SIZE
            payload = request_id.to_bytes(8, "little") * (IO_SIZE // 8)
            return IoRequest(
                OpCode.WRITE, request_id, file_id, offset, IO_SIZE, payload
            )
        file_id = file_ids[rng.randrange(FILES)]
        offset = rng.randrange(SLOTS) * IO_SIZE
        return IoRequest(OpCode.READ, request_id, file_id, offset, IO_SIZE)

    return factory


def state_digest(server, file_ids):
    digest = hashlib.blake2b(digest_size=16)
    for file_id in file_ids:
        owner = server.shard_map.owner(file_id)
        digest.update(server.filesystems[owner].read_sync(file_id, 0, FILE_BYTES))
    return digest.hexdigest()


def run_chaos_bench(seed=13):
    env = Environment()
    server, file_ids = build_sharded_cluster(env, 4, FILES, FILE_BYTES)
    dedup = server.enable_resilience()
    plan = FaultPlan(
        seed=seed,
        events=(ShardKill(at=KILL_AT, down_for=DOWN_FOR, shard=2),),
    )
    injector = FaultInjector(env, server, plan).arm()
    checker = DurabilityChecker()
    timeline = AckTimeline(env, checker)
    config = ClientConfig(
        offered_iops=400e3,
        total_requests=TOTAL_REQUESTS,
        io_size=IO_SIZE,
        batch=4,
        connections=16,
        max_outstanding=512,
        file_size=FILE_BYTES,
        seed=seed,
    )
    client = DdsClient(
        env,
        server,
        file_ids[0],
        config,
        request_factory=make_workload(file_ids),
        observer=timeline,
    )
    result = client.run()
    env.run(until=env.timeout(1e-3))  # drain recovery stragglers
    dead_files = frozenset(
        file_id for file_id in file_ids if server.shard_map.owner(file_id) == 2
    )
    recover_record = next(
        record
        for record in injector.fault_log
        if record.kind == "shard-recover"
    )
    recovery_us = float(
        recover_record.detail.split("recovery_time=")[1].rstrip("us")
    )
    return SimpleNamespace(
        server=server,
        result=result,
        injector=injector,
        acks=timeline.acks,
        dead_files=dead_files,
        recover_time=recover_record.time,
        recovery_us=recovery_us,
        report=checker.check(server, dedup=dedup),
        digest=state_digest(server, file_ids),
    )


def summarize(run):
    """Total and dead-shard ack rates around the kill window."""
    buckets, dead_buckets = {}, {}
    for stamp, file_id in run.acks:
        bucket = int(stamp / BUCKET)
        buckets[bucket] = buckets.get(bucket, 0) + 1
        if file_id in run.dead_files:
            dead_buckets[bucket] = dead_buckets.get(bucket, 0) + 1
    last = max(buckets)
    steady_ids = [b for b in buckets if (b + 1) * BUCKET <= KILL_AT]
    after_ids = [b for b in buckets if b * BUCKET >= run.recover_time and b < last]

    def rate(table, ids):
        return (
            sum(table.get(b, 0) for b in ids) / (len(ids) * BUCKET)
            if ids
            else 0.0
        )

    # Count by exact timestamp, not bucket, at the kill boundaries: the
    # first half-millisecond of the window still drains responses that
    # were on the wire when the shard died.
    dark_dead = sum(
        1
        for stamp, file_id in run.acks
        if file_id in run.dead_files
        and KILL_AT + 5e-4 < stamp < KILL_AT + DOWN_FOR
    )
    recovered_dead = sum(
        1
        for stamp, file_id in run.acks
        if file_id in run.dead_files and stamp >= run.recover_time
    )
    return SimpleNamespace(
        buckets=buckets,
        dead_buckets=dead_buckets,
        steady=rate(buckets, steady_ids),
        dead_steady=rate(dead_buckets, steady_ids),
        recovered=rate(buckets, after_ids),
        after_ids=after_ids,
        dark_dead=dark_dead,
        recovered_dead=recovered_dead,
    )


@pytest.fixture(scope="module")
def runs():
    return run_chaos_bench(seed=13), run_chaos_bench(seed=13)


@pytest.fixture(scope="module")
def table(runs):
    run = runs[0]
    stats = summarize(run)
    rows = [
        (
            f"{bucket * BUCKET * 1e3:.0f}-{(bucket + 1) * BUCKET * 1e3:.0f}ms",
            stats.buckets.get(bucket, 0),
            stats.dead_buckets.get(bucket, 0),
            kops(stats.buckets.get(bucket, 0) / BUCKET),
        )
        for bucket in range(max(stats.buckets) + 1)
    ]
    rows.append(("recovery", "-", "-", us(run.recovery_us / 1e6)))
    emit(
        "chaos_recovery",
        "acked throughput around a shard kill (kill 2ms, restart 5ms)",
        ("window", "acks", "dead-shard", "rate"),
        rows,
    )
    return stats


class TestChaosRecoveryBench:
    def test_every_request_settles_durably(self, runs):
        run = runs[0]
        assert run.result.failed_requests == 0
        assert len(run.result.latencies) == TOTAL_REQUESTS
        run.report.assert_ok()
        assert run.report.verified_writes > 0

    def test_dead_shard_goes_dark_during_the_kill_window(self, runs, table):
        run = runs[0]
        assert run.dead_files, "shard 2 owns no files; reseed the layout"
        assert table.dead_steady > 0  # it was serving before the kill
        # A dead DPU cannot transmit: past the in-flight drain, nothing
        # it owns is acknowledged until recovery.
        assert table.dark_dead <= 2

    def test_dead_shard_serves_again_after_recovery(self, runs, table):
        run = runs[0]
        # The retry backlog for the dead shard's files settles once the
        # filesystem is recovered from raw disk.
        assert table.recovered_dead > len(run.dead_files)

    def test_throughput_recovers_after_restart(self, runs, table):
        assert table.after_ids, "run ended before the shard recovered"
        assert table.recovered >= 0.8 * table.steady

    def test_metadata_recovery_is_fast(self, runs):
        run = runs[0]
        # §4.3: recovery replays one metadata segment from raw disk —
        # it must be far quicker than the outage it repairs.
        assert run.recover_time >= KILL_AT + DOWN_FOR
        assert run.recovery_us / 1e6 < DOWN_FOR

    def test_same_seed_reproduces_the_run(self, runs):
        first, second = runs
        assert first.injector.fault_log_lines() == (
            second.injector.fault_log_lines()
        )
        assert first.digest == second.digest
        assert first.acks == second.acks


# ----------------------------------------------------------------------
# replicated shard groups: zero-dark-window failover
# ----------------------------------------------------------------------
def run_replicated_bench(seed=13):
    """Same kill, but with synchronous primary→backup replication on.

    The backup of shard 2's replica group serves its keyspace from the
    crash instant onward, so — unlike :func:`run_chaos_bench` — the
    dead keyspace keeps acknowledging through the whole outage.  The
    Derecho-style runtime checker audits every protocol step while the
    chaos runs.
    """
    env = Environment()
    server, file_ids = build_sharded_cluster(env, 4, FILES, FILE_BYTES)
    dedup = server.enable_resilience()
    checker = ReplicationInvariantChecker(env)
    replicator = server.enable_replication(checker)
    plan = FaultPlan(
        seed=seed,
        events=(ShardKill(at=KILL_AT, down_for=DOWN_FOR, shard=2),),
    )
    injector = FaultInjector(env, server, plan).arm()
    timeline = AckTimeline(env, checker)
    config = ClientConfig(
        offered_iops=400e3,
        total_requests=TOTAL_REQUESTS,
        io_size=IO_SIZE,
        batch=4,
        connections=16,
        max_outstanding=512,
        file_size=FILE_BYTES,
        seed=seed,
    )
    client = DdsClient(
        env,
        server,
        file_ids[0],
        config,
        request_factory=make_workload(file_ids),
        observer=timeline,
    )
    result = client.run()
    # Bounded drain: anti-entropy catch-up is device-timed (it replays
    # every entry the dead member missed), and the resilience layer's
    # reclaim loop keeps the event queue non-empty forever — loop until
    # the injector logs the recovery instead of draining bare.
    for _ in range(120):
        if any(r.kind == "shard-recover" for r in injector.fault_log):
            break
        env.run(until=env.timeout(1e-3))
    env.run(until=env.timeout(1e-3))
    dead_files = frozenset(
        file_id for file_id in file_ids if server.shard_map.owner(file_id) == 2
    )
    recover_record = next(
        record
        for record in injector.fault_log
        if record.kind == "shard-recover"
    )
    recovery_us = float(
        recover_record.detail.split("recovery_time=")[1].rstrip("us")
    )
    return SimpleNamespace(
        server=server,
        replicator=replicator,
        checker=checker,
        result=result,
        injector=injector,
        acks=timeline.acks,
        dead_files=dead_files,
        recover_time=recover_record.time,
        recovery_us=recovery_us,
        report=checker.check(server, dedup=dedup),
        digest=state_digest(server, file_ids),
    )


def outage_buckets(run, window=5e-4):
    """Dead-keyspace acks per ``window`` slice of the kill window."""
    buckets = [0] * int(DOWN_FOR / window)
    for stamp, file_id in run.acks:
        if file_id in run.dead_files and KILL_AT <= stamp < KILL_AT + DOWN_FOR:
            buckets[int((stamp - KILL_AT) / window)] += 1
    return buckets


@pytest.fixture(scope="module")
def replicated_run():
    return run_replicated_bench(seed=13)


@pytest.fixture(scope="module")
def replicated_table(replicated_run):
    run = replicated_run
    stats = summarize(run)
    rows = [
        (
            f"{bucket * BUCKET * 1e3:.0f}-{(bucket + 1) * BUCKET * 1e3:.0f}ms",
            stats.buckets.get(bucket, 0),
            stats.dead_buckets.get(bucket, 0),
            kops(stats.buckets.get(bucket, 0) / BUCKET),
        )
        for bucket in range(max(stats.buckets) + 1)
    ]
    replicator = run.replicator
    rows.append(("handoffs", replicator.handoffs, "-", "-"))
    rows.append(("mirrored", replicator.mirrored_writes, "-", "-"))
    rows.append(("solo-acks", replicator.solo_acks, "-", "-"))
    rows.append(("catch-up", replicator.catchup_replays, "-", "-"))
    rows.append(("ingress-drops", run.server.steering.dropped, "-", "-"))
    rows.append(("violations", len(run.checker.violations), "-", "-"))
    rows.append(
        ("recovery+catchup", "-", "-", us(run.recovery_us / 1e6))
    )
    emit(
        "chaos_replication",
        "replicated failover: acked throughput around a shard kill",
        ("window", "acks", "dead-shard", "rate"),
        rows,
    )
    return stats


class TestReplicatedChaosBench:
    def test_zero_dark_window(self, replicated_run, replicated_table):
        """Every outage slice keeps acking the dead shard's keyspace."""
        assert replicated_run.dead_files
        buckets = outage_buckets(replicated_run)
        assert all(count > 0 for count in buckets), buckets

    def test_runtime_checker_is_clean_and_saw_the_protocol(
        self, replicated_run
    ):
        run = replicated_run
        assert run.checker.violations == []
        run.report.assert_ok()
        assert run.result.failed_requests == 0
        assert run.checker.appends_seen > 0
        assert run.checker.commits_seen == run.checker.appends_seen
        assert run.checker.handoffs_seen == 2
        assert run.checker.duplicate_acks == 0

    def test_failover_and_catchup_counters(self, replicated_run):
        replicator = replicated_run.replicator
        assert replicator.handoffs == 2  # kill handoff + rejoin handback
        assert replicator.mirrored_writes > 0
        assert replicator.solo_acks > 0
        assert replicator.catchup_replays > 0
        assert replicator.mirror_failures == 0
        assert replicated_run.server.steering.dropped == 0

    def test_throughput_holds_through_the_outage(
        self, replicated_run, replicated_table
    ):
        # The headline difference from the unreplicated bench: overall
        # acked throughput barely dips while the shard is dark, because
        # the backup absorbs the dead keyspace immediately.
        stats = replicated_table
        outage_ids = [
            bucket
            for bucket in stats.buckets
            if bucket * BUCKET >= KILL_AT
            and (bucket + 1) * BUCKET <= KILL_AT + DOWN_FOR
        ]
        assert outage_ids
        outage_rate = sum(
            stats.buckets.get(bucket, 0) for bucket in outage_ids
        ) / (len(outage_ids) * BUCKET)
        assert outage_rate >= 0.8 * stats.steady

    def test_same_seed_reproduces_the_replicated_run(self, replicated_run):
        again = run_replicated_bench(seed=13)
        assert replicated_run.injector.fault_log_lines() == (
            again.injector.fault_log_lines()
        )
        assert replicated_run.digest == again.digest
        assert replicated_run.acks == again.acks
