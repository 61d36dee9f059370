"""Chaos: shard kills landing in the middle of a live migration.

Chaos-tier scenarios for :mod:`repro.topology.resharding` (run with
``pytest -m chaos``): a two-shard replicated deployment adds a third
shard under sustained traffic, and a :class:`ShardKill` fires while the
migration copy plane is mid-flight.  Two cases:

* **source kill** — a shard that owns files being moved dies; copies
  fall through to the keyspace leader (the surviving backup), pinned
  files keep acking through the outage, and the migration completes
  after recovery;
* **destination kill** — the brand-new shard dies while segments are
  still streaming into it; copies stall until recovery, sources keep
  serving every pinned file, and every cutover still lands.

Both must finish with zero acked-write loss, a clean
:class:`ReplicationInvariantChecker` audit, and no leftover pins.
"""

import pytest

from repro.bench.harness import build_sharded_cluster
from repro.core.client import ClientConfig, DdsClient
from repro.core.messages import IoRequest, OpCode
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ReplicationInvariantChecker,
    ShardKill,
)
from repro.sim import Environment
from repro.topology.sharding import ConsistentHashShardMap

pytestmark = pytest.mark.chaos

IO_SIZE = 1024
FILES = 16
FILE_BYTES = 64 << 10
SLOTS = FILE_BYTES // IO_SIZE
# Moderate offered load: saturation starves the copy plane and the
# migration would not overlap the outage (see tests/test_resharding.py).
TOTAL_REQUESTS = 6000
OFFERED_IOPS = 150e3
ADD_AT = 1e-3
KILL_AT = 5e-3  # inside the measured add-migration window
DOWN_FOR = 3e-3


class AckTimeline:
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


def move_sources(file_ids):
    """Pre-add owners of the files a 2→3 grow will relocate.

    Placement is a pure function of (membership, vnodes), so a
    throwaway map predicts the live server's moves exactly.
    """
    probe = ConsistentHashShardMap(2)
    before = {f: probe.owner(f) for f in file_ids}
    probe.add_shard()
    return sorted({before[f] for f in file_ids if probe.owner(f) != before[f]})


def run_kill_during_migration(kill, seed=5):
    env = Environment()
    server, file_ids = build_sharded_cluster(env, 2, FILES, FILE_BYTES)
    dedup = server.enable_resilience()
    checker = ReplicationInvariantChecker(env)
    server.enable_replication(checker)
    resharder = server.enable_resharding()
    plan = FaultPlan(
        seed=seed,
        events=(ShardKill(at=KILL_AT, down_for=DOWN_FOR, shard=kill),),
    )
    injector = FaultInjector(env, server, plan).arm()
    timeline = AckTimeline(env, checker)
    config = ClientConfig(
        offered_iops=OFFERED_IOPS,
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
    owners_before = {f: server.shard_map.owner(f) for f in file_ids}
    marks = {}

    def control():
        yield env.timeout(ADD_AT)
        marks["added"] = yield from server.add_shard()

    env.process(control())
    result = client.run()
    # Settle until the migration is done AND the killed shard is back:
    # post-outage anti-entropy replays every missed log entry
    # device-timed (~160 ms sim for a source that slept through heavy
    # traffic), and the audit must read the caught-up filesystem.
    for _ in range(400):
        if (
            "added" in marks
            and not resharder.active
            and all(shard.alive for shard in server.shards)
        ):
            break
        env.run(until=env.timeout(1e-3))
    env.run(until=env.timeout(1e-3))
    return {
        "server": server,
        "resharder": resharder,
        "checker": checker,
        "injector": injector,
        "result": result,
        "acks": timeline.acks,
        "marks": marks,
        "owners_before": owners_before,
        "file_ids": file_ids,
        "report": checker.check(server, dedup=dedup),
    }


@pytest.fixture(scope="module")
def source_kill():
    env = Environment()
    _, file_ids = build_sharded_cluster(env, 2, FILES, FILE_BYTES)
    return run_kill_during_migration(kill=move_sources(file_ids)[0])


@pytest.fixture(scope="module")
def dest_kill():
    return run_kill_during_migration(kill=2)


class TestSourceKillDuringMigration:
    def test_kill_landed_inside_the_migration_window(self, source_kill):
        (record,) = source_kill["resharder"].history
        assert record["kind"] == "add:2"
        assert record["start"] < KILL_AT
        assert record["end"] > KILL_AT + DOWN_FOR

    def test_every_request_settles(self, source_kill):
        assert source_kill["result"].failed_requests == 0
        assert len(source_kill["result"].latencies) == TOTAL_REQUESTS

    def test_dead_keyspace_keeps_acking_through_the_outage(
        self, source_kill
    ):
        """The surviving backup serves the killed source's files —
        including the pinned in-flight ones — with no dark window."""
        kill = move_sources(source_kill["file_ids"])[0]
        dead_files = {
            f
            for f, owner in source_kill["owners_before"].items()
            if owner == kill
        }
        assert dead_files, "killed shard owns no files; reseed"
        in_outage = [
            file_id
            for stamp, file_id in source_kill["acks"]
            if KILL_AT <= stamp < KILL_AT + DOWN_FOR
            and file_id in dead_files
        ]
        assert in_outage

    def test_zero_acked_write_loss(self, source_kill):
        source_kill["report"].assert_ok()
        assert source_kill["checker"].violations == []

    def test_migration_completed_despite_the_kill(self, source_kill):
        resharder = source_kill["resharder"]
        (record,) = resharder.history
        assert resharder.files_moved == len(record["files"])
        assert resharder.cutovers == resharder.files_moved
        assert source_kill["server"].shard_map.pinned_files == 0
        assert not resharder.active
        for f in record["files"]:
            assert source_kill["server"].shard_map.owner(f) == 2

    def test_fault_log_records_kill_and_recovery(self, source_kill):
        lines = source_kill["injector"].fault_log_lines()
        assert any("shard-kill" in line for line in lines)
        assert any("shard-recover" in line for line in lines)

    def test_same_seed_reproduces_the_run(self, source_kill):
        kill = move_sources(source_kill["file_ids"])[0]
        again = run_kill_during_migration(kill=kill)
        assert source_kill["acks"] == again["acks"]
        assert (
            source_kill["injector"].fault_log_lines()
            == again["injector"].fault_log_lines()
        )


class TestDestinationKillDuringMigration:
    def test_kill_landed_inside_the_migration_window(self, dest_kill):
        (record,) = dest_kill["resharder"].history
        assert record["kind"] == "add:2"
        assert record["start"] < KILL_AT
        assert record["end"] > KILL_AT + DOWN_FOR

    def test_every_request_settles(self, dest_kill):
        assert dest_kill["result"].failed_requests == 0
        assert len(dest_kill["result"].latencies) == TOTAL_REQUESTS

    def test_sources_keep_serving_pinned_files_through_the_outage(
        self, dest_kill
    ):
        """With the destination dark, every in-flight file stays pinned
        to its source and keeps acknowledging."""
        (record,) = dest_kill["resharder"].history
        in_outage = [
            file_id
            for stamp, file_id in dest_kill["acks"]
            if KILL_AT <= stamp < KILL_AT + DOWN_FOR
            and file_id in record["files"]
        ]
        assert in_outage

    def test_zero_acked_write_loss(self, dest_kill):
        dest_kill["report"].assert_ok()
        assert dest_kill["checker"].violations == []

    def test_migration_completed_despite_the_kill(self, dest_kill):
        resharder = dest_kill["resharder"]
        (record,) = resharder.history
        assert resharder.files_moved == len(record["files"])
        assert resharder.cutovers == resharder.files_moved
        assert dest_kill["server"].shard_map.pinned_files == 0
        assert not resharder.active
        for f in record["files"]:
            assert dest_kill["server"].shard_map.owner(f) == 2
