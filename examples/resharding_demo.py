#!/usr/bin/env python
"""Flash crowd elasticity: live resharding driven by the autoscaler.

A two-shard DDS deployment takes a traffic burst far above its
comfort zone.  The load-driven :class:`ShardAutoscaler` watches the
per-shard request counters, grows the cluster to four shards — each
add migrates the moved files through the relay fabric while their
sources keep serving, then flips ownership atomically — and once the
crowd leaves, drains the extra shards back out.  The tables at the end
show every scaling decision, each migration's copy-plane throughput,
and what the elasticity cost in client throughput while it happened.

Run:  python examples/resharding_demo.py
"""

from repro.bench.harness import build_sharded_cluster
from repro.core.client import ClientConfig, DdsClient
from repro.core.messages import IoRequest, OpCode
from repro.sim import Environment
from repro.topology.resharding import ShardAutoscaler

IO_SIZE = 1024
FILES = 16
FILE_BYTES = 64 << 10
SLOTS = FILE_BYTES // IO_SIZE
BURST_IOPS = 150_000  # moderate crowd: the copy plane keeps headroom
BURST_REQUESTS = 9_000  # ~60 ms — long enough for two adds to converge


def make_workload(file_ids):
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


class AckLog:
    def __init__(self, env):
        self.env = env
        self.acks = []

    def on_issue(self, request):
        pass

    def on_ack(self, request, response):
        if response.ok:
            self.acks.append(self.env.now)

    def on_give_up(self, request):
        pass


def iops_between(acks, start, end):
    span = end - start
    if span <= 0:
        return 0.0
    return sum(1 for stamp in acks if start <= stamp < end) / span


def main() -> None:
    env = Environment()
    server, file_ids = build_sharded_cluster(env, 2, FILES, FILE_BYTES)
    server.enable_resilience()
    resharder = server.enable_resharding()
    scaler = ShardAutoscaler(
        env,
        server,
        high_water_iops=50e3,  # per shard — the crowd blows past this
        low_water_iops=25e3,
        interval=1e-3,
        min_shards=2,
        max_shards=4,
        cooldown=2,
    )
    scaler.start()
    log = AckLog(env)
    config = ClientConfig(
        offered_iops=BURST_IOPS,
        total_requests=BURST_REQUESTS,
        io_size=IO_SIZE,
        batch=4,
        connections=16,
        max_outstanding=512,
        file_size=FILE_BYTES,
        seed=29,
    )
    client = DdsClient(
        env, server, file_ids[0], config,
        request_factory=make_workload(file_ids), observer=log,
    )
    print(
        f"Flash crowd: {BURST_IOPS // 1000}K IOPS offered at a "
        f"2-shard deployment (autoscaler 2..4 shards)\n"
    )
    result = client.run()
    # Post-crowd idle ticks: per-shard rates fall below the low water
    # and the scaler drains its own additions back out.
    for _ in range(300):
        if [s.index for s in server.live_shards] == [0, 1]:
            break
        env.run(until=env.timeout(1e-3))
    scaler.stop()

    print("scaling decisions")
    print(f"{'time':>9s}  {'live':>4s}  action")
    for decision in scaler.decisions:
        if decision["action"] is None:
            continue
        print(
            f"{decision['time'] * 1e3:7.2f}ms  {decision['live']:4d}  "
            f"{decision['action']}"
        )

    print("\nmigrations (copy plane)")
    print(
        f"{'op':10s} {'files':>5s} {'KiB':>7s} {'duration':>9s} "
        f"{'rate':>9s}"
    )
    for record in resharder.history:
        span = record["end"] - record["start"]
        rate = record["bytes"] / span / 1e6 if span > 0 else 0.0
        print(
            f"{record['kind']:10s} {len(record['files']):5d} "
            f"{record['bytes'] >> 10:7d} {span * 1e3:7.2f}ms "
            f"{rate:6.1f}MB/s"
        )

    print("\ncost curve (client throughput per phase)")
    # Phases cover the crowd's lifetime only — the post-crowd drains
    # run against an idle cluster and have no client cost to measure.
    last_ack = max(log.acks)
    phases = []
    cursor, gap_label = 0.0, "steady"
    for record in resharder.history:
        start = min(record["start"], last_ack)
        end = min(record["end"], last_ack)
        if start > cursor:
            phases.append((cursor, start, gap_label))
        if end > start:
            phases.append((start, end, record["kind"]))
        cursor, gap_label = max(cursor, end), "between"
    if last_ack > cursor:
        phases.append((cursor, last_ack, gap_label))
    print(f"{'phase':10s} {'window':>19s} {'achieved':>10s}")
    for start, end, label in phases:
        print(
            f"{label:10s} {start * 1e3:7.2f}-{end * 1e3:7.2f}ms "
            f"{iops_between(log.acks, start, end) / 1e3:8.1f}K"
        )

    print(
        f"\n{len(result.latencies)} requests, "
        f"{result.failed_requests} failed, "
        f"{resharder.files_moved} file moves, "
        f"{resharder.dirty_recopies} dirty re-copies, "
        f"{server.shard_map.pinned_files} leftover pins; "
        f"back to shards {[s.index for s in server.live_shards]}"
    )


if __name__ == "__main__":
    main()
