"""The DDS benchmark's three open-loop workloads.

Every workload builds its cluster through the public API (the timed
set-up), then drives open-loop traffic at a fixed offered rate: each
request is due at a Poisson arrival time drawn from the run's seed and
is sent at that instant whether or not earlier requests have finished.
Latency is timed from the due time, in simulated time.

Each workload checks every response it receives against a model of
what the program must return, and counts an op as failed if it gets an
error or a throttle, is still unanswered at the phase deadline, or
returns a wrong payload.

* ``kv-read``     - FASTER over DDS (paper §9.2) with the YCSB-C mix of
  ``build_kv_cluster``: GETs only; cached on-disk GETs run entirely on
  the DPU, GETs of in-memory records fall back to host FASTER.
* ``kv-offload``  - the same store with 5% upserts, which fall back to
  the host.  Not a ``BENCHMARK.json`` workload: its output check finds
  two program defects (see ``tests/test_kv_defects.py``).
* ``host-rw``     - solution ⑥ ``dds-files``: host TCP, the DDS file
  library and DMA rings to the DPU file service, for every op.
* ``sharded-tenants`` - four replicated DPU shards behind the tenant QoS
  gate, driven by the repository's own ``OpenLoopTrafficEngine``, with
  one analytics client running verified pushdown scans alongside.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.faster import RECORD
from repro.apps.kv_service import build_kv_cluster
from repro.bench.harness import build_cluster
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.hardware.nic import NetworkLink
from repro.net.packet import FiveTuple
from repro.pushdown.scan import (
    PAGE_BYTES,
    RECORD_BYTES,
    RECORDS_PER_PAGE,
    VALUE_OFFSET,
    WEIGHT_OFFSET,
    canonical_pipeline,
)
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.qos import QosConfig
from repro.topology.sharding import ShardedOffloadServer
from repro.workload import OpenLoopTrafficEngine, TenantSpec

from reference import Reference, scaled

__all__ = [
    "WINDOW",
    "WORKLOADS",
    "Workload",
    "PhaseResult",
    "host_us_per_req",
    "percentile",
]

#: The four client connections of the paper's §8.1 client; every one
#: matches the server's application signature (port 5000).
FLOWS = tuple(
    FiveTuple("10.0.0.2", 40_000 + index, "10.0.0.1", 5000)
    for index in range(4)
)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (the repository's convention); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(p / 100 * len(ordered))) - 1))
    return ordered[index]


def host_us_per_req(phases: List["PhaseResult"]) -> float:
    """Host µs per op over the timed windows of ``phases``, scaled to
    the nominal host speed by the reference runs between the windows."""
    windows = [s for phase in phases for s in phase.windows]
    references = [s for phase in phases for s in phase.references]
    return scaled(sum(windows), references) / (len(windows) * WINDOW) * 1e6


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------
class Registers:
    """Write history per key, deciding which versions a read may return.

    A read may return the initial version or any write issued before the
    read completed, unless that version was already overwritten before
    the read was issued: some later-issued write was acked before then.
    """

    def __init__(self) -> None:
        #: key -> list of [version, issued, acked-or-None]
        self._writes: Dict[object, List[list]] = {}

    def write_issued(self, key: object, version: int, now: float) -> list:
        entry = [version, now, None]
        self._writes.setdefault(key, []).append(entry)
        return entry

    def readable(
        self, key: object, initial: int, issued: float, now: float
    ) -> List[int]:
        writes = self._writes.get(key)
        if not writes:
            return [initial]
        history = [[initial, -math.inf, -math.inf]] + writes
        versions = []
        for version, w_issued, w_acked in history:
            if w_issued > now:
                continue
            superseded = w_acked is not None and any(
                later[2] is not None and later[2] < issued and later[1] > w_acked
                for later in writes
            )
            if not superseded:
                versions.append(version)
        return versions


class Patterns:
    """Seeded, versioned slot contents: ``file | slot | version | fill``."""

    HEADER = struct.Struct("<IIQ")

    def __init__(self, seed: int, size: int) -> None:
        self.size = size
        self._fill = SeededRng(f"{seed}:fill").randbytes(size)[self.HEADER.size:]

    def make(self, file_id: int, slot: int, version: int) -> bytes:
        return self.HEADER.pack(file_id, slot, version) + self._fill

    def version_of(self, data: Optional[bytes], file_id: int, slot: int):
        """The version ``data`` holds if it is a well-formed slot image."""
        if data is None or len(data) != self.size:
            return None
        d_file, d_slot, version = self.HEADER.unpack_from(data)
        if (d_file, d_slot) != (file_id, slot):
            return None
        if data != self.make(file_id, slot, version):
            return None
        return version


# ----------------------------------------------------------------------
# phase accounting
# ----------------------------------------------------------------------
#: Ops per host-time window (see ``host_us_per_req``).
WINDOW = 100


@dataclass
class PhaseResult:
    """What one open-loop phase measured (sim times in seconds)."""

    rate: float
    start: float = 0.0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    unanswered: int = 0
    #: Ops in flight when the last arrival was due.
    backlog: int = 0
    elapsed: float = 0.0
    host_s: float = 0.0
    #: Host seconds of each whole window of WINDOW settled ops, and of
    #: the reference run after each (empty when the phase ran without).
    windows: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    events: int = 0
    host_cores: float = 0.0
    dpu_cores: float = 0.0
    late_max: float = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def completed_latencies(self) -> List[float]:
        return [x for values in self.latencies.values() for x in values]

    def all_latencies(self) -> List[float]:
        """Every op, a failed one counting as missing any limit."""
        return self.completed_latencies() + [math.inf] * self.failed

    def meets(self, limit: float) -> bool:
        """The peak criterion: p99 within ``limit``, no failures, and a
        backlog that the limit could drain (Little's law bound)."""
        return (
            self.failed == 0
            and percentile(self.all_latencies(), 99) <= limit
            and self.backlog <= self.rate * limit
        )


class Phase:
    """Bookkeeping shared by the two ways a phase is driven."""

    def __init__(
        self, env: Environment, server, rate: float,
        reference: Optional[Reference] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.reference = reference
        self._window_start: Optional[float] = None
        self.result = PhaseResult(rate=rate, start=env.now)
        self.last_done = env.now
        self.open = 0
        self.closed = False
        self._events0 = env.scheduled_count
        self._host0 = server.host_cores(1.0)
        self._dpu0 = server.dpu_cores(1.0)
        self._host_clock = 0.0
        self._settled = 0

    def issued(self) -> None:
        self.result.attempted += 1
        self.open += 1

    def settled(self, kind: str, due: float, ok: bool, correct: bool) -> None:
        """Record one op's outcome the first time it is answered.

        An answer after the deadline was already counted as failed; a
        wrong payload is counted whenever it arrives.
        """
        now = self.env.now
        self.open -= 1
        result = self.result
        if self.closed:
            if ok and not correct:
                result.wrong += 1
            return
        self._settled += 1
        if self._settled % WINDOW == 0 and self.reference is not None:
            self._close_window()
        if not ok:
            result.failed += 1
        elif not correct:
            result.failed += 1
            result.wrong += 1
        else:
            result.latencies.setdefault(kind, []).append(now - due)
        self.last_done = max(self.last_done, now)

    def _close_window(self) -> None:
        """End a timed window and run the reference loop after it; the
        reference run counts in neither the window nor ``host_s``."""
        now = time.perf_counter()
        result = self.result
        if self._window_start is not None:
            result.windows.append(now - self._window_start)
        spent = self.reference.run()
        result.references.append(spent)
        self._host_clock -= spent
        self._window_start = time.perf_counter()

    def run(self, until: float) -> None:
        begin = time.perf_counter()
        self.env.run(until=until)
        self._host_clock += time.perf_counter() - begin

    def finish(self, arrivals_end: float, drain: float) -> PhaseResult:
        """Run past the last arrival to the deadline; fail what is open."""
        self.run(arrivals_end)
        result = self.result
        result.backlog = self.open
        self.run(arrivals_end + drain)
        result.unanswered = self.open
        result.failed += self.open
        self.closed = True
        result.host_s = self._host_clock
        result.events = self.env.scheduled_count - self._events0
        result.elapsed = max(self.last_done - result.start, 1e-12)
        result.host_cores = (
            self.server.host_cores(1.0) - self._host0
        ) / result.elapsed
        result.dpu_cores = (
            self.server.dpu_cores(1.0) - self._dpu0
        ) / result.elapsed
        return result

    def quiesce(self, cap: float, step: float = 1e-3) -> None:
        """Let stragglers of an overloaded phase finish before the next."""
        stop = self.env.now + cap
        while self.open and self.env.now < stop:
            self.env.run(until=self.env.now + step)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: Peak search: bracket in steps of PEAK_STEP, bisect to PEAK_PRECISION.
PEAK_STEP = 1.45
PEAK_PRECISION = 1.05
PEAK_MAX_PROBES = 9
#: Sim time an overloaded probe gets to drain before the next one.
QUIESCE = 20e-3


@dataclass
class Workload:
    """One traffic mix: how to build it, drive it, and check it."""

    name: str
    #: Fixed offered rate (ops/s) and its op count.
    rate: float
    ops: int
    #: p99 limit over all ops (s), used by the peak search.
    p99_limit: float
    #: Ops per peak-search probe.
    probe_ops: int
    #: Sim time after the last arrival before open ops count as failed.
    drain: float
    build: Callable[[int], "Deployment"] = field(repr=False)

    def fixed_phase(
        self, deployment: "Deployment", seed: int,
        reference: Optional[Reference] = None,
    ) -> PhaseResult:
        """The fixed-rate phase; with ``reference``, host time is also
        measured in windows (see ``host_us_per_req``)."""
        rng = SeededRng(f"{seed}:{self.name}:fixed")
        return deployment.drive(rng, self.rate, self.ops, self.drain, reference)

    def peak(
        self, deployment: "Deployment", seed: int, fixed: PhaseResult
    ) -> Tuple[float, List[PhaseResult]]:
        """Highest offered rate meeting the p99 limit, to within 5%.

        Probes continue on the cluster the fixed phase used: steps of
        1.45x bracket the knee, geometric bisection narrows the bracket
        below 5%, and the answer is interpolated on completed-op p99
        between the bracket ends.  Returns the rate and every probe.
        """
        rng = SeededRng(f"{seed}:{self.name}:peak")
        limit = self.p99_limit
        probes = [fixed]
        good: Optional[PhaseResult] = fixed if fixed.meets(limit) else None
        bad: Optional[PhaseResult] = None if good else fixed

        def probe(rate: float) -> None:
            nonlocal good, bad
            result = deployment.drive(rng, rate, self.probe_ops, self.drain)
            probes.append(result)
            if result.meets(limit):
                good = result
            else:
                bad = result

        while (good is None or bad is None) and len(probes) < PEAK_MAX_PROBES:
            probe(bad.rate / PEAK_STEP if good is None else good.rate * PEAK_STEP)
        if good is None:
            return 0.0, probes
        while (
            bad is not None
            and bad.rate / good.rate > PEAK_PRECISION
            and len(probes) < PEAK_MAX_PROBES
        ):
            probe(math.sqrt(good.rate * bad.rate))
        if bad is None:
            return good.rate, probes
        lo = percentile(good.completed_latencies(), 99)
        hi = percentile(bad.completed_latencies(), 99)
        if not lo <= limit < hi:
            return good.rate, probes
        share = (limit - lo) / (hi - lo)
        return good.rate + share * (bad.rate - good.rate), probes


class Deployment:
    """A built cluster plus the traffic that checks it."""

    def __init__(self, env: Environment, server) -> None:
        self.env = env
        self.server = server
        self.registers = Registers()
        self.next_request_id = 1
        self._next_version = 1

    def next_id(self) -> int:
        request_id = self.next_request_id
        self.next_request_id += 1
        return request_id

    def next_version(self) -> int:
        version = self._next_version
        self._next_version += 1
        return version

    def drive(
        self, rng: SeededRng, rate: float, count: int, drain: float,
        reference: Optional[Reference] = None,
    ) -> PhaseResult:
        """Open-loop Poisson traffic: ``count`` ops at ``rate`` ops/s."""
        env = self.env
        phase = Phase(env, self.server, rate, reference)
        start = env.now
        dues = []
        due = start
        for _ in range(count):
            due += rng.expovariate(rate)
            dues.append(due)
        submit = self.server.submit
        make_op = self.make_op

        def arrivals():
            for index, due in enumerate(dues):
                gap = due - env.now
                if gap > 0:
                    yield env.timeout(gap)
                late = env.now - due
                if late > phase.result.late_max:
                    phase.result.late_max = late
                request, kind, settle = make_op(rng, env.now)
                phase.issued()
                submit(
                    FLOWS[index % len(FLOWS)],
                    [request],
                    _responder(phase, kind, due, settle),
                )

        env.process(arrivals())
        result = phase.finish(dues[-1], drain)
        phase.quiesce(QUIESCE)
        return result

    def make_op(
        self, rng: SeededRng, now: float
    ) -> Tuple[IoRequest, str, Callable[[IoResponse, float], bool]]:
        raise NotImplementedError


def _responder(phase: Phase, kind: str, due: float, settle) -> Callable:
    answered = [False]

    def on_response(response: IoResponse) -> None:
        if answered[0]:
            return
        answered[0] = True
        correct = response.ok and settle(response, phase.env.now)
        phase.settled(kind, due, response.ok, correct)

    return on_response


# -- kv-offload --------------------------------------------------------
KV_RECORDS = 400_000
KV_GET_FRACTION = 0.95


class KvDeployment(Deployment):
    """FASTER over DDS: GETs check ``RECORD.pack(key, value)``."""

    write_bytes = 8
    get_fraction = KV_GET_FRACTION

    def __init__(self, seed: int) -> None:
        # The loaded store is the same for every seed; the seed drives
        # only the traffic.
        cluster = build_kv_cluster("dds", records=KV_RECORDS)
        super().__init__(cluster.env, cluster.server)
        self.file_id = cluster.kv_file_id

    def make_op(self, rng, now):
        key = rng.randrange(KV_RECORDS)
        registers = self.registers
        if rng.random() < self.get_fraction:
            request = IoRequest(
                OpCode.READ, self.next_id(), self.file_id, 0, RECORD.size,
                tag=key,
            )

            def settle(response: IoResponse, done: float) -> bool:
                # The loaded value of every key is the key itself.
                return any(
                    response.data == RECORD.pack(key, value)
                    for value in registers.readable(key, key, now, done)
                )

            return request, "read", settle
        value = rng.randrange(1 << 62, 1 << 63)
        request = IoRequest(
            OpCode.WRITE, self.next_id(), self.file_id, 0, 8,
            value.to_bytes(8, "little"), tag=key,
        )
        entry = registers.write_issued(key, value, now)

        def settle_write(response: IoResponse, done: float) -> bool:
            entry[2] = done
            return True

        return request, "write", settle_write


class KvReadDeployment(KvDeployment):
    """FASTER over DDS with GETs only (YCSB-C)."""

    get_fraction = 1.0


# -- host-rw -----------------------------------------------------------
RW_IO = 4096
RW_FILE_BYTES = 128 << 20
RW_SLOTS = RW_FILE_BYTES // RW_IO
PREFILL_CHUNK = 1024


def prefill(fs: DdsFileSystem, file_id: int, patterns: Patterns, slots: int):
    """Write version 0 of every slot, in zero simulated time."""
    size = patterns.size
    for first in range(0, slots, PREFILL_CHUNK):
        last = min(slots, first + PREFILL_CHUNK)
        fs.write_sync(
            file_id,
            first * size,
            b"".join(patterns.make(file_id, slot, 0) for slot in range(first, last)),
        )


class FileDeployment(Deployment):
    """Shared read/write checks for the two file workloads."""

    def __init__(self, env, server, seed: int, io_size: int) -> None:
        super().__init__(env, server)
        self.patterns = Patterns(seed, io_size)
        self.write_bytes = io_size

    def read_settle(self, file_id: int, slot: int, issued: float):
        def settle(response: IoResponse, done: float) -> bool:
            version = self.patterns.version_of(response.data, file_id, slot)
            return version is not None and version in self.registers.readable(
                (file_id, slot), 0, issued, done
            )

        return settle

    def write_payload(self, file_id: int, slot: int, now: float):
        version = self.next_version()
        entry = self.registers.write_issued((file_id, slot), version, now)
        return self.patterns.make(file_id, slot, version), entry


class HostRwDeployment(FileDeployment):
    """``dds-files``: 4 KiB reads and writes over one 128 MiB file."""

    def __init__(self, seed: int) -> None:
        cluster = build_cluster("dds-files", db_bytes=RW_FILE_BYTES)
        super().__init__(cluster.env, cluster.server, seed, RW_IO)
        self.file_id = cluster.file_id
        prefill(cluster.filesystem, self.file_id, self.patterns, RW_SLOTS)

    def make_op(self, rng, now):
        slot = rng.randrange(RW_SLOTS)
        file_id = self.file_id
        if rng.random() < 0.5:
            request = IoRequest(
                OpCode.READ, self.next_id(), file_id, slot * RW_IO, RW_IO
            )
            return request, "read", self.read_settle(file_id, slot, now)
        payload, entry = self.write_payload(file_id, slot, now)
        request = IoRequest(
            OpCode.WRITE, self.next_id(), file_id, slot * RW_IO, RW_IO, payload
        )

        def settle(response: IoResponse, done: float) -> bool:
            entry[2] = done
            return True

        return request, "write", settle


# -- sharded-tenants ---------------------------------------------------
ST_SHARDS = 4
ST_TENANTS = 64
ST_FILES = 32
ST_FILE_BYTES = 2 << 20
ST_IO = 1024
ST_READ_FRACTION = 0.8
ST_TABLES = 4
ST_TABLE_PAGES = 16
ST_SELECTIVITY = 0.05
ST_THINK = 1e-3


@dataclass
class Table:
    """One pushdown record table and its ground truth."""

    file_id: int
    slots: List[int]
    total: int
    max_weight: int

    def matches(self, outcome) -> bool:
        return (
            outcome.rows == len(self.slots)
            and [slot for slot, _record in outcome.selected] == self.slots
            and tuple(outcome.acc[:3])
            == (self.total, len(self.slots), self.max_weight)
        )


def make_table(fs: DdsFileSystem, index: int, rng: SeededRng) -> Table:
    """A record table in the canonical pushdown layout: a needle or chaff
    marker at 0, a u32 value, a u32 weight, and a lowercase tail."""
    file_id = fs.create_file("bench", f"table-{index}")
    slots, total, max_weight = [], 0, 0
    for page_id in range(ST_TABLE_PAGES):
        records = []
        for slot in range(RECORDS_PER_PAGE):
            row = page_id * RECORDS_PER_PAGE + slot
            hit = rng.random() < ST_SELECTIVITY
            marker = (b"needle-%08d" if hit else b"chaff--%08d") % row
            value = rng.randrange(10_000)
            weight = rng.randrange(100)
            tail = bytes(
                97 + rng.randrange(26)
                for _ in range(RECORD_BYTES - WEIGHT_OFFSET - 4)
            )
            records.append(
                marker.ljust(VALUE_OFFSET, b".")
                + value.to_bytes(4, "little")
                + weight.to_bytes(4, "little")
                + tail
            )
            if hit:
                slots.append(row)
                total += value
                max_weight = max(max_weight, weight)
        fs.write_sync(file_id, page_id * PAGE_BYTES, b"".join(records))
    return Table(file_id, slots, total, max_weight)


class ShardedDeployment(FileDeployment):
    """Four replicated shards with QoS and pushdown, 64 tenants."""

    def __init__(self, seed: int) -> None:
        env = Environment()
        disk = RamDisk(
            ST_FILES * ST_FILE_BYTES
            + ST_TABLES * ST_TABLE_PAGES * PAGE_BYTES
            + (32 << 20)
        )
        fs = DdsFileSystem(env, SpdkBdev(env, disk))
        fs.create_directory("bench")
        patterns = Patterns(seed, ST_IO)
        self.file_ids = []
        for index in range(ST_FILES):
            file_id = fs.create_file("bench", f"data-{index}")
            prefill(fs, file_id, patterns, ST_FILE_BYTES // ST_IO)
            self.file_ids.append(file_id)
        table_rng = SeededRng(f"{seed}:tables")
        self.tables = [make_table(fs, i, table_rng) for i in range(ST_TABLES)]
        server = ShardedOffloadServer(
            env, NetworkLink(env), fs, shard_count=ST_SHARDS
        )
        server.enable_replication()
        server.enable_pushdown()
        # Shed what has queued past the p99 limit; the dispatch window is
        # wide enough that at the fixed rate backlog never forms here.
        server.enable_qos(QosConfig(max_inflight=1024, sojourn_target=1e-3))
        super().__init__(env, server, seed, ST_IO)
        self.pipeline = canonical_pipeline("filter-project-agg")

    def drive(self, rng, rate, count, drain, reference=None):
        env = self.env
        phase = Phase(env, self.server, rate, reference)
        horizon = count / rate
        tenants = [
            TenantSpec(
                f"tenant-{i:02d}", i, rate=rate / ST_TENANTS,
                read_fraction=ST_READ_FRACTION,
            )
            for i in range(ST_TENANTS)
        ]
        observer = _EngineObserver(self, phase)
        engine = OpenLoopTrafficEngine(
            env, self.server, tenants, self.file_ids,
            horizon=horizon, io_size=ST_IO, file_bytes=ST_FILE_BYTES,
            seed=rng.randrange(1 << 62), observer=observer,
            id_base=self.next_request_id,
        )
        engine.start()
        env.process(self._analytics(phase, env.now + horizon))
        result = phase.finish(env.now + horizon, drain)
        phase.quiesce(QUIESCE)
        return result

    def _analytics(self, phase: Phase, stop: float):
        """One closed-loop analytics client: scan, think, repeat."""
        env = self.env
        turn = 0
        while env.now < stop:
            table = self.tables[turn % len(self.tables)]
            turn += 1
            due = env.now
            phase.issued()
            _verdict, outcome = yield env.process(
                self.server.pushdown_scan(
                    table.file_id, self.pipeline, ST_TABLE_PAGES
                )
            )
            phase.settled("scan", due, True, table.matches(outcome))
            yield env.timeout(ST_THINK)


class _EngineObserver:
    """Client-observer hooks: stamp versioned payloads, check reads."""

    def __init__(self, deployment: ShardedDeployment, phase: Phase) -> None:
        self.deployment = deployment
        self.phase = phase
        self.open: Dict[int, tuple] = {}

    def on_issue(self, request: IoRequest) -> None:
        now = self.phase.env.now
        self.phase.issued()
        self.deployment.next_request_id = max(
            self.deployment.next_request_id, request.request_id + 1
        )
        slot = request.offset // ST_IO
        if request.op is OpCode.WRITE:
            payload, entry = self.deployment.write_payload(
                request.file_id, slot, now
            )
            request.payload = payload
            self.open[request.request_id] = ("write", now, entry)
        else:
            settle = self.deployment.read_settle(request.file_id, slot, now)
            self.open[request.request_id] = ("read", now, settle)

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        kind, due, check = self.open.pop(request.request_id)
        now = self.phase.env.now
        if kind == "write":
            check[2] = now
            self.phase.settled(kind, due, True, True)
        else:
            self.phase.settled(kind, due, True, check(response, now))

    def on_give_up(self, request: IoRequest) -> None:
        """Unused: the engine runs without retries, so a refused op stays
        open and fails at the phase deadline."""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kv-read",
            rate=600e3, ops=40_000, p99_limit=200e-6, probe_ops=12_000,
            drain=2e-3, build=KvReadDeployment,
        ),
        Workload(
            name="kv-offload",
            rate=600e3, ops=40_000, p99_limit=200e-6, probe_ops=12_000,
            drain=2e-3, build=KvDeployment,
        ),
        Workload(
            name="host-rw",
            rate=250e3, ops=10_000, p99_limit=1e-3, probe_ops=5_000,
            drain=10e-3, build=HostRwDeployment,
        ),
        Workload(
            name="sharded-tenants",
            rate=1.0e6, ops=14_000, p99_limit=1e-3, probe_ops=8_000,
            drain=10e-3, build=ShardedDeployment,
        ),
    )
}
