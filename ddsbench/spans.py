"""The traced run: spans around each layer's public calls.

Wrappers are installed on the classes (and the one module function)
before the cluster is built, and record only while a :class:`Tracer` is
active.  Each wrapped call becomes one :class:`Span` with its layer,
start and end in sim time, host self time, its parent span and the
request id it carries.  A generator call is driven step by step, so
its host time is summed over its own resumptions; a span's self time
is its host time minus the host time of the wrapped calls nested in
those resumptions.

The wrappers add no engine events: a generator wrapper yields exactly
the events the wrapped generator yields, and passes sends, throws and
closes through unchanged.  The traced run proves it by reproducing the
untraced run's event count and ``sim_*`` values exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.messages import IoRequest
from workloads import percentile

__all__ = ["TARGETS", "Span", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module:Owner.attr`` (or ``module:attr``).

    ``pre(args)`` is recorded when the call is made and ``post(args,
    result)`` when it returns; both are optional.
    """

    layer: str
    path: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None

    @property
    def call(self) -> str:
        return self.path.split(":")[1]


def _cpu_service(args):
    return args[1] / args[0].speed


def _link_service(args):
    link, _direction, payload = args[:3]
    return link.wire_bytes(payload) / link.spec.bandwidth + link.spec.propagation


def _lookup_hit(args, result):
    default = args[2] if len(args) > 2 else None
    return result is not default


def _scan_outcome(args, result):
    _verdict, outcome = result
    return outcome


TARGETS = (
    Target("hardware.cpu", "repro.hardware.cpu:CpuCore.execute",
           pre=lambda a: (_cpu_service(a), a[0])),
    Target("hardware.cpu", "repro.hardware.cpu:CpuPool.execute",
           pre=_cpu_service),
    Target("hardware.nic", "repro.hardware.nic:NetworkLink.transmit",
           pre=_link_service),
    Target("hardware.pcie", "repro.hardware.pcie:DmaEngine.dma_read",
           pre=lambda a: a[1]),
    Target("hardware.pcie", "repro.hardware.pcie:DmaEngine.dma_write",
           pre=lambda a: a[1]),
    Target("hardware.ssd", "repro.hardware.ssd:NvmeDevice.read",
           pre=lambda a: a[0].queue_depth + 1),
    Target("hardware.ssd", "repro.hardware.ssd:NvmeDevice.write",
           pre=lambda a: a[0].queue_depth + 1),
    Target("net.stack", "repro.net.stack:StackLayer.process"),
    Target("core.traffic_director",
           "repro.core.traffic_director:TrafficDirector.receive_message"),
    Target("core.offload_engine", "repro.core.offload_engine:OffloadEngine.handle",
           pre=lambda a: a[0]),
    Target("core.file_service",
           "repro.core.file_service:DpuFileService.execute_offloaded"),
    Target("core.dma_ring", "repro.core.dma_ring:DmaRingChannel.try_insert",
           post=lambda a, r: r),
    Target("core.dma_ring", "repro.core.dma_ring:DmaRingChannel.fetch_batch",
           post=lambda a, r: len(r)),
    Target("core.file_library", "repro.core.file_library:DdsFileLibrary.read_file"),
    Target("core.file_library", "repro.core.file_library:DdsFileLibrary.write_file"),
    Target("structures.cuckoo", "repro.structures.cuckoo:CuckooCacheTable.lookup",
           post=_lookup_hit),
    Target("structures.cuckoo", "repro.structures.cuckoo:CuckooCacheTable.insert"),
    Target("structures.cuckoo", "repro.structures.cuckoo:CuckooCacheTable.delete"),
    Target("structures.cuckoo",
           "repro.structures.cuckoo:CuckooCacheTable.__contains__"),
    Target("storage.filesystem", "repro.storage.filesystem:DdsFileSystem.read"),
    Target("storage.filesystem", "repro.storage.filesystem:DdsFileSystem.write"),
    Target("storage.filesystem", "repro.storage.disk:SpdkBdev.write",
           pre=lambda a: len(a[2])),
    Target("apps.faster", "repro.apps.faster:FasterKv.read"),
    Target("apps.faster", "repro.apps.faster:FasterKv.upsert"),
    Target("topology.sharding", "repro.topology.sharding:ShardedSteering.steer"),
    Target("topology.sharding",
           "repro.topology.sharding:ShardedSteering.steer_direct"),
    Target("topology.replication",
           "repro.topology.replication:ShardReplicator.replicate",
           post=lambda a, r: r),
    Target("topology.qos", "repro.topology.qos:TenantQosGate.intake",
           post=lambda a, r: a[0].backlog),
    Target("topology.stages",
           "repro.topology.sharding:ShardedOffloadServer.pushdown_scan",
           post=_scan_outcome),
    Target("topology.stages", "repro.topology.stages:PushdownExecution.scan"),
    Target("pushdown.verifier", "repro.pushdown.verifier:verify"),
    Target("workload", "workloads:KvDeployment.make_op"),
    Target("workload", "workloads:HostRwDeployment.make_op"),
    Target("workload", "workloads:_EngineObserver.on_issue"),
    Target("workload", "repro.workload.engine:OpenLoopTrafficEngine._make_request"),
)


class Span:
    """One wrapped call, in sim time and host time."""

    __slots__ = (
        "layer", "call", "start", "end", "host_ns", "child_ns",
        "parent", "request", "pre", "post",
    )

    def __init__(self, layer, call, parent, request, pre) -> None:
        self.layer = layer
        self.call = call
        self.parent = parent
        self.request = request
        self.pre = pre
        self.post = None
        self.start = self.end = 0.0
        self.host_ns = self.child_ns = 0

    @property
    def sim(self) -> float:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.host_ns - self.child_ns


def _request_id(args) -> Optional[int]:
    for arg in args:
        if type(arg) is IoRequest:
            return arg.request_id
        if type(arg) in (list, tuple) and arg and type(arg[0]) is IoRequest:
            return arg[0].request_id
    return None


class Tracer:
    """Installs the wrappers and holds the spans of the active phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.env = None
        self._stack: List[Span] = []
        self._saved: List[tuple] = []

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        for target in TARGETS:
            module_name, attr_path = target.path.split(":")
            owner: Any = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if owners else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(target, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        layer, call, pre, post = target.layer, target.call, target.pre, target.post

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if tracer.env is None:
                    return gen
                span = tracer._open(layer, call, args, pre)
                driven = tracer._drive(gen, span, args, post)
                driven.__name__ = gen.__name__
                driven.__qualname__ = gen.__qualname__
                return driven

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.env is None:
                return fn(*args, **kwargs)
            span = tracer._open(layer, call, args, pre)
            stack = tracer._stack
            span.start = tracer.env.now
            stack.append(span)
            begin = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, begin)
                span.end = tracer.env.now
            if post is not None:
                span.post = post(args, result)
            return result

        return wrapper

    # -- recording -----------------------------------------------------
    def _open(self, layer, call, args, pre) -> Span:
        stack = self._stack
        span = Span(
            layer,
            call,
            stack[-1] if stack else None,
            _request_id(args),
            pre(args) if pre is not None else None,
        )
        self.spans.append(span)
        return span

    def _close(self, span: Span, begin: int) -> None:
        elapsed = time.perf_counter_ns() - begin
        stack = self._stack
        stack.pop()
        span.host_ns += elapsed
        if stack:
            stack[-1].child_ns += elapsed

    def _drive(self, gen, span: Span, args, post):
        """Run ``gen`` as ``yield from`` would, timing each resumption."""
        stack = self._stack
        send: Any = None
        throw: Optional[BaseException] = None
        span.start = self.env.now
        while True:
            stack.append(span)
            begin = time.perf_counter_ns()
            try:
                if throw is None:
                    target = gen.send(send)
                else:
                    target = gen.throw(throw)
            except StopIteration as stop:
                self._close(span, begin)
                span.end = self.env.now
                if post is not None:
                    span.post = post(args, stop.value)
                return stop.value
            except BaseException:
                self._close(span, begin)
                span.end = self.env.now
                raise
            self._close(span, begin)
            try:
                send, throw = (yield target), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # an interrupt thrown into the process
                send, throw = None, exc

    def activate(self, env) -> None:
        """Record spans from now on, in ``env``'s sim time."""
        self.spans = []
        self.env = env

    def deactivate(self) -> None:
        self.env = None

    # -- output --------------------------------------------------------
    def idle_layers(self) -> List[str]:
        seen = {span.layer for span in self.spans}
        return sorted({t.layer for t in TARGETS} - seen)

    def write_tsv(self, path) -> None:
        """Every span, one line each, with its parent's line number."""
        index = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            out.write(
                "span\tlayer\tcall\tparent\trequest\tsim_start_us\t"
                "sim_end_us\thost_self_ns\n"
            )
            for number, span in enumerate(self.spans):
                parent = "" if span.parent is None else index[id(span.parent)]
                request = "" if span.request is None else span.request
                out.write(
                    f"{number}\t{span.layer}\t{span.call}\t{parent}\t{request}\t"
                    f"{span.start * 1e6:.4f}\t{span.end * 1e6:.4f}\t"
                    f"{span.self_ns}\n"
                )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _wait(span: float, service: float) -> float:
    """Queue wait: the span less its service time, rounding noise cut."""
    return max(0.0, span - service)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, deployment, phase, untraced) -> Dict[str, float]:
    """The per-layer metrics of one traced fixed-rate phase.

    Spans that start after the phase's last completion (the idle drain
    to the deadline) are left out.  ``untraced`` is the same phase run
    without wrappers; it supplies the host cost per engine event.
    """
    end = phase.start + phase.elapsed
    windowed = [span for span in tracer.spans if span.start <= end]
    calls: Dict[str, List[Span]] = {}
    for span in windowed:
        calls.setdefault(span.call, []).append(span)
    ops = max(1, phase.completed)
    us = 1e6

    def spans(*names: str) -> List[Span]:
        return [span for name in names for span in calls.get(name, [])]

    def per_req(*names: str) -> float:
        return len(spans(*names)) / ops

    def sim_percentile(q: float, *names: str) -> float:
        return percentile([span.sim for span in spans(*names)], q) * us

    reads = len(phase.latencies.get("read", []))
    writes = len(phase.latencies.get("write", []))
    m: Dict[str, float] = {}
    m["sim.events_per_req"] = phase.events / ops
    m["sim.host_ns_per_event"] = _ratio(untraced.host_s * 1e9, untraced.events)

    dpu = [s for s in spans("CpuCore.execute") if s.pre[1].speed < 1]
    busy: Dict[int, float] = {}
    for span in dpu:
        busy[id(span.pre[1])] = busy.get(id(span.pre[1]), 0.0) + span.pre[0]
    m["hardware.cpu.calls_per_req"] = per_req("CpuCore.execute", "CpuPool.execute")
    m["hardware.cpu.dpu_wait_us_p99"] = percentile([_wait(s.sim, s.pre[0]) for s in dpu], 99) * us
    m["hardware.cpu.dpu_busiest_frac"] = max(busy.values(), default=0.0) / phase.elapsed
    m["hardware.cpu.host_wait_us_p99"] = (
        percentile([_wait(s.sim, s.pre) for s in spans("CpuPool.execute")], 99) * us
    )

    nic = spans("NetworkLink.transmit")
    m["hardware.nic.transmits_per_req"] = len(nic) / ops
    m["hardware.nic.wait_us_p99"] = percentile([_wait(s.sim, s.pre) for s in nic], 99) * us

    dma = spans("DmaEngine.dma_read", "DmaEngine.dma_write")
    m["hardware.pcie.dma_ops_per_req"] = len(dma) / ops
    m["hardware.pcie.bytes_per_dma"] = _ratio(sum(s.pre for s in dma), len(dma))

    ssd = spans("NvmeDevice.read", "NvmeDevice.write")
    m["hardware.ssd.ops_per_req"] = len(ssd) / ops
    m["hardware.ssd.sim_us_p99"] = sim_percentile(99, "NvmeDevice.read", "NvmeDevice.write")
    m["hardware.ssd.depth_max"] = max((s.pre for s in ssd), default=0)

    m["net.stack.calls_per_req"] = per_req("StackLayer.process")
    m["net.stack.sim_us_p99"] = sim_percentile(99, "StackLayer.process")

    director = spans("TrafficDirector.receive_message")
    m["core.director.msgs"] = len(director)
    m["core.director.sim_us_p99"] = sim_percentile(99, "TrafficDirector.receive_message")
    m["core.director.host_us_per_msg"] = _ratio(
        sum(s.self_ns for s in director) / 1e3, len(director)
    )

    engines = {id(s.pre): s.pre for s in spans("OffloadEngine.handle")}.values()
    offloaded = sum(e.offloaded for e in engines)
    bounced = sum(
        e.bounced_ring_full + e.bounced_no_buffer + e.bounced_off_func
        for e in engines
    )
    m["core.offload.offloaded_frac"] = _ratio(offloaded, offloaded + bounced)
    m["core.offload.sim_us_p99"] = sim_percentile(99, "OffloadEngine.handle")

    m["core.file_service.execs_per_req"] = per_req("DpuFileService.execute_offloaded")
    m["core.file_service.sim_us_p99"] = sim_percentile(99, "DpuFileService.execute_offloaded")

    inserts = spans("DmaRingChannel.try_insert")
    fetches = spans("DmaRingChannel.fetch_batch")
    m["core.dma_ring.insert_fail_frac"] = _ratio(
        sum(1 for s in inserts if not s.post), len(inserts)
    )
    m["core.dma_ring.reqs_per_fetch"] = _ratio(sum(s.post for s in fetches), len(fetches))

    m["core.file_library.calls_per_req"] = per_req(
        "DdsFileLibrary.read_file", "DdsFileLibrary.write_file"
    )

    lookups = spans("CuckooCacheTable.lookup")
    m["structures.cuckoo.lookups_per_req"] = len(lookups) / ops
    m["structures.cuckoo.hit_frac"] = _ratio(sum(1 for s in lookups if s.post), len(lookups))
    m["structures.cuckoo.host_ns_per_lookup"] = _ratio(
        sum(s.self_ns for s in lookups), len(lookups)
    )

    m["storage.fs.ops_per_req"] = per_req("DdsFileSystem.read", "DdsFileSystem.write")
    m["storage.fs.sim_us_p99"] = sim_percentile(99, "DdsFileSystem.read", "DdsFileSystem.write")
    m["storage.write_amp"] = _ratio(
        sum(s.pre for s in spans("SpdkBdev.write")), writes * deployment.write_bytes
    )

    m["apps.faster.host_get_frac"] = _ratio(len(spans("FasterKv.read")), reads)
    m["apps.faster.sim_us_p99"] = sim_percentile(99, "FasterKv.read", "FasterKv.upsert")

    server = deployment.server
    loads = server.steering.request_loads if hasattr(server, "steering") else []
    m["topology.steer.shard_imbalance"] = _ratio(
        max(loads, default=0), _ratio(sum(loads), len(loads))
    )
    m["topology.steer.relay_frac"] = _ratio(
        sum(d.requests_relayed for d in getattr(server, "directors", [])), sum(loads)
    )

    replicated = spans("ShardReplicator.replicate")
    m["topology.replication.sim_us_p99"] = sim_percentile(99, "ShardReplicator.replicate")
    m["topology.replication.mirrored_frac"] = _ratio(
        sum(1 for s in replicated if s.post), writes
    )

    gate = getattr(server, "qos", None)
    intakes = spans("TenantQosGate.intake")
    queued = {s.request: s.start for s in intakes}
    sojourns = [
        s.start - queued[s.request]
        for s in spans("ShardedSteering.steer_direct")
        if s.request in queued
    ]
    m["topology.qos.admit_frac"] = (
        _ratio(gate.totals.admitted, gate.totals.submitted) if gate else 0.0
    )
    m["topology.qos.sim_us_p99"] = percentile(sojourns, 99) * us
    m["topology.qos.backlog_max"] = max((s.post for s in intakes), default=0)

    scans = [s.post for s in spans("ShardedOffloadServer.pushdown_scan")]
    m["topology.pushdown.offloaded_frac"] = _ratio(
        sum(1 for o in scans if o.offloaded), len(scans)
    )
    m["topology.pushdown.wire_bytes_per_row"] = _ratio(
        sum(o.wire_bytes for o in scans), sum(o.rows for o in scans)
    )
    m["topology.pushdown.sim_us_p50"] = sim_percentile(50, "ShardedOffloadServer.pushdown_scan")

    verified = spans("verify")
    m["pushdown.verify.host_us_per_call"] = _ratio(
        sum(s.self_ns for s in verified) / 1e3, len(verified)
    )

    generated = [s for s in windowed if s.layer == "workload"]
    m["workload.gen_host_us_per_req"] = sum(s.self_ns for s in generated) / 1e3 / ops
    m["workload.late_us_max"] = phase.late_max * us
    return m
