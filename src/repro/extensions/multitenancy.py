"""Multi-tenant isolation on the traffic director (a §10 extension).

Gimbal [52] shows that SmartNIC-attached storage needs fairness
machinery when tenants share the device; the paper cites it as the way
to "extend DDS to better support multi-tenancy" (§10).  The mechanism
is the datapath's own deficit-round-robin (DRR) ingress gate,
:class:`~repro.topology.qos.TenantQosGate`: each tenant's requests
queue separately and dispatch in byte-weighted rounds, so an aggressive
tenant cannot starve a light one of device time.

The experiment here contrasts that gate with the unscheduled FIFO that
stock DDS effectively has — the same gate with every flow classified
into one tenant, since DRR over a single queue is FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, Generator, List

from ..core.messages import REQUEST_HEADER, IoRequest, IoResponse, OpCode
from ..net.packet import FiveTuple
from ..sim import Environment, Event, SeededRng

__all__ = [
    "FairnessResult",
    "run_multitenant_experiment",
]


@dataclass
class FairnessResult:
    """Outcome of the two-tenant contention experiment.

    The decisive number is the light tenant's *worst* latency: under
    FIFO its first request during the burst waits for the whole burst
    (head-of-line blocking); under DRR it is dispatched within one
    round regardless of the heavy backlog.
    """

    scheduler: str
    light_mean_latency: float
    light_max_latency: float
    heavy_mean_latency: float
    light_throughput: float
    heavy_throughput: float


def run_multitenant_experiment(
    scheduler: str,
    duration: float = 0.05,
    light_rate: float = 5_000.0,
    heavy_burst: int = 2_000,
    request_bytes: int = 4096,
    service_time: float = 10e-6,
    seed: int = 71,
) -> FairnessResult:
    """A light interactive tenant vs. a heavy bursty tenant.

    The heavy tenant dumps a deep burst at t=0; the light tenant issues
    a steady trickle.  ``scheduler`` is ``"fifo"`` (stock: the burst
    queues ahead of everything) or ``"drr"`` (isolation).  Both run on
    one :class:`~repro.topology.qos.TenantQosGate` serving a request at
    a time and shedding nothing; each request costs ``request_bytes``
    on the wire.
    """
    if scheduler not in ("fifo", "drr"):
        raise ValueError(f"unknown scheduler: {scheduler!r}")
    # Imported here: topology pulls in pushdown, which imports this
    # package.
    from ..topology.qos import QosConfig, TenantQosGate

    env = Environment()
    rng = SeededRng(seed)
    flows = {
        "light": FiveTuple("10.0.0.2", 40001, "10.0.0.1", 5000),
        "heavy": FiveTuple("10.0.0.3", 40002, "10.0.0.1", 5000),
    }
    config = QosConfig(
        queue_capacity=max(1, heavy_burst),
        max_inflight=1,
        sojourn_target=None,
    )
    if scheduler == "fifo":
        # One tenant for every flow: DRR over a single queue is FIFO.
        config.tenant_of = lambda _flow: "all"

    def service(_flow, requests, respond) -> Generator:
        yield env.timeout(service_time)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    gate = TenantQosGate(env, config, service)
    payload = bytes(request_bytes - REQUEST_HEADER.size)
    request_ids = count(1)
    latencies: Dict[str, List[float]] = {"light": [], "heavy": []}

    def submit(tenant: str) -> Event:
        """Send one request; the event fires when its answer arrives."""
        done = env.event()
        submitted = env.now

        def respond(_response: IoResponse) -> None:
            latencies[tenant].append(env.now - submitted)
            done.succeed()

        request = IoRequest(
            OpCode.WRITE, next(request_ids), 0, 0, len(payload), payload
        )
        gate.intake(flows[tenant], [request], respond)
        return done

    def light() -> Generator:
        while env.now < duration:
            yield env.timeout(rng.exponential(1 / light_rate))
            yield submit("light")

    for _ in range(heavy_burst):
        submit("heavy")
    env.process(light())
    env.run(until=duration)
    light_lat, heavy_lat = latencies["light"], latencies["heavy"]
    return FairnessResult(
        scheduler=scheduler,
        light_mean_latency=_mean(light_lat),
        light_max_latency=max(light_lat, default=0.0),
        heavy_mean_latency=_mean(heavy_lat),
        light_throughput=len(light_lat) / duration,
        heavy_throughput=len(heavy_lat) / duration,
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
