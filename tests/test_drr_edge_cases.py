"""DRR on the tenant QoS gate: dispatch order, deficit banking,
sub-quantum progress, late joiners.

These pin down the scheduler behaviours that only matter at the
margins — exactly the ones a refactor silently breaks.  The gate is
driven directly with a synthetic service that serves one request at a
time and records the dispatch order; nothing is shed unless a test
sets a sojourn target.
"""

from itertools import count

import pytest

from repro.core.messages import REQUEST_HEADER, IoRequest, IoResponse, OpCode
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.topology.qos import QosConfig, TenantQosGate


REQUEST = 4096


class Harness:
    """A gate classifying each flow by its client address (the tenant
    name), with a service that logs ``(tenant, cost)`` per dispatch."""

    def __init__(
        self,
        env,
        quantum=8192,
        weights=None,
        service_time=10e-6,
        one_tenant=False,
        sojourn_target=None,
    ):
        self.env = env
        self.order = []
        self._ids = count(1)
        config = QosConfig(
            quantum_bytes=quantum,
            queue_capacity=4096,
            max_inflight=1,
            sojourn_target=sojourn_target,
            weights=weights or {},
            tenant_of=(
                (lambda _flow: "all")
                if one_tenant
                else (lambda flow: flow.client_ip)
            ),
        )

        def service(flow, requests, respond):
            cost = sum(r.wire_size for r in requests)
            self.order.append((flow.client_ip, cost))
            yield env.timeout(service_time)
            for request in requests:
                respond(IoResponse(request.request_id, ok=True))

        self.gate = TenantQosGate(env, config, service)

    def submit(self, tenant, cost_bytes):
        """Send one request costing ``cost_bytes`` on the wire; the
        returned event fires when its response arrives."""
        done = self.env.event()
        size = cost_bytes - REQUEST_HEADER.size
        request = IoRequest(
            OpCode.WRITE, next(self._ids), 1, 0, size, bytes(size)
        )
        self.gate.intake(
            FiveTuple(tenant, 40000, "10.0.0.1", 5000),
            [request],
            lambda _response: done.succeed(),
        )
        return done

    def deficit(self, tenant):
        return self.gate._states[tenant].deficit

    def stats(self, tenant):
        return self.gate.stats_for(tenant)

    @property
    def tenants_in_order(self):
        return [tenant for tenant, _cost in self.order]


class TestDispatchOrder:
    def test_fifo_is_arrival_ordered(self):
        env = Environment()
        drr = Harness(env, service_time=1e-6, one_tenant=True)
        for tenant in ("a", "a", "b", "a"):
            drr.submit(tenant, 100)
        env.run(until=1e-3)
        assert drr.tenants_in_order == ["a", "a", "b", "a"]

    def test_drr_interleaves_under_backlog(self):
        env = Environment()
        drr = Harness(env, quantum=100, service_time=1e-6)
        for _ in range(10):
            drr.submit("a", 100)
        for _ in range(10):
            drr.submit("b", 100)
        env.run(until=1e-3)
        # Equal quanta and equal costs: strict alternation per round.
        assert drr.tenants_in_order[:6] == ["a", "b", "a", "b", "a", "b"]

    def test_weights_shift_the_share(self):
        env = Environment()
        drr = Harness(env, quantum=100, weights={"a": 3.0}, service_time=1e-6)
        for _ in range(30):
            drr.submit("a", 100)
            drr.submit("b", 100)
        env.run(until=1e-3)
        first_12 = drr.tenants_in_order[:12]
        assert first_12.count("a") == 3 * first_12.count("b")

    def test_byte_costs_bound_each_round(self):
        env = Environment()
        drr = Harness(env, quantum=1000, service_time=1e-6)
        for _ in range(4):
            drr.submit("big", 1000)
        for _ in range(8):
            drr.submit("small", 500)
        env.run(until=1e-3)
        # Per round: one big (1000B) vs two small (2x500B) — byte-fair.
        assert drr.order[:3] == [
            ("big", 1000), ("small", 500), ("small", 500)
        ]

    def test_grant_event_fires_at_dispatch(self):
        env = Environment()
        drr = Harness(env, service_time=5e-6)
        fired = []

        def client():
            yield drr.submit("a", 100)
            fired.append(env.now)

        env.process(client())
        env.run(until=1e-3)
        # Dispatched at once (idle gate), answered one service later.
        assert fired == [pytest.approx(5e-6)]


class TestDeficitBanking:
    def test_idle_tenant_forfeits_deficit(self):
        """A tenant with no backlog must not bank quanta: when it
        returns after idling, it competes from zero credit."""
        env = Environment()
        drr = Harness(env)

        def load():
            # The idler is seen once, then sleeps while the worker
            # churns for many rounds.
            drr.submit("idler", REQUEST)
            for _ in range(50):
                drr.submit("worker", REQUEST)
            yield env.timeout(2e-3)
            # Were deficits banked while idle, the idler would now hold
            # ~dozens of quanta of credit.
            assert drr.deficit("idler") == 0.0
            drr.submit("idler", REQUEST)

        env.process(load())
        env.run(until=env.timeout(5e-3))
        assert drr.deficit("idler") <= drr.gate.config.quantum_bytes
        assert drr.stats("idler").dispatched == 2

    def test_emptied_queue_resets_running_deficit(self):
        env = Environment()
        drr = Harness(env)
        for _ in range(3):
            drr.submit("a", REQUEST)
        env.run(until=env.timeout(2e-3))
        assert drr.stats("a").dispatched == 3
        # Leftover credit from the final round was forfeited with the
        # backlog.
        assert drr.deficit("a") == 0.0

    def test_deadline_shed_emptying_a_queue_forfeits_deficit(self):
        """A queue emptied by a deadline shed, not a dispatch, must not
        keep the quantum it was granted for that turn either."""
        env = Environment()
        drr = Harness(env, service_time=1e-3, sojourn_target=0.5e-3)
        drr.submit("w", REQUEST)  # takes the one dispatch slot
        drr.submit("x", REQUEST)  # ages past the target behind it
        env.run(until=env.timeout(5e-3))
        assert drr.stats("x").shed_deadline == 1
        assert drr.deficit("x") == 0.0


class TestSubQuantumProgress:
    def test_oversized_request_accumulates_credit(self):
        """A request costing several quanta must still dispatch — the
        deficit accumulates across rounds rather than livelocking."""
        env = Environment()
        drr = Harness(env, quantum=1024)
        drr.submit("big", 5 * 1024)  # five rounds of credit needed
        for _ in range(10):
            drr.submit("small", 512)
        env.run(until=env.timeout(5e-3))
        assert drr.stats("big").dispatched == 1
        assert drr.stats("small").dispatched == 10

    def test_small_requests_progress_alongside_giant(self):
        """While the giant accumulates credit, small tenants keep
        dispatching every round (no head-of-line across tenants)."""
        env = Environment()
        drr = Harness(env, quantum=1024)
        drr.submit("big", 20 * 1024)
        grant = drr.submit("small", 256)
        env.run(until=env.timeout(1e-3))
        assert grant.triggered  # small went first, long before
        assert drr.stats("small").dispatched == 1
        assert drr.tenants_in_order[0] == "small"


class TestLiveRoster:
    def test_added_tenant_starts_with_zero_deficit(self):
        env = Environment()
        drr = Harness(env)
        for _ in range(20):
            drr.submit("a", REQUEST)
        env.run(until=env.timeout(0.5e-3))
        # "b" first arrives mid-run: no credit for time before it
        # existed.
        drr.submit("b", REQUEST)
        assert drr.deficit("b") == 0.0
        for _ in range(19):
            drr.submit("b", REQUEST)
        env.run(until=env.timeout(5e-3))
        assert drr.stats("b").dispatched == 20

    def test_add_remove_byte_fairness(self):
        """Equal-weight tenants dispatch ~equal bytes over the window
        in which both are present, including one added mid-run."""
        env = Environment()
        drr = Harness(env)

        def feed(tenant, start=0.0):
            def proc():
                yield env.timeout(start)
                while env.now < 8e-3:
                    drr.submit(tenant, REQUEST)
                    yield env.timeout(5e-6)

            env.process(proc())

        feed("a")
        feed("b")
        feed("c", start=2e-3)  # first arrival a quarter of the way in
        env.run(until=env.timeout(8e-3))
        a, b, c = (drr.stats(t).bytes_dispatched for t in "abc")
        assert a == pytest.approx(b, rel=0.15)
        # c joined a quarter of the way in: it gets an equal share of
        # the remaining window, so ~3/4 of the incumbents' bytes.
        assert c == pytest.approx(0.75 * a, rel=0.25)
