"""Tests for the DPU read cache and the §10 tenant-isolation experiment."""

import pytest

from repro.core.api import ReadOp
from repro.extensions import (
    DpuReadCache,
    run_dpu_cache_experiment,
    run_multitenant_experiment,
)
from repro.hardware import CpuCore
from repro.sim import Environment


def run(env, generator):
    proc = env.process(generator)
    env.run(until=proc)
    return proc.value


class TestDpuReadCache:
    def make(self, capacity=1 << 16):
        env = Environment()
        core = CpuCore(env, speed=0.35)
        return env, DpuReadCache(env, core, capacity)

    def test_miss_then_hit(self):
        env, cache = self.make()
        op = ReadOp(1, 0, 4096)
        assert run(env, cache.lookup(op)) is None
        cache.fill(op, b"x" * 4096)
        assert run(env, cache.lookup(op)) == b"x" * 4096
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_capacity_enforced_with_lru_eviction(self):
        env, cache = self.make(capacity=8192)
        a, b, c = (ReadOp(1, i * 4096, 4096) for i in range(3))
        cache.fill(a, b"a" * 4096)
        cache.fill(b, b"b" * 4096)
        run(env, cache.lookup(a))  # a is now most-recently used
        cache.fill(c, b"c" * 4096)  # evicts b (LRU)
        assert cache.bytes_cached == 8192
        assert cache.evictions == 1
        assert run(env, cache.lookup(b)) is None
        assert run(env, cache.lookup(a)) is not None

    def test_oversized_extent_never_cached(self):
        env, cache = self.make(capacity=1024)
        op = ReadOp(1, 0, 4096)
        cache.fill(op, b"x" * 4096)
        assert cache.bytes_cached == 0

    def test_invalidate_range_drops_overlaps(self):
        env, cache = self.make(capacity=1 << 20)
        for i in range(4):
            cache.fill(ReadOp(1, i * 4096, 4096), bytes(4096))
        cache.fill(ReadOp(2, 0, 4096), bytes(4096))  # other file
        dropped = cache.invalidate_range(1, 4096, 8192)  # extents 1, 2
        assert dropped == 2
        assert cache.invalidations == 2
        assert run(env, cache.lookup(ReadOp(1, 4096, 4096))) is None
        assert run(env, cache.lookup(ReadOp(1, 0, 4096))) is not None
        assert run(env, cache.lookup(ReadOp(2, 0, 4096))) is not None

    def test_partial_overlap_invalidated(self):
        env, cache = self.make(capacity=1 << 20)
        cache.fill(ReadOp(1, 0, 4096), bytes(4096))
        assert cache.invalidate_range(1, 4000, 10) == 1

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            DpuReadCache(env, CpuCore(env), 0)

    def test_experiment_shapes(self):
        stock = run_dpu_cache_experiment(0, reads=1440)
        cached = run_dpu_cache_experiment(1 << 20, reads=1440)
        # The cache absorbs most of the skewed traffic: fewer SSD reads,
        # more throughput, lower latency.
        assert cached.hit_rate > 0.5
        assert cached.ssd_reads < 0.6 * stock.ssd_reads
        assert cached.throughput > 1.5 * stock.throughput
        assert cached.mean_latency < stock.mean_latency


def test_fairness_experiment_shapes():
    fifo = run_multitenant_experiment("fifo", duration=0.02,
                                      heavy_burst=800)
    drr = run_multitenant_experiment("drr", duration=0.02,
                                     heavy_burst=800)
    # FIFO: the light tenant's worst request waits out the burst.
    assert fifo.light_max_latency > 4e-3
    # DRR: bounded by one round, orders of magnitude better.
    assert drr.light_max_latency < fifo.light_max_latency / 20
    # Isolation costs the heavy tenant essentially nothing.
    assert drr.heavy_throughput > 0.9 * fifo.heavy_throughput


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        run_multitenant_experiment("priority")
