"""Two program defects that the kv-offload output check finds.

Both are in the FASTER-over-DDS integration, and the benchmark's
``kv-offload`` workload hits each of them on some seeds.

First, FASTER's cache-on-write hook caches ``key -> disk location``
for every record in a flushed log page, including records that a later
upsert has already superseded. Take a key whose record is still in memory when it
is upserted: the upsert appends a new version at the tail and drops
the key's cache entry. When the page that holds the *old* version
flushes, cache-on-write caches the key again at the old location, and
offloaded GETs return the old value until the tail page flushes too.

Second, the DPU file service runs cache-on-write when a flush write
starts, before the page is on disk, so a GET offloaded in between reads
past the end of the log and gets an error.

Each test reproduces one defect through the public API and is expected
to fail until the integration is fixed; it then passes, and its strict
``xfail`` marker must go.
"""

import itertools

import pytest

from repro.apps import build_kv_cluster
from repro.apps.faster import RECORD
from repro.core import IoRequest, OpCode
from workloads import FLOWS


def roundtrip(cluster, request):
    responses = []
    done = cluster.server.submit(FLOWS[0], [request], responses.append)
    cluster.env.run(until=done)
    return responses[0]


def put(cluster, request_id, key, value):
    return roundtrip(cluster, IoRequest(
        OpCode.WRITE, request_id, cluster.kv_file_id, 0, 8,
        value.to_bytes(8, "little"), tag=key,
    ))


def get(cluster, request_id, key):
    return roundtrip(cluster, IoRequest(
        OpCode.READ, request_id, cluster.kv_file_id, 0, RECORD.size, tag=key,
    ))


@pytest.mark.xfail(strict=True, reason="cache-on-write re-caches superseded records")
def test_flushing_an_old_version_does_not_undo_an_upsert():
    cluster = build_kv_cluster("dds", records=50_000, memory_budget=64 << 10)
    kv = cluster.kv
    key = min(
        (k for k, address in kv.index.items() if address >= kv.head_address),
        key=kv.index.get,
    )
    old_address = kv.index[key]
    ids, fresh_keys = itertools.count(1), itertools.count(1_000_000)
    while kv.read_only_address <= old_address:  # so the upsert appends
        assert put(cluster, next(ids), next(fresh_keys), 1).ok
    assert kv.head_address <= old_address
    assert put(cluster, next(ids), key, 777).ok
    assert kv.index[key] > old_address
    while kv.head_address <= old_address:  # flush the old version's page
        assert put(cluster, next(ids), next(fresh_keys), 1).ok
    assert kv.index[key] >= kv.head_address  # the new version is in memory
    response = get(cluster, next(ids), key)
    assert RECORD.unpack(response.data) == (key, 777)


@pytest.mark.xfail(strict=True, reason="cache-on-write publishes before the write lands")
def test_get_during_a_page_flush_succeeds():
    """The file service runs cache-on-write when a flush write starts,
    before the page is on disk: a GET offloaded in between reads past
    the end of the log and fails."""
    cluster = build_kv_cluster("dds", records=50_000, memory_budget=64 << 10)
    kv, env = cluster.kv, cluster.env
    table = cluster.server.cache_table
    key = min(
        (k for k, address in kv.index.items() if address >= kv.head_address),
        key=kv.index.get,
    )
    ids, fresh_keys = itertools.count(1), itertools.count(1_000_000)
    while key not in table:
        request = IoRequest(
            OpCode.WRITE, next(ids), cluster.kv_file_id, 0, 8,
            (1).to_bytes(8, "little"), tag=next(fresh_keys),
        )
        done = cluster.server.submit(FLOWS[0], [request])
        while not done.triggered and key not in table:
            env.step()
    assert not done.triggered  # the flush that cached the key is in flight
    response = get(cluster, next(ids), key)
    assert response.ok
    assert RECORD.unpack(response.data) == (key, key)
