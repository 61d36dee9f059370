"""Experiment harness: build a cluster, drive a workload, measure.

One entry point, :func:`run_io_experiment`, serves every throughput /
latency / CPU figure (14, 15, 16, 23, 24): it assembles the simulated
cluster for a named solution, runs the §8.1 random-I/O client against
it, and reports achieved IOPS, latency percentiles, and cores consumed
on host, DPU, and client.

Solution names live in :data:`repro.topology.registry.SOLUTIONS` — the
single source of truth: each name maps to a declarative
:class:`~repro.topology.spec.DeploymentSpec`, and the registry builds
the wired server from the spec.  :data:`SOLUTIONS` here is the ten
headline names charted in Figure 16, in chart order; the registry also
carries the ablations (``dds-files-copy``, ``dds-offload-copy``) and
the multi-DPU sharded deployments (``dds-offload-shard2`` / ``-shard4``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..core.client import ClientConfig, ClientResult, WorkloadClient
from ..core.server import StorageServerBase
from ..hardware.nic import NetworkLink
from ..sim import Environment
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem
from ..topology.registry import build_server, headline_solutions, resolve
from ..topology.sharding import ShardedOffloadServer
from ..topology.spec import DeploymentSpec

__all__ = [
    "SOLUTIONS",
    "ExperimentResult",
    "build_cluster",
    "build_sharded_cluster",
    "run_io_experiment",
    "sweep",
    "find_peak",
]

#: The ten Figure 16 solutions, chart order (from the registry).
SOLUTIONS = headline_solutions()

Solution = Union[str, DeploymentSpec]


@dataclass
class ExperimentResult:
    """Everything one experiment point reports."""

    kind: str
    offered_iops: float
    achieved_iops: float
    elapsed: float
    p50: float
    p99: float
    mean_latency: float
    host_cores: float
    dpu_cores: float
    client_cores: float
    latencies: List[float] = field(repr=False, default_factory=list)
    #: Engine occurrences scheduled during this experiment (the
    #: numerator of the perf trajectory's events/sec; see
    #: :mod:`repro.bench.trajectory`).
    events: int = 0

    @property
    def total_cores(self) -> float:
        """Client + server host cores (Figure 16b's metric)."""
        return self.host_cores + self.client_cores


@dataclass
class Cluster:
    """A freshly-built simulated cluster ready for a workload."""

    env: Environment
    server: StorageServerBase
    filesystem: DdsFileSystem
    file_id: int


def build_cluster(
    kind: Solution,
    db_bytes: int = 192 << 20,
    disk_bytes: Optional[int] = None,
) -> Cluster:
    """Assemble disk, filesystem, link, and server for one solution.

    ``kind`` is a registered solution name or a
    :class:`~repro.topology.spec.DeploymentSpec` directly.  The benchmark
    database is ``db_bytes`` of preallocated file (the paper uses a
    128 GB database; we scale it down — random cold reads behave
    identically since nothing is cached anywhere).
    """
    spec = resolve(kind)
    env = Environment()
    disk = RamDisk(disk_bytes if disk_bytes else db_bytes + (64 << 20))
    fs = DdsFileSystem(env, SpdkBdev(env, disk))
    fs.create_directory("bench")
    file_id = fs.create_file("bench", "database")
    fs.preallocate(file_id, db_bytes)
    link = NetworkLink(env)
    server = build_server(spec, env, link, fs)
    return Cluster(env=env, server=server, filesystem=fs, file_id=file_id)


def build_sharded_cluster(
    env: Environment, shard_count: int, files: int, file_bytes: int
) -> Tuple[ShardedOffloadServer, List[int]]:
    """A ``shard_count``-shard offload server over ``files`` preallocated
    files of ``file_bytes`` each (one RamDisk-backed DDS filesystem).

    Returns ``(server, file_ids)``.
    """
    disk = RamDisk(files * file_bytes + (64 << 20))
    fs = DdsFileSystem(env, SpdkBdev(env, disk))
    fs.create_directory("bench")
    file_ids = []
    for index in range(files):
        file_id = fs.create_file("bench", f"file-{index}")
        fs.preallocate(file_id, file_bytes)
        file_ids.append(file_id)
    server = ShardedOffloadServer(
        env, NetworkLink(env), fs, shard_count=shard_count
    )
    return server, file_ids


def run_io_experiment(
    kind: Solution,
    offered_iops: float,
    total_requests: int = 15_000,
    io_size: int = 1024,
    read_fraction: float = 1.0,
    batch: int = 4,
    max_outstanding: int = 128,
    db_bytes: int = 192 << 20,
    seed: int = 42,
) -> ExperimentResult:
    """Run the §8.1 random-I/O workload against one solution."""
    cluster = build_cluster(kind, db_bytes=db_bytes)
    config = ClientConfig(
        offered_iops=offered_iops,
        total_requests=total_requests,
        io_size=io_size,
        read_fraction=read_fraction,
        batch=batch,
        max_outstanding=max_outstanding,
        file_size=db_bytes,
        seed=seed,
    )
    client = WorkloadClient(cluster.env, cluster.server, cluster.file_id, config)
    result: ClientResult = client.run()
    server = cluster.server
    client_cores = result.client_cores
    extra = getattr(server, "client_extra_cores", None)
    if extra is not None:
        client_cores += extra()
    return ExperimentResult(
        kind=resolve(kind).name,
        offered_iops=offered_iops,
        achieved_iops=result.achieved_iops,
        elapsed=result.elapsed,
        p50=result.p50,
        p99=result.p99,
        mean_latency=result.mean_latency,
        host_cores=server.host_cores(result.elapsed),
        dpu_cores=server.dpu_cores(result.elapsed),
        client_cores=client_cores,
        latencies=result.latencies,
        events=cluster.env.scheduled_count,
    )


def sweep(
    kind: Solution,
    offered_points: List[float],
    **kwargs,
) -> List[ExperimentResult]:
    """Run one experiment per offered-load point."""
    return [
        run_io_experiment(kind, offered, **kwargs)
        for offered in offered_points
    ]


def find_peak(
    kind: Solution,
    start_iops: float = 200_000.0,
    factor: float = 1.6,
    tolerance: float = 0.05,
    max_rounds: int = 8,
    on_result=None,
    **kwargs,
) -> ExperimentResult:
    """Increase offered load until achieved throughput stops growing.

    Returns the measurement at the peak (Figure 16 reports peak
    throughput and the CPU/latency observed there).  ``on_result`` (if
    given) observes every intermediate measurement — the trajectory
    harness uses it to total event counts across the whole search.
    """
    best: Optional[ExperimentResult] = None
    offered = start_iops
    for _ in range(max_rounds):
        result = run_io_experiment(kind, offered, **kwargs)
        if on_result is not None:
            on_result(result)
        if best is not None and result.achieved_iops < best.achieved_iops * (
            1 + tolerance
        ):
            if result.achieved_iops > best.achieved_iops:
                best = result
            break
        best = result
        offered *= factor
    return best
