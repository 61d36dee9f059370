"""The solution registry: every deployment the harness can build.

This is the single source of truth for solution names.  Each entry is a
:class:`~repro.topology.spec.DeploymentSpec`; :func:`build_server` turns
a spec (or its registered name) into a fully wired server on a given
environment/link/filesystem.  The bench harness, the figure benchmarks,
and the examples all resolve names here — there is no string-dispatch
ladder anywhere else.

The ten ``headline`` entries are the solutions charted in Figure 16, in
chart order; the remaining entries are the ablations (zero-copy off) and
the multi-DPU sharded deployments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple, Union

from .spec import DeploymentSpec, FilesystemKind, TransportKind

if TYPE_CHECKING:
    from ..core.server import StorageServerBase
    from ..hardware.nic import NetworkLink
    from ..sim import Environment
    from ..storage.filesystem import DdsFileSystem

__all__ = ["SOLUTIONS", "headline_solutions", "resolve", "build_server"]


def _specs() -> Tuple[DeploymentSpec, ...]:
    tcp = TransportKind.TCP
    dds = FilesystemKind.DDS
    os_ = FilesystemKind.OS
    return (
        # -- the ten Figure 16 solutions, chart order ------------------
        DeploymentSpec(
            "local-os", "① Windows files on local SSDs",
            TransportKind.NONE, os_, headline=True,
        ),
        DeploymentSpec(
            "local-dds", "② DDS files on local SSDs (DPU execution)",
            TransportKind.NONE, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "smb", "③ SMB remote mount over TCP",
            TransportKind.SMB, os_, headline=True,
        ),
        DeploymentSpec(
            "smb-direct", "④ SMB Direct (SMB over RDMA)",
            TransportKind.SMB_DIRECT, os_, headline=True,
        ),
        DeploymentSpec(
            "baseline", "⑤ sockets TCP + Windows files",
            tcp, os_, headline=True,
        ),
        DeploymentSpec(
            "dds-files", "⑥ sockets TCP + DDS file library",
            tcp, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "redy-os", "⑦ Redy RPC + Windows files",
            TransportKind.REDY, os_, headline=True,
        ),
        DeploymentSpec(
            "redy-dds", "⑧ Redy RPC + DDS file library",
            TransportKind.REDY, dds, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "dds-offload", "⑨ DDS offloading over TCP",
            tcp, dds, offload=True, dpu_count=1, headline=True,
        ),
        DeploymentSpec(
            "dds-offload-rdma", "⑩ DDS offloading over RDMA",
            TransportKind.RDMA, dds, offload=True, dpu_count=1,
            headline=True,
        ),
        # -- ablations -------------------------------------------------
        DeploymentSpec(
            "dds-files-copy",
            "⑥ with zero-copy disabled (Figure 18 ablation)",
            tcp, dds, dpu_count=1, copy_mode=True,
        ),
        DeploymentSpec(
            "dds-offload-copy",
            "⑨ with zero-copy disabled (Figure 23 ablation)",
            tcp, dds, offload=True, dpu_count=1, copy_mode=True,
        ),
        # -- multi-DPU scale-out ---------------------------------------
        DeploymentSpec(
            "dds-offload-shard2",
            "⑨ sharded across 2 DPUs (consistent-hash shard map)",
            tcp, dds, offload=True, dpu_count=2,
        ),
        DeploymentSpec(
            "dds-offload-shard4",
            "⑨ sharded across 4 DPUs (consistent-hash shard map)",
            tcp, dds, offload=True, dpu_count=4,
        ),
    )


#: Name → spec, in documentation order.
SOLUTIONS: Dict[str, DeploymentSpec] = {
    spec.name: spec for spec in _specs()
}


def headline_solutions() -> Tuple[str, ...]:
    """The ten Figure 16 solution names, in chart order."""
    return tuple(
        name for name, spec in SOLUTIONS.items() if spec.headline
    )


def resolve(solution: Union[str, DeploymentSpec]) -> DeploymentSpec:
    """Look a solution up by name (specs pass through unchanged)."""
    if isinstance(solution, DeploymentSpec):
        return solution
    spec = SOLUTIONS.get(solution)
    if spec is None:
        raise ValueError(f"unknown solution: {solution!r}")
    return spec


def build_server(
    solution: Union[str, DeploymentSpec],
    env: "Environment",
    link: "NetworkLink",
    filesystem: "DdsFileSystem",
) -> "StorageServerBase":
    """Wire the server a spec describes.

    Dispatch is on the spec's typed fields, so registering a new solution
    is *only* adding a :class:`DeploymentSpec` — no builder edits — as
    long as it composes the existing stages.
    """
    spec = resolve(solution)
    if spec.transport is TransportKind.NONE:
        from ..baselines.local import LocalDdsServer, LocalOsServer

        if spec.filesystem is FilesystemKind.DDS:
            return LocalDdsServer(env, link, filesystem)
        return LocalOsServer(env, link, filesystem)
    if spec.transport in (TransportKind.SMB, TransportKind.SMB_DIRECT):
        from ..baselines.smb import SmbServer

        return SmbServer(
            env, link, filesystem,
            direct=spec.transport is TransportKind.SMB_DIRECT,
        )
    if spec.transport is TransportKind.REDY:
        from ..baselines.redy import RedyServer

        return RedyServer(
            env, link, filesystem,
            dds_files=spec.filesystem is FilesystemKind.DDS,
        )
    rdma = spec.transport is TransportKind.RDMA
    if spec.offload:
        from .sharding import ShardedOffloadServer

        return ShardedOffloadServer(
            env, link, filesystem,
            shard_count=spec.dpu_count,
            cache_items=spec.cache_items,
            director_cores=spec.director_cores,
            context_slots=spec.context_slots,
            copy_mode=spec.copy_mode,
            rdma_transport=rdma,
        )
    if spec.filesystem is FilesystemKind.DDS:
        from ..core.server import DdsLibraryServer

        return DdsLibraryServer(env, link, filesystem, copy_mode=spec.copy_mode)
    from ..core.server import BaselineServer

    return BaselineServer(env, link, filesystem)
