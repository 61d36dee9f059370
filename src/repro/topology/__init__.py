"""Composable datapath stages + declarative deployment topology.

``stages`` are the reusable datapath pieces (ingest / transport /
steering / execution / completion); ``spec`` declares what a deployment
is; ``registry`` maps every solution name to a spec and builds servers
from them; ``sharding`` is the offload deployment, one shard per DPU
(a single DPU is one shard).
"""

from .spec import DeploymentSpec, FilesystemKind, TransportKind
from .stages import (
    DdsBackend,
    DdsHostSide,
    OsFileExecution,
    Stage,
    StageKind,
    TransportStage,
    WireEgress,
    WireIngress,
)

# registry/sharding pull in the concrete servers, which themselves build
# on the stages above — load them lazily to keep imports acyclic.
_LAZY = {
    "SOLUTIONS": "registry",
    "build_server": "registry",
    "headline_solutions": "registry",
    "resolve": "registry",
    "ConsistentHashShardMap": "sharding",
    "OffloadShard": "sharding",
    "ShardedOffloadServer": "sharding",
    "ShardedSteering": "sharding",
    "flow_shard": "sharding",
    "mirror_filesystem": "sharding",
    "CommitRecord": "replication",
    "ReplicaGroup": "replication",
    "ShardReplicator": "replication",
    "WriteRecord": "replication",
    "FileMove": "resharding",
    "ReshardingCoordinator": "resharding",
    "ShardAutoscaler": "resharding",
}

__all__ = [
    "CommitRecord",
    "ConsistentHashShardMap",
    "DdsBackend",
    "DdsHostSide",
    "DeploymentSpec",
    "FileMove",
    "FilesystemKind",
    "OffloadShard",
    "ReshardingCoordinator",
    "ShardAutoscaler",
    "OsFileExecution",
    "ReplicaGroup",
    "SOLUTIONS",
    "ShardReplicator",
    "ShardedOffloadServer",
    "ShardedSteering",
    "Stage",
    "StageKind",
    "TransportKind",
    "TransportStage",
    "WireEgress",
    "WireIngress",
    "WriteRecord",
    "build_server",
    "flow_shard",
    "headline_solutions",
    "mirror_filesystem",
    "resolve",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
