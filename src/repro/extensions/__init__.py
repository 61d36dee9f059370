"""Future-work extensions the paper sketches in §11, implemented.

Hardware-accelerator models (compression, regex) with real data
transforms and compressed page serving on the DPU, a DPU-memory read
cache, and the §10 tenant-isolation experiment (run on the datapath's
:class:`~repro.topology.qos.TenantQosGate`).  String-operator pushdown
using the regex engine lives in :mod:`repro.pushdown.scan`.
"""

from .accelerators import (
    ARM_SOFTWARE_COMPRESSION,
    ARM_SOFTWARE_REGEX,
    BF2_COMPRESSION,
    BF2_REGEX,
    AcceleratorSpec,
    HardwareAccelerator,
    compile_pattern,
    compress_page,
    decompress_page,
    regex_scan,
)
from .dpu_cache import (
    CachedReadResult,
    DpuReadCache,
    run_dpu_cache_experiment,
)
from .multitenancy import FairnessResult, run_multitenant_experiment
from .compressed_storage import (
    CompressedPageStore,
    CompressedReadResult,
    run_compressed_read_experiment,
)

__all__ = [
    "ARM_SOFTWARE_COMPRESSION",
    "CachedReadResult",
    "DpuReadCache",
    "FairnessResult",
    "run_dpu_cache_experiment",
    "run_multitenant_experiment",
    "ARM_SOFTWARE_REGEX",
    "AcceleratorSpec",
    "BF2_COMPRESSION",
    "BF2_REGEX",
    "CompressedPageStore",
    "CompressedReadResult",
    "HardwareAccelerator",
    "compile_pattern",
    "compress_page",
    "decompress_page",
    "regex_scan",
    "run_compressed_read_experiment",
]
