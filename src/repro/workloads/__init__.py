"""Workload generators: the application, contenders and microbenchmarks."""

from repro.workloads.control_loop import (
    ControlLoopLayout,
    build_control_loop,
    split_code_misses,
    split_data_rw,
)
from repro.workloads.footprint import (
    cacheable_data_miss_block,
    code_blocks,
    code_random_fraction,
    dflash_data_block,
    isolation_cycles,
    uncached_lmu_data_block,
)
from repro.workloads.kernels import (
    compile_kernel,
    fir_filter_kernel,
    kernel_suite,
    lookup_table_kernel,
    sensor_fusion_kernel,
    state_machine_kernel,
)
from repro.workloads.loads import (
    LOAD_LEVELS,
    all_loads,
    build_load,
    load_readings,
)
from repro.workloads.microbenchmarks import (
    PROBE_COUNT,
    PROBE_GAP,
    Probe,
    characterization_suite,
    probe,
)
from repro.workloads.spec import RequestBlock, WorkloadSpec, spread_counts
from repro.workloads.synthetic import random_task_pair, random_workload

__all__ = [
    "ControlLoopLayout",
    "LOAD_LEVELS",
    "PROBE_COUNT",
    "PROBE_GAP",
    "Probe",
    "RequestBlock",
    "WorkloadSpec",
    "all_loads",
    "build_control_loop",
    "build_load",
    "cacheable_data_miss_block",
    "characterization_suite",
    "compile_kernel",
    "code_blocks",
    "code_random_fraction",
    "dflash_data_block",
    "fir_filter_kernel",
    "isolation_cycles",
    "kernel_suite",
    "lookup_table_kernel",
    "load_readings",
    "probe",
    "random_task_pair",
    "sensor_fusion_kernel",
    "state_machine_kernel",
    "random_workload",
    "split_code_misses",
    "split_data_rw",
    "spread_counts",
    "uncached_lmu_data_block",
]
