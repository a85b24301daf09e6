"""Cycle-level simulator of the TC27x memory system (the testbed substitute).

Executes per-core task programs against the SRI crossbar with per-target
round-robin arbitration and Table 2-consistent device timing, producing
the observables the paper's methodology needs: DSU counter readings,
execution times, and (beyond real hardware) ground-truth access profiles.

The engine executes a :class:`~repro.sim.program.CompiledProgram` —
numpy gap/request-id arrays over a deduplicated request table, built
once per program (:func:`~repro.sim.program.compile_program`): workload
specs build them straight from their block columns, other programs
flatten their step stream with runs of gap-only steps merged into the
following request's gap.  An isolation run is computed in closed form
over those arrays (:meth:`~repro.sim.program.CompiledProgram.isolation_time`,
which :func:`repro.workloads.footprint.isolation_cycles` shares); in a
co-run, uncontended transactions complete inline, off the event heap,
most shared ones cost a single completion event, a DMA agent with a
full queue parks instead of ticking, and the last master left finishes
in closed form (see :mod:`repro.sim.system`).

Its semantics oracle, a step-generator walk that replays the per-step
object stream, lives in ``tests/oracles/sim_reference.py``.  The
equivalence suite (``tests/test_vectorized_kernels.py``) and the
acceptance benchmark (``benchmarks/bench_sim_scaling.py``) both assert
that the two produce byte-identical pickled :class:`SimResult`\\ s.
"""

from repro.sim.dma import DmaAgent, DmaResult
from repro.sim.caches import (
    CacheAccess,
    SetAssociativeCache,
    data_cache,
    data_read_buffer,
    instruction_cache,
)
from repro.sim.program import (
    CompiledProgram,
    Step,
    TaskProgram,
    compile_program,
    concatenate,
    program_from_steps,
    repeat,
)
from repro.sim.requests import MissKind, SriRequest, code_fetch, data_access
from repro.sim.system import (
    ARBITRATION_POLICIES,
    CoreResult,
    SimResult,
    SystemSimulator,
    TransactionStats,
    run_corun,
    run_isolation,
)
from repro.sim.timing import DeviceTiming, SimTiming, tc27x_sim_timing
from repro.sim.trace_frontend import TraceAccess, TraceCompiler, sweep_trace

__all__ = [
    "ARBITRATION_POLICIES",
    "CacheAccess",
    "CompiledProgram",
    "DmaAgent",
    "DmaResult",
    "CoreResult",
    "DeviceTiming",
    "MissKind",
    "SetAssociativeCache",
    "SimResult",
    "SimTiming",
    "SriRequest",
    "Step",
    "SystemSimulator",
    "TaskProgram",
    "TraceAccess",
    "TraceCompiler",
    "TransactionStats",
    "code_fetch",
    "compile_program",
    "concatenate",
    "data_access",
    "data_cache",
    "data_read_buffer",
    "instruction_cache",
    "program_from_steps",
    "repeat",
    "run_corun",
    "run_isolation",
    "sweep_trace",
    "tc27x_sim_timing",
]
