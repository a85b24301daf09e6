"""Closed-form isolation timing for the workload generators.

The generators reconstruct the paper's tasks from their Table 6 counter
readings by inverting the Table 2 timing model
(:func:`~repro.workloads.control_loop.split_code_misses` and
:func:`~repro.workloads.control_loop.split_data_rw`).  What they also
need is a program's exact single-core execution time, so they can pad a
task to a target CCNT: :func:`isolation_cycles` computes it in closed
form over the compiled arrays (isolation timing is purely sequential).
"""

from __future__ import annotations

from repro.sim.program import CompiledProgram, TaskProgram
from repro.sim.timing import SimTiming, tc27x_sim_timing


def isolation_cycles(
    program: TaskProgram | CompiledProgram, timing: SimTiming | None = None
) -> int:
    """Exact single-core execution time of a program, computed directly.

    In isolation the core never waits on arbitration, so the time is the
    closed form of :meth:`~repro.sim.program.CompiledProgram.isolation_time`
    over the compiled arrays — the same helper
    :meth:`repro.sim.system.SystemSimulator.run` uses for a run with one
    core and no DMA agent, so this equals that run's finish time (a
    property the test-suite asserts) without building its counters.
    Used by workload builders to pad programs to a target CCNT; a builder
    that holds the arrays already passes them instead of the program.
    """
    timing = timing or tc27x_sim_timing()
    compiled = (
        program if isinstance(program, CompiledProgram) else program.compiled()
    )
    requests = compiled.requests
    return compiled.isolation_time(
        [timing.service_time(r) for r in requests],
        [timing.device(r.target).overlap(r) for r in requests],
    )
