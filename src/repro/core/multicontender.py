"""Multi-contender extension of the ILP-PTAC model.

The paper analyses one contender and notes the model "can be easily
extended to consider more contenders at the same time" (Section 2).  This
module is that extension's entry point, a wrapper over the one ILP-PTAC
builder (:mod:`repro.core.ilp_ptac`): with contenders τb1..τbk, each
request of τa to a target can — under round-robin arbitration — wait once
for *each* other core's in-flight request per round, so the per-target
caps of Eqs. 10-19 apply *per contender* while all contenders share one
consistent choice of τa's per-target access mapping.

Formally, for every contender ``i`` and target ``t``:

* ``n_{bi→a}[t,o] ≤ n_{bi}[t,o]``                       (per-contender Eq. 11b)
* ``Σ_o n_{bi→a}[t,o] ≤ Σ_o n_a[t,o]``                  (per-contender Eq. 13)

and the objective sums interference over contenders.  Because the τa
variables are shared, the joint optimum can be *smaller* than the sum of
the k single-contender optima (each of which may pick a different τa
mapping) — a tightness gain the ablation benchmark quantifies.  With one
contender the joint model is exactly the ``ilp-ptac`` ILP.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.ilp_ptac import IlpPtacOptions, Pair, _IlpPtacBuilder
from repro.core.results import ContentionBound
from repro.counters.readings import TaskReadings
from repro.errors import ModelError
from repro.ilp.model import IlpModel
from repro.ilp.solution import Solution
from repro.platform.deployment import DeploymentScenario
from repro.platform.latency import LatencyProfile


@dataclasses.dataclass(frozen=True)
class MultiContenderResult:
    """Outcome of a joint multi-contender solve.

    Attributes:
        bound: total contention bound over all contenders.
        per_contender_cycles: interference cycles attributed to each
            contender at the joint optimum.
        interference: worst-case ``n_{bi→a}[t,o]`` per contender.
        model: the underlying ILP.
        solution: raw solver result.
    """

    bound: ContentionBound
    per_contender_cycles: Mapping[str, int]
    interference: Mapping[str, Mapping[Pair, int]]
    model: IlpModel
    solution: Solution


def multi_contender_bound(
    readings_a: TaskReadings,
    contenders: Sequence[TaskReadings],
    profile: LatencyProfile,
    scenario: DeploymentScenario,
    options: IlpPtacOptions | None = None,
) -> MultiContenderResult:
    """Joint worst-case contention of several simultaneous contenders.

    Args:
        readings_a: isolation readings of the task under analysis.
        contenders: isolation readings of each co-runner (the TC27x allows
            up to two, one per remaining core, but the formulation is
            generic in k).
        profile: Table 2 constants.
        scenario: deployment scenario shared by every task.
        options: same knobs as the single-contender model; the
            ``contender_constraints`` flag must stay enabled (a fully
            time-composable bound does not depend on contender count).
    """
    options = options or IlpPtacOptions()
    if not options.contender_constraints:
        raise ModelError(
            "multi-contender analysis without contender constraints is "
            "meaningless; use ilp_ptac_bound(contender_constraints=False)"
        )
    if not contenders:
        raise ModelError("at least one contender is required")
    names = [c.name for c in contenders]
    if len(set(names)) != len(names):
        raise ModelError("contender names must be unique")

    builder = _IlpPtacBuilder(
        readings_a, contenders, profile, scenario, options
    )
    readout = builder.solve("ilp-ptac-multi")
    return MultiContenderResult(
        bound=readout.bound,
        per_contender_cycles=dict(zip(names, readout.cycles)),
        interference=dict(zip(names, readout.interference)),
        model=builder.model,
        solution=readout.solution,
    )
