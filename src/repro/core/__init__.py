"""The paper's contribution: contention models for the AURIX TC27x.

Every model is a registered, name-addressable object implementing the
:class:`~repro.core.model.ContentionModel` protocol — a name, a one-line
description, declared :class:`~repro.core.model.ModelCapabilities` and a
``bound(context)`` entry point over the uniform
:class:`~repro.core.model.AnalysisContext` record (readings, latency
profile, scenario, contender set, access profiles, DMA descriptors, bus
timing).  An ILP-backed model fixes its ILP configuration where it is
registered; the context carries none.  The default
:mod:`repro.core.registry` ships the full family:

* ``ftc-baseline`` / ``ftc-refined`` — fully time-composable bounds
  (Section 3.4, Eqs. 2-8);
* ``ilp-ptac`` / ``ilp-ptac-tc`` — the ILP-based per-target access count
  model (Section 3.5, Eqs. 9-23 + Table 5) and its time-composable
  variant;
* ``ilp-ptac-multi`` — the joint ILP over several simultaneous
  contenders (Section 2's extension).  All three come from one
  builder in :mod:`repro.core.ilp_ptac`, for one, zero or several
  contenders, and share its readout;
* ``ideal`` — the ideal model (Eq. 1), usable only with ground-truth
  access profiles (our simulator provides them);
* ``priority-occupancy`` / ``dma-occupancy`` — sound companion bounds
  for higher-priority multi-outstanding masters;
* ``fsb-closed-form`` / ``fsb-ftc`` / ``fsb-crossbar-ilp`` — the
  front-side-bus reduction of Section 4.3.

Registering a new model mirrors registering a scenario in
:mod:`repro.engine.registry`::

    from repro.core import (
        AnalysisContext, ModelCapabilities, ModelSpec, register_model,
    )

    def _my_bound(context: AnalysisContext) -> ContentionBound:
        ...  # use the context fields your capabilities declare

    register_model(ModelSpec(
        name="my-model",
        description="shown by `repro models`",
        capabilities=ModelCapabilities(min_contenders=1, max_contenders=1),
        fn=_my_bound,
    ))

after which ``contention_bound("my-model", ...)``, every driver's
``models=`` argument, ``repro figure4 --model my-model`` and engine jobs
built from the model *name* (picklable, cache-key-stable) all resolve
it.  The typed free functions (:func:`~repro.core.ftc.ftc_refined`,
:func:`~repro.core.ilp_ptac.ilp_ptac_bound`, ...) remain available for
callers that want a model's full result object rather than the uniform
:class:`~repro.core.results.ContentionBound`.
"""

from repro.core.access_bounds import (
    AccessCountBound,
    AccessCountBounds,
    CountSource,
    access_count_bounds,
    ceil_div,
    stall_bound,
)
from repro.core.fsb import (
    FsbTiming,
    fsb_closed_form,
    fsb_ftc_closed_form,
    fsb_latency_profile,
    fsb_scenario,
    fsb_via_crossbar_ilp,
)
from repro.core.ftc import FtcDetails, ftc_baseline, ftc_refined
from repro.core.ideal import ideal_bound
from repro.core.ilp_ptac import (
    IlpPtacOptions,
    IlpPtacResult,
    build_ilp_ptac,
    ilp_ptac_bound,
)
from repro.core.model import (
    AnalysisContext,
    ContentionModel,
    ModelCapabilities,
    ModelSpec,
)
from repro.core.multicontender import MultiContenderResult, multi_contender_bound
from repro.core.priority import (
    dma_traffic_profile,
    dma_victim_bound,
    priority_victim_bound,
)
from repro.core.ptac import AccessProfile, profile_from_pairs
from repro.core.registry import (
    builtin_models,
    default_model_registry,
    get_model,
    model_bound,
    model_names,
    model_specs,
    register_model,
    temporary_models,
)
from repro.core.results import ContentionBound, WcetEstimate
from repro.core.wcet import contention_bound, wcet_estimate

__all__ = [
    "AccessCountBound",
    "AccessCountBounds",
    "AccessProfile",
    "AnalysisContext",
    "ContentionBound",
    "ContentionModel",
    "CountSource",
    "FsbTiming",
    "FtcDetails",
    "IlpPtacOptions",
    "IlpPtacResult",
    "ModelCapabilities",
    "ModelSpec",
    "MultiContenderResult",
    "WcetEstimate",
    "access_count_bounds",
    "build_ilp_ptac",
    "builtin_models",
    "ceil_div",
    "contention_bound",
    "default_model_registry",
    "dma_traffic_profile",
    "dma_victim_bound",
    "fsb_closed_form",
    "fsb_ftc_closed_form",
    "fsb_latency_profile",
    "fsb_scenario",
    "fsb_via_crossbar_ilp",
    "ftc_baseline",
    "ftc_refined",
    "get_model",
    "ideal_bound",
    "ilp_ptac_bound",
    "model_bound",
    "model_names",
    "model_specs",
    "multi_contender_bound",
    "priority_victim_bound",
    "profile_from_pairs",
    "register_model",
    "stall_bound",
    "temporary_models",
    "wcet_estimate",
]
