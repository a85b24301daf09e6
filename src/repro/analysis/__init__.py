"""Analysis harness: characterisation, MBTA protocol, experiment drivers."""

from repro.analysis.alignment import (
    AlignmentResult,
    alignment_sweep,
    delayed,
)
from repro.analysis.characterization import (
    CharacterizationResult,
    characterize,
)
from repro.analysis.enforcement import (
    ThrottlePoint,
    throttle_sweep,
    throttled,
)
from repro.analysis.experiments import (
    AblationRow,
    DEFAULT_ABLATION_MODELS,
    DEFAULT_FIGURE4_MODELS,
    Figure4Row,
    SCENARIOS,
    ScenarioSimData,
    Table6Row,
    figure4_paper_mode,
    figure4_sim_mode,
    information_ablation,
    reference_scenario,
    simulate_scenario,
    table6_sim_mode,
)
from repro.analysis.mbta import (
    CorunObservation,
    IsolationMeasurement,
    analyse,
    measure_isolation,
    observe_corun,
)
from repro.analysis.report import (
    render_ablation,
    render_artifact,
    render_figure4,
    render_latency_table,
    render_models,
    render_placement_table,
    render_table,
    render_table6,
)
from repro.analysis.three_core import ThreeCoreRow, three_core_experiment
from repro.analysis.sweeps import (
    DeploymentComparison,
    DirtySensitivity,
    SweepPoint,
    contender_scale_sweep,
    deployment_sweep,
    dirty_latency_sensitivity,
)
from repro.analysis.validation import (
    SoundnessCase,
    SoundnessSweep,
    check_soundness,
    soundness_sweep,
)

__all__ = [
    "AblationRow",
    "AlignmentResult",
    "CharacterizationResult",
    "CorunObservation",
    "DEFAULT_ABLATION_MODELS",
    "DEFAULT_FIGURE4_MODELS",
    "DeploymentComparison",
    "DirtySensitivity",
    "Figure4Row",
    "IsolationMeasurement",
    "SCENARIOS",
    "ScenarioSimData",
    "SoundnessCase",
    "SoundnessSweep",
    "Table6Row",
    "ThreeCoreRow",
    "ThrottlePoint",
    "alignment_sweep",
    "analyse",
    "characterize",
    "check_soundness",
    "figure4_paper_mode",
    "figure4_sim_mode",
    "information_ablation",
    "measure_isolation",
    "observe_corun",
    "reference_scenario",
    "render_ablation",
    "render_artifact",
    "render_figure4",
    "render_latency_table",
    "render_models",
    "render_placement_table",
    "render_table",
    "render_table6",
    "simulate_scenario",
    "SweepPoint",
    "contender_scale_sweep",
    "deployment_sweep",
    "dirty_latency_sensitivity",
    "soundness_sweep",
    "table6_sim_mode",
    "three_core_experiment",
    "throttle_sweep",
    "throttled",
    "delayed",
]
