"""Tests for scenario-family generators and their drivers.

The load-bearing claims:

* expansion is declarative, deterministic and *validated* — every
  member passes :class:`ScenarioSpec` construction, carries the family
  prefix, and illegal grid points (Table 3 violations) are filtered;
* the dma-pressure family demonstrates the paper's scoping boundary:
  ``dma-occupancy`` upper-bounds the observation on **every** member
  while the round-robin alignment bound (``dma-rr-alignment``)
  under-predicts once a higher-priority agent saturates its slave —
  including every ``queue_depth > 1`` member of that regime;
* the priority-arbitration family measures the equivalence the paper's
  same-class scoping relies on: single-outstanding cores observe
  identical victim times under round-robin and fixed priority;
* serial, process-pool and two-worker service runs of a family are
  byte-identical, member specs are picklable, and their engine cache
  keys are stable across processes.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    ExperimentEngine,
    ResultCache,
    ScenarioFamily,
    ScenarioSpec,
    WorkloadRef,
    builtin_families,
    default_registry,
    expand_family,
    family_jobs,
    family_names,
    family_results,
    get_family,
    register_family_members,
    run_family,
    run_jobs,
    stable_hash,
    temporary_families,
    temporary_scenarios,
)
from repro.errors import EngineError, ModelError
from repro.platform.targets import Target

BUILTIN_MEMBERS = {
    family.name: expand_family(family) for family in builtin_families()
}
ALL_MEMBERS = [
    member for members in BUILTIN_MEMBERS.values() for member in members
]


def tiny_family(name="tiny"):
    """A four-member synthetic family small enough for mode parity runs."""
    return ScenarioFamily(
        name=name,
        description="synthetic pairs over seeds x request budgets",
        axes={"seed": (3, 5), "max_requests": (150, 250)},
        build=lambda seed, max_requests: ScenarioSpec(
            name=f"{name}/s{seed}-r{max_requests}",
            base="scenario1",
            app=WorkloadRef.synthetic(seed, max_requests=max_requests),
            contenders=(
                (2, WorkloadRef.synthetic(seed + 10, max_requests=max_requests)),
            ),
        ),
    )


class TestScenarioFamily:
    def test_axes_mapping_is_canonicalised(self):
        family = tiny_family()
        assert family.axis_names == ("seed", "max_requests")
        assert family.grid_size == 4
        assert family.describe_axes() == "seed=3|5 max_requests=150|250"

    def test_points_are_row_major(self):
        points = list(tiny_family().points())
        assert points[0] == (("seed", 3), ("max_requests", 150))
        assert points[1] == (("seed", 3), ("max_requests", 250))
        assert points[-1] == (("seed", 5), ("max_requests", 250))

    def test_validation(self):
        with pytest.raises(EngineError):
            ScenarioFamily(name="", description="", axes={"a": (1,)}, build=id)
        with pytest.raises(EngineError):
            ScenarioFamily(name="x", description="", axes={}, build=id)
        with pytest.raises(EngineError):
            ScenarioFamily(
                name="x", description="", axes={"not an id": (1,)}, build=id
            )
        with pytest.raises(EngineError):
            ScenarioFamily(name="x", description="", axes={"a": ()}, build=id)
        with pytest.raises(EngineError):
            ScenarioFamily(
                name="x", description="", axes={"a": (1,)}, build="nope"
            )


class TestExpansion:
    def test_builtin_families_registered(self):
        assert family_names() == (
            "dma-pressure",
            "priority-arbitration",
            "cacheability",
        )

    @pytest.mark.parametrize("name", [f.name for f in builtin_families()])
    def test_members_carry_prefix_and_unique_names(self, name):
        members = BUILTIN_MEMBERS[name]
        names = [member.name for member in members]
        assert len(set(names)) == len(names)
        assert all(n.startswith(f"{name}/") for n in names)
        assert all(member.family == name for member in members)

    def test_cacheability_filters_table3_violations(self):
        members = BUILTIN_MEMBERS["cacheability"]
        family = get_family("cacheability")
        # 3 code x (3 cacheable + 2 non-cacheable data) legal points of
        # the 3 x 4 x 2 grid survive the placement-matrix filter.
        assert family.grid_size == 24
        assert len(members) == 15
        placements = {
            (dict(m.point)["data_target"], dict(m.point)["data_cacheable"])
            for m in members
        }
        assert ("dfl", True) not in placements  # Data $ cannot sit on DFL
        assert ("pf0", False) not in placements  # Data n$ cannot sit on PF0

    def test_cacheability_derives_dirty_targets(self):
        by_name = {m.name: m.spec for m in BUILTIN_MEMBERS["cacheability"]}
        assert by_name["cacheability/co-pf0-da-lmu-c"].dirty_targets == (
            Target.LMU,
        )
        assert by_name["cacheability/co-pf0-da-lmu-nc"].dirty_targets == ()

    def test_dma_pressure_members_use_priority_arbitration(self):
        for member in BUILTIN_MEMBERS["dma-pressure"]:
            spec = member.spec
            assert spec.arbitration == "priority"
            assert spec.dma[0].master_id == 9
            # The DMA master outranks the application core.
            priorities = dict(spec.priorities)
            assert priorities[9] < priorities[spec.app_core]

    def test_expansion_is_deterministic(self):
        first = expand_family("dma-pressure")
        second = expand_family("dma-pressure")
        assert first == second

    def test_build_must_return_spec_or_none(self):
        family = ScenarioFamily(
            name="bad",
            description="",
            axes={"a": (1,)},
            build=lambda a: "not a spec",
        )
        with pytest.raises(EngineError, match="expected a ScenarioSpec"):
            expand_family(family)

    def test_member_names_must_carry_family_prefix(self):
        family = ScenarioFamily(
            name="prefixed",
            description="",
            axes={"a": (1,)},
            build=lambda a: ScenarioSpec(
                name="rogue", app=WorkloadRef.synthetic(1)
            ),
        )
        with pytest.raises(EngineError, match="must be named"):
            expand_family(family)

    def test_all_filtered_grid_is_an_error(self):
        family = ScenarioFamily(
            name="empty",
            description="",
            axes={"a": (1, 2)},
            build=lambda a: None,
        )
        with pytest.raises(EngineError, match="zero members"):
            expand_family(family)

    def test_duplicate_member_names_rejected(self):
        family = ScenarioFamily(
            name="dup",
            description="",
            axes={"a": (1, 2)},
            build=lambda a: ScenarioSpec(
                name="dup/same", app=WorkloadRef.synthetic(1)
            ),
        )
        with pytest.raises(EngineError, match="duplicate member"):
            expand_family(family)


class TestFamilyRegistry:
    def test_register_family_members_en_masse(self):
        before = default_registry().names()
        with temporary_scenarios() as registry:
            specs = register_family_members("cacheability")
            assert len(specs) == 15
            for spec in specs:
                assert spec.name in registry
            # Members are ordinary registered scenarios now.
            assert (
                registry.get("cacheability/co-pf0-da-lmu-c").base == "custom"
            )
        # Self-contained restore check: exiting the block undoes the
        # en-masse registration exactly.
        assert default_registry().names() == before

    def test_scenario_sandbox_fixture(self, scenario_sandbox):
        register_family_members("priority-arbitration")
        assert (
            "priority-arbitration/scenario1-round-robin-H"
            in scenario_sandbox
        )

    def test_temporary_families_restores_registry(self):
        before = family_names()
        with temporary_families(tiny_family()) as registry:
            assert "tiny" in registry
            assert run_family("tiny", members=["tiny/s3-r150"])[0].sound
        assert family_names() == before


class TestDmaPressureDemonstration:
    """The acceptance claim: occupancy sound everywhere, the round-robin
    alignment bound under-predicting wherever a higher-priority agent
    saturates its slave — including every queue_depth > 1 member there."""

    @pytest.fixture(scope="class")
    def runs(self):
        engine = ExperimentEngine(cache=ResultCache())
        occupancy = run_family("dma-pressure", engine=engine)
        alignment = run_family(
            "dma-pressure", model="dma-rr-alignment", engine=engine
        )
        return occupancy, alignment

    def test_occupancy_sound_on_every_member(self, runs):
        occupancy, _ = runs
        assert len(occupancy) == 24
        assert all(result.sound for result in occupancy)
        assert all(
            result.run.dma_model == "dma-occupancy" for result in occupancy
        )

    def test_alignment_under_predicts_deep_saturating_queues(self, runs):
        _, alignment = runs
        assert all(
            result.run.dma_model == "dma-rr-alignment"
            for result in alignment
        )
        for result in alignment:
            point = dict(result.member.point)
            if point["period"] == 2 and point["queue_depth"] > 1:
                # Saturating burst from a deeper queue: the alignment
                # assumption (each victim request delayed at most once)
                # is constructively violated.
                assert not result.sound, result.member.name

    def test_alignment_survives_paced_single_outstanding_agents(self, runs):
        _, alignment = runs
        for result in alignment:
            point = dict(result.member.point)
            if point["period"] == 24:
                # Period beyond the service time: the agent goes idle
                # between transactions, depth never accumulates, and
                # the same-class accounting remains an upper bound.
                assert result.sound, result.member.name

    def test_descriptor_model_is_routed_to_the_dma_side(self):
        results = run_family(
            "dma-pressure",
            model="dma-occupancy",
            members=["dma-pressure/scenario1-qd1-p24-c8000"],
        )
        assert results[0].run.model == "ilp-ptac"
        assert results[0].run.dma_model == "dma-occupancy"


class TestPriorityArbitrationFamily:
    def test_priority_equals_round_robin_for_core_pairs(self):
        """Two single-outstanding masters: work-conserving policies
        produce the *same* victim trace, cycle for cycle."""
        pairs = [
            (
                f"priority-arbitration/{base}-round-robin-{mix}",
                f"priority-arbitration/{base}-priority-{mix}",
            )
            for base, mix in (("scenario1", "H"), ("scenario2", "L"))
        ]
        members = [name for pair in pairs for name in pair]
        results = {
            r.member.name: r.run
            for r in run_family("priority-arbitration", members=members)
        }
        for rr_name, prio_name in pairs:
            rr, prio = results[rr_name], results[prio_name]
            assert rr.observed_cycles == prio.observed_cycles
            assert rr.sound and prio.sound

    def test_bounds_stay_sound_for_three_core_mixes(self):
        """With three masters the interleavings (and hence the observed
        times) may differ between policies, but every master is still
        delayed at most once per other master per round — the same-class
        counter bounds must upper-bound both."""
        members = [
            f"priority-arbitration/scenario2-{arbitration}-HL"
            for arbitration in ("round-robin", "priority")
        ]
        results = run_family("priority-arbitration", members=members)
        assert all(result.sound for result in results)
        # Both runs bound the same workloads with the same model, so the
        # predictions agree even where the observations do not.
        deltas = {r.run.joint_delta for r in results}
        assert len(deltas) == 1


class TestCacheabilityFamily:
    def test_every_member_runs_sound(self):
        results = run_family("cacheability")
        assert len(results) == 15
        assert all(result.sound for result in results)
        # Placements differ, so contention genuinely varies member to
        # member — the sweep explores, it does not repeat one point.
        assert len({r.run.joint_delta for r in results}) > 1


class TestFamilyDrivers:
    def test_member_filter_rejects_unknown_names(self):
        with pytest.raises(EngineError, match="unknown family members"):
            run_family("cacheability", members=["cacheability/nope"])

    def test_family_matrix_is_member_major(self):
        members = [
            "cacheability/co-pf0-da-lmu-c",
            "cacheability/co-pf1-da-dfl-nc",
        ]
        models = ("ftc-refined", "ilp-ptac")
        jobs = family_jobs(
            "cacheability", models=models, matrix=True, members=members
        )
        cells = family_results("cacheability", run_jobs(jobs, None))
        assert [(c.member.name, c.run.model) for c in cells] == [
            (member, model) for member in members for model in models
        ]

    def test_single_model_batch_rejected_before_any_job(self):
        # The gate runs while the batch is built, not inside the
        # first member's run_spec.
        with pytest.raises(ModelError, match="cannot drive a scenario run"):
            family_jobs("cacheability", models=("ideal",))

    def test_run_family_accepts_family_objects(self):
        family = tiny_family()
        results = run_family(family, members=["tiny/s3-r150"])
        assert results[0].run.spec_name == "tiny/s3-r150"
        assert results[0].sound

    def test_dma_model_ignored_for_specs_without_dma(self):
        """Regression: a non-descriptor dma_model used to be rejected
        even when the spec declared no DMA traffic to bound."""
        from repro.engine import get_scenario, run_spec

        spec = get_scenario("scenario1-pair-L").scaled(1 / 8)
        result = run_spec(spec, dma_model="ftc-refined")
        assert result.dma_delta == 0
        # Unknown names still fail fast, DMA or not.
        with pytest.raises(ModelError, match="unknown model"):
            run_spec(spec, dma_model="nope")


class TestReadmeFamiliesSection:
    """The README's families table claims to be generated from the
    registry and must not drift from it (the Models table's twin)."""

    @pytest.fixture(scope="class")
    def readme(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        return path.read_text(encoding="utf-8")

    def test_every_family_is_documented(self, readme):
        for family in builtin_families():
            members = len(BUILTIN_MEMBERS[family.name])
            assert (
                f"| `{family.name}` | {members} | {family.description} |"
                in readme
            ), family.name


class TestFamilyCli:
    def test_two_descriptor_models_run_the_grid_once_per_bound(self, capsys):
        """Regression: the natural sound/unsound comparison used to be
        misrouted into the counter-model matrix and rejected."""
        from repro.cli import main

        code = main(
            [
                "family",
                "dma-pressure",
                "--model",
                "dma-occupancy",
                "--model",
                "dma-rr-alignment",
                "--member",
                "dma-pressure/scenario1-qd1-p24-c8000",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "dma-occupancy" in output
        assert "dma-rr-alignment" in output
        assert "2 member runs" in output

    def test_several_counter_models_run_the_family_matrix(self, capsys):
        from repro.cli import main

        code = main(
            [
                "family",
                "cacheability",
                "--model",
                "ilp-ptac",
                "--model",
                "ftc-refined",
                "--member",
                "cacheability/co-pf0-da-pf1-c",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert output.startswith("Family matrix (cacheability, 2 cells)")


class TestModeParity:
    """Serial, --jobs 2 and runs on two remote workers (an in-process
    coordinator with two pull workers) are byte-identical."""

    def test_serial_process_remote_parity(self, service_fleet):
        family = tiny_family("parity")
        serial = run_family(family)

        with ExperimentEngine(mode="process", workers=2) as engine:
            pooled = run_family(family, engine=engine)
        assert pooled == serial

        coordinator, _workers = service_fleet()
        engine = ExperimentEngine(
            mode="service", coordinator_url=coordinator.url
        )
        remote = run_family(family, engine=engine)
        assert remote == serial
        assert engine.stats.fallbacks == 0

        # Byte-identical rendered artefact, not merely equal rows.
        from repro.analysis.export import family_artifact
        from repro.analysis.report import render_artifact

        assert render_artifact(family_artifact(remote)) == render_artifact(
            family_artifact(serial)
        )


class TestMemberProperties:
    """Hypothesis sweep over every builtin member: validated, picklable,
    stable engine cache keys."""

    @given(member=st.sampled_from(ALL_MEMBERS))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_members_validate_and_pickle(self, member):
        spec = member.spec
        assert isinstance(spec, ScenarioSpec)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        # Rebuilding from the same grid point reproduces the spec and
        # its content hash (specs are engine cache keys).
        rebuilt = get_family(member.family).build(**dict(member.point))
        assert rebuilt == spec
        assert stable_hash(rebuilt) == stable_hash(spec)

    def test_cache_keys_stable_across_processes(self):
        """A fresh interpreter derives the same hash for every member."""
        script = (
            "from repro.engine import builtin_families, expand_family, "
            "stable_hash\n"
            "for family in builtin_families():\n"
            "    for member in expand_family(family):\n"
            "        print(member.name, stable_hash(member.spec))\n"
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "99"  # hash randomisation must not leak in
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=str(root),
        ).stdout
        theirs = dict(line.split() for line in output.splitlines())
        ours = {
            member.name: stable_hash(member.spec) for member in ALL_MEMBERS
        }
        assert theirs == ours
