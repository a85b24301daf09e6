"""Tests for the ILP-PTAC model (Eqs. 9-23 + Table 5 tailoring)."""

import dataclasses

import pytest

from repro.core.ilp_ptac import (
    IlpPtacOptions,
    build_ilp_ptac,
    ilp_ptac_bound,
)
from repro.counters.readings import TaskReadings
from repro.errors import IlpError, ModelError
from repro.ilp import batch, branch_and_bound
from repro.ilp.solution import SolveStatus
from repro.platform.targets import Operation, Target


class TestPaperInstances:
    """The two published instances, both backends."""

    @pytest.mark.parametrize("backend", ["bnb", "scipy"])
    def test_scenario1_hload(self, app_sc1, hload_sc1, profile, sc1, backend):
        result = ilp_ptac_bound(
            app_sc1, hload_sc1, profile, sc1, IlpPtacOptions(backend=backend)
        )
        assert result.bound.delta_cycles == 6_606_495
        # Code interference capped by the contender's exact PM count.
        code = sum(
            count
            for (t, o), count in result.interference.items()
            if o is Operation.CODE
        )
        assert code == hload_sc1.pm
        # Data interference capped by the contender's stall budget.
        data = sum(
            count
            for (t, o), count in result.interference.items()
            if o is Operation.DATA
        )
        assert data == hload_sc1.ds // 10

    @pytest.mark.parametrize("backend", ["bnb", "scipy"])
    def test_scenario2_hload(self, app_sc2, hload_sc2, profile, sc2, backend):
        result = ilp_ptac_bound(
            app_sc2, hload_sc2, profile, sc2, IlpPtacOptions(backend=backend)
        )
        assert result.bound.delta_cycles == 3_829_026

    def test_scipy_solves_to_a_zero_gap(self, profile, sc2):
        """HiGHS's default 1e-4 relative gap once stopped at 165,322
        here (gap 9.7e-5) and reported it optimal, under-reporting the
        worst case that branch-and-bound finds."""
        a = TaskReadings(
            "a", pmem_stall=24133, dmem_stall=52237, pcache_miss=3196,
            dcache_miss_clean=2214, dcache_miss_dirty=79,
        )
        b = TaskReadings(
            "b", pmem_stall=54812, dmem_stall=38741, pcache_miss=4610,
            dcache_miss_clean=726, dcache_miss_dirty=90,
        )
        results = {
            backend: ilp_ptac_bound(
                a, b, profile, sc2,
                IlpPtacOptions(use_exact_code_counts=False, backend=backend),
            )
            for backend in ("bnb", "scipy", "lp")
        }
        assert results["bnb"].bound.delta_cycles == 165_338
        assert results["scipy"].bound.delta_cycles == 165_338
        assert results["lp"].solution.objective >= 165_338

    def test_lp_relaxation_is_a_looser_sound_bound(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        ilp = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        lp = ilp_ptac_bound(
            app_sc1, hload_sc1, profile, sc1, IlpPtacOptions(backend="lp")
        )
        assert lp.solution.objective >= ilp.bound.delta_cycles
        assert lp.solution.objective - ilp.bound.delta_cycles < 50


class TestModelStructure:
    def test_variables_follow_scenario_pairs(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        model = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        names = {v.name for v in model.variables}
        # 3 valid pairs x 3 families + 2 op classes x 3 Eq.-5 totals.
        assert len(names) == 15
        assert "n_a[pf0,co]" in names
        assert "n_ba[lmu,da]" in names
        assert "n_a^co" in names and "n_ba^da" in names
        # Table 5: dfl and lmu-code pairs have no variables at all.
        assert not any("dfl" in n for n in names)
        assert not any("lmu,co" in n for n in names)

    def test_constraint_families_present(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        model = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        names = {c.name for c in model.constraints}
        assert "cap_a[pf0,co]" in names
        assert "cap_b[pf0,co]" in names
        assert "cumulative[lmu]" in names
        assert "stall_co[a]" in names
        assert "stall_da[b]" in names
        assert "code_count[a]" in names
        assert "code_count[b]" in names

    def test_scenario2_data_lower_bound_constraint(
        self, app_sc2, hload_sc2, profile, sc2
    ):
        model = build_ilp_ptac(app_sc2, hload_sc2, profile, sc2)
        names = {c.name for c in model.constraints}
        assert "data_count_lb[a]" in names
        assert "data_count_lb[b]" in names

    def test_scenario1_has_no_data_lower_bound(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        model = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        names = {c.name for c in model.constraints}
        assert "data_count_lb[a]" not in names

    def test_missing_contender_rejected(self, app_sc1, profile, sc1):
        with pytest.raises(ModelError):
            ilp_ptac_bound(app_sc1, None, profile, sc1)

    def test_invalid_stall_mode_rejected(self):
        with pytest.raises(ModelError):
            IlpPtacOptions(stall_budget="median")

    @pytest.mark.parametrize(
        ("knobs", "named"),
        [
            ({"backend": "gurobi"}, "gurobi"),
            ({"backend": "BNB"}, "BNB"),
            ({"node_limit": 0}, "node_limit"),
            ({"node_limit": -5}, "node_limit"),
        ],
    )
    def test_invalid_solver_knobs_rejected(self, knobs, named):
        with pytest.raises(ModelError, match=named):
            IlpPtacOptions(**knobs)


class TestWitnessConsistency:
    """The optimiser's witness must satisfy the paper's constraints."""

    def test_interference_within_caps(self, app_sc1, hload_sc1, profile, sc1):
        result = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        for (target, op), count in result.interference.items():
            assert count <= result.worst_profile_b[(target, op)]
            exposure = sum(
                result.worst_profile_a[(t, o)]
                for (t, o) in result.worst_profile_a
                if t is target
            )
            assert count <= exposure

    def test_stall_budgets_respected(self, app_sc1, hload_sc1, profile, sc1):
        result = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        code_stalls = sum(
            count * profile.stall_cycles(t, o)
            for (t, o), count in result.worst_profile_a.items()
            if o is Operation.CODE
        )
        data_stalls = sum(
            count * profile.stall_cycles(t, o)
            for (t, o), count in result.worst_profile_a.items()
            if o is Operation.DATA
        )
        assert code_stalls <= app_sc1.ps
        assert data_stalls <= app_sc1.ds

    def test_exact_code_counts_hit(self, app_sc1, hload_sc1, profile, sc1):
        result = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        code_a = sum(
            count
            for (t, o), count in result.worst_profile_a.items()
            if o is Operation.CODE
        )
        assert code_a == app_sc1.pm

    def test_objective_matches_breakdown(self, app_sc2, hload_sc2, profile, sc2):
        result = ilp_ptac_bound(app_sc2, hload_sc2, profile, sc2)
        recomputed = sum(
            count * sc2.interference_latency(profile, t, o)
            for (t, o), count in result.interference.items()
        )
        assert recomputed == result.bound.delta_cycles


def _with_n_ba_past_its_cap(solution):
    """``solution`` with its first ``n_ba`` count raised past every cap.

    The corruption lands in the point array the solver returns, which is
    what the re-check screens and what ``values`` derives from.
    """
    column = next(
        j
        for j, var in enumerate(solution.variables)
        if var.name.startswith("n_ba[")
    )
    x = solution.x.copy()
    x[column] += 10**6
    return dataclasses.replace(solution, x=x)


class TestFeasibilityRecheck:
    """A solver that returns an infeasible point is caught, not trusted."""

    def _corrupt_warm_solves(self, monkeypatch):
        solve_bnb_warm = batch.solve_bnb_warm

        def corrupt(form, warm, **kwargs):
            solution, state = solve_bnb_warm(form, warm, **kwargs)
            return _with_n_ba_past_its_cap(solution), state

        monkeypatch.setattr(batch, "solve_bnb_warm", corrupt)

    def test_warm_solve_of_a_bound(
        self, app_sc1, hload_sc1, profile, sc1, monkeypatch
    ):
        self._corrupt_warm_solves(monkeypatch)
        with pytest.raises(IlpError, match="infeasible point"):
            ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)

    def test_cold_model_solve(
        self, app_sc1, hload_sc1, profile, sc1, monkeypatch
    ):
        solve_bnb = branch_and_bound.solve_bnb
        monkeypatch.setattr(
            branch_and_bound,
            "solve_bnb",
            lambda form, **kwargs: _with_n_ba_past_its_cap(
                solve_bnb(form, **kwargs)
            ),
        )
        model = build_ilp_ptac(app_sc1, hload_sc1, profile, sc1)
        with pytest.raises(IlpError, match="infeasible point"):
            model.solve()

    def test_failure_names_the_violated_constraints(
        self, app_sc1, hload_sc1, profile, sc1, monkeypatch
    ):
        """The array screen only detects a violation; the message is
        worded from the named constraints the raised count breaks."""
        self._corrupt_warm_solves(monkeypatch)
        with pytest.raises(IlpError) as raised:
            ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        message = str(raised.value)
        assert message.startswith(
            "warm-started solve returned an infeasible point: violated: "
        )
        # n_ba[pf0,co] is the first n_ba count: its class total and its
        # caps by τa's and τb's requests on pf0 no longer hold.
        for name in ("total_ba_co", "cap_a[pf0,co]", "cap_b[pf0,co]"):
            assert f"violated: {name}: " in message, name


class TestVariantsAndFlags:
    def test_fully_time_composable_variant(self, app_sc1, profile, sc1):
        result = ilp_ptac_bound(
            app_sc1,
            None,
            profile,
            sc1,
            IlpPtacOptions(contender_constraints=False),
        )
        assert result.bound.time_composable
        assert result.bound.contenders == ()
        assert result.worst_profile_b == {}
        # Without contender info each τa access can be delayed once:
        # PM x 16 + floor(DS/10) x 11 for scenario 1.
        assert (
            result.bound.delta_cycles
            == app_sc1.pm * 16 + (app_sc1.ds // 10) * 11
        )

    def test_tc_variant_dominates_contender_aware(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        aware = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        tc = ilp_ptac_bound(
            app_sc1,
            None,
            profile,
            sc1,
            IlpPtacOptions(contender_constraints=False),
        )
        assert tc.bound.delta_cycles >= aware.bound.delta_cycles

    def test_exact_stall_mode_infeasible_on_real_data(
        self, app_sc1, hload_sc1, profile, sc1
    ):
        # The paper's literal equalities with minimum coefficients cannot
        # hold on its own Table 6 data (see DESIGN.md).
        model = build_ilp_ptac(
            app_sc1,
            hload_sc1,
            profile,
            sc1,
            IlpPtacOptions(stall_budget="exact"),
        )
        assert model.solve().status is SolveStatus.INFEASIBLE

    def test_exact_stall_mode_feasible_on_consistent_data(self, profile, sc1):
        # Synthetic readings whose stalls are exact multiples of cs_min.
        a = TaskReadings("a", pmem_stall=60, dmem_stall=100, pcache_miss=10)
        b = TaskReadings("b", pmem_stall=30, dmem_stall=50, pcache_miss=5)
        result = ilp_ptac_bound(
            a, b, profile, sc1, IlpPtacOptions(stall_budget="exact")
        )
        assert result.solution.status is SolveStatus.OPTIMAL

    def test_disable_exact_code_counts(self, app_sc1, hload_sc1, profile, sc1):
        loose = ilp_ptac_bound(
            app_sc1,
            hload_sc1,
            profile,
            sc1,
            IlpPtacOptions(use_exact_code_counts=False),
        )
        tight = ilp_ptac_bound(app_sc1, hload_sc1, profile, sc1)
        # Without the PM equalities the contender's code side is bounded
        # by stalls only (more requests), so the bound can only grow.
        assert loose.bound.delta_cycles >= tight.bound.delta_cycles


class TestMonotonicity:
    def test_bound_monotone_in_contender_load(self, app_sc1, profile, sc1):
        from repro import paper

        deltas = [
            ilp_ptac_bound(
                app_sc1,
                paper.contender_readings("scenario1", level),
                profile,
                sc1,
            ).bound.delta_cycles
            for level in ("L", "M", "H")
        ]
        assert deltas[0] < deltas[1] < deltas[2]

    def test_zero_contender_zero_bound(self, app_sc1, profile, sc1):
        idle = TaskReadings("idle", pmem_stall=0, dmem_stall=0, pcache_miss=0)
        result = ilp_ptac_bound(app_sc1, idle, profile, sc1)
        assert result.bound.delta_cycles == 0
