"""Tests for ContentionBound / WcetEstimate and the model facade."""

import pytest

from repro.core.results import ContentionBound, WcetEstimate
from repro.core.wcet import contention_bound, wcet_estimate
from repro.errors import ModelError
from repro.platform.targets import Operation, Target


def make_bound(delta=100, code=60, data=40, **kwargs):
    defaults = dict(
        model="test",
        task="t",
        contenders=("c",),
        delta_cycles=delta,
        op_breakdown={Operation.CODE: code, Operation.DATA: data},
    )
    defaults.update(kwargs)
    return ContentionBound(**defaults)


class TestContentionBound:
    def test_breakdown_must_sum(self):
        with pytest.raises(ModelError):
            make_bound(delta=100, code=60, data=50)

    def test_target_breakdown_must_sum(self):
        with pytest.raises(ModelError):
            make_bound(
                breakdown={(Target.PF0, Operation.CODE): 99}
            )

    def test_negative_delta_rejected(self):
        with pytest.raises(ModelError):
            make_bound(delta=-1, code=-1, data=0)

    def test_accessors(self):
        bound = make_bound()
        assert bound.code_cycles == 60
        assert bound.data_cycles == 40

    def test_describe_mentions_everything(self):
        bound = make_bound(
            breakdown={
                (Target.PF0, Operation.CODE): 60,
                (Target.LMU, Operation.DATA): 40,
            }
        )
        text = bound.describe()
        assert "pf0,co" in text and "lmu,da" in text
        assert "100 cycles" in text

    def test_describe_time_composable(self):
        bound = make_bound(contenders=(), time_composable=True)
        assert "time-composable" in bound.describe()


class TestWcetEstimate:
    def test_arithmetic(self):
        estimate = WcetEstimate(1_000, make_bound(delta=500, code=300, data=200))
        assert estimate.wcet_cycles == 1_500
        assert estimate.slowdown == pytest.approx(1.5)

    def test_nonpositive_isolation_rejected(self):
        with pytest.raises(ModelError):
            WcetEstimate(0, make_bound())

    def test_upper_bounds(self):
        estimate = WcetEstimate(1_000, make_bound(delta=500, code=300, data=200))
        assert estimate.upper_bounds(1_500)
        assert estimate.upper_bounds(1_200)
        assert not estimate.upper_bounds(1_501)

    def test_describe(self):
        estimate = WcetEstimate(1_000, make_bound(delta=500, code=300, data=200))
        assert "1.50x" in estimate.describe()


class TestFacade:
    @pytest.mark.parametrize(
        "model", ["ftc-baseline", "ftc-refined", "ilp-ptac", "ilp-ptac-tc"]
    )
    def test_all_models_run(self, model, app_sc1, hload_sc1, profile, sc1):
        bound = contention_bound(
            model, app_sc1, profile, sc1, hload_sc1
        )
        assert bound.delta_cycles > 0
        assert bound.model == model

    def test_ilp_requires_contender(self, app_sc1, profile, sc1):
        with pytest.raises(ModelError):
            contention_bound("ilp-ptac", app_sc1, profile, sc1)

    def test_wcet_estimate_uses_ccnt(self, app_sc1, hload_sc1, profile, sc1):
        readings = app_sc1.with_ccnt(13_600_000)
        estimate = wcet_estimate(
            "ilp-ptac", readings, profile, sc1, hload_sc1
        )
        assert estimate.isolation_cycles == 13_600_000
        assert estimate.slowdown == pytest.approx(1.486, abs=0.001)

    def test_wcet_estimate_override(self, app_sc1, hload_sc1, profile, sc1):
        estimate = wcet_estimate(
            "ilp-ptac",
            app_sc1,
            profile,
            sc1,
            hload_sc1,
            isolation_cycles=10_000_000,
        )
        assert estimate.isolation_cycles == 10_000_000

    def test_wcet_estimate_requires_time(self, app_sc1, hload_sc1, profile, sc1):
        from repro.errors import CounterError

        with pytest.raises(CounterError):
            wcet_estimate("ilp-ptac", app_sc1, profile, sc1, hload_sc1)

    def test_ordering_of_models(self, app_sc1, hload_sc1, profile, sc1):
        """ILP <= ILP-TC <= fTC-refined <= fTC-baseline on scenario 1."""
        ilp = contention_bound("ilp-ptac", app_sc1, profile, sc1, hload_sc1)
        ilp_tc = contention_bound("ilp-ptac-tc", app_sc1, profile, sc1)
        refined = contention_bound("ftc-refined", app_sc1, profile, sc1)
        baseline = contention_bound("ftc-baseline", app_sc1, profile, sc1)
        assert (
            ilp.delta_cycles
            <= ilp_tc.delta_cycles
            <= refined.delta_cycles
            <= baseline.delta_cycles
        )
