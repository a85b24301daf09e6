"""Edge cases of the sweep API: degenerate inputs and normalisation.

Complements ``test_analysis_sweeps_cli.py`` (which covers the nominal
curves) with the boundary behaviours an exploration tool meets in
practice: empty or invalid scale sequences, missing/zero isolation times
(no normalisation possible), negative or non-finite ones (rejected) and
single-point sweeps that start beyond the saturation ceiling.
"""

import math
from unittest import mock

import pytest

from repro import paper
from repro.analysis import sweeps
from repro.analysis.sweeps import contender_scale_sweep, deployment_sweep
from repro.errors import CounterError, ModelError
from repro.platform.deployment import scenario_1


@pytest.fixture(scope="module")
def app():
    return paper.table6("scenario1", "app")


@pytest.fixture(scope="module")
def contender():
    return paper.table6("scenario1", "H-Load")


@pytest.fixture(scope="module")
def sc1():
    return scenario_1()


class TestScalesValidation:
    def test_empty_scales_rejected(self, app, contender, sc1):
        with pytest.raises(ModelError, match="at least one scale"):
            contender_scale_sweep(app, contender, sc1, scales=())

    @pytest.mark.parametrize("bad", [0.0, -0.5, -1.0])
    def test_non_positive_scales_rejected(self, app, contender, sc1, bad):
        with pytest.raises(ModelError, match="positive"):
            contender_scale_sweep(app, contender, sc1, scales=(1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scales_rejected(self, app, contender, sc1, bad):
        with pytest.raises(ModelError, match="finite"):
            contender_scale_sweep(app, contender, sc1, scales=(1.0, bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reading_scale_rejected(self, contender, bad):
        with pytest.raises(CounterError, match="finite"):
            contender.scaled(bad)

    def test_invalid_scale_rejected_before_any_solve(
        self, app, contender, sc1
    ):
        # Validation is eager: a bad scale anywhere in the sequence fails
        # fast, before the ceiling solve or any sweep-point job runs.
        from repro.engine import ExperimentEngine

        engine = ExperimentEngine()
        with pytest.raises(ModelError):
            contender_scale_sweep(
                app, contender, sc1, scales=(0.5, -1.0), engine=engine
            )
        assert engine.stats.executed == 0


class TestScalesAsIterable:
    def test_generator_scales_are_materialised(self, app, contender, sc1):
        # A one-shot iterable must behave like the equivalent tuple, not
        # silently produce an empty sweep.
        points = contender_scale_sweep(
            app, contender, sc1, scales=(s / 4 for s in range(1, 4))
        )
        assert [p.scale for p in points] == [0.25, 0.5, 0.75]


class TestIsolationNormalisation:
    def test_absent_isolation_yields_no_slowdown(self, app, contender, sc1):
        points = contender_scale_sweep(
            app, contender, sc1, scales=(0.5, 1.0)
        )
        assert all(p.slowdown is None for p in points)
        assert all(p.delta_cycles > 0 for p in points)

    def test_zero_isolation_yields_no_slowdown(self, app, contender, sc1):
        # A zero isolation time cannot normalise anything; the sweep
        # must degrade to unnormalised output instead of dividing by 0.
        points = contender_scale_sweep(
            app, contender, sc1, scales=(1.0,), isolation_cycles=0
        )
        assert points[0].slowdown is None

    def test_explicit_isolation_normalises(self, app, contender, sc1):
        points = contender_scale_sweep(
            app,
            contender,
            sc1,
            scales=(1.0,),
            isolation_cycles=paper.ISOLATION_CYCLES["scenario1"],
        )
        expected = 1 + points[0].delta_cycles / paper.ISOLATION_CYCLES[
            "scenario1"
        ]
        assert points[0].slowdown == pytest.approx(expected)

    def test_deployment_sweep_zero_isolation(self, app, contender, sc1):
        rows = deployment_sweep(
            app, contender, {"sc1": sc1}, isolation_cycles=0
        )
        assert rows[0].slowdown is None

    @pytest.mark.parametrize("bad", [-1, -5, math.nan, math.inf])
    def test_bad_isolation_rejected_before_any_job(
        self, app, contender, sc1, bad
    ):
        with mock.patch.object(sweeps, "run_jobs") as run_jobs:
            with pytest.raises(ModelError, match="finite and not negative"):
                contender_scale_sweep(
                    app, contender, sc1, scales=(1.0,), isolation_cycles=bad
                )
            with pytest.raises(ModelError, match="finite and not negative"):
                deployment_sweep(
                    app, contender, {"sc1": sc1}, isolation_cycles=bad
                )
        run_jobs.assert_not_called()


class TestSinglePointSaturation:
    def test_single_saturated_point(self, app, contender, sc1):
        # One point far beyond the saturation load: the sweep must still
        # solve the time-composable ceiling and flag the point.
        points = contender_scale_sweep(
            app, contender, sc1, scales=(64.0,)
        )
        assert len(points) == 1
        assert points[0].saturated

    def test_single_unsaturated_point(self, app, contender, sc1):
        points = contender_scale_sweep(
            app, contender, sc1, scales=(0.125,)
        )
        assert len(points) == 1
        assert not points[0].saturated

    def test_saturated_point_equals_ceiling_of_wider_sweep(
        self, app, contender, sc1
    ):
        single = contender_scale_sweep(app, contender, sc1, scales=(64.0,))
        wide = contender_scale_sweep(
            app, contender, sc1, scales=(64.0, 128.0)
        )
        assert single[0].delta_cycles == wide[0].delta_cycles
        assert wide[1].delta_cycles == wide[0].delta_cycles  # flat ceiling
