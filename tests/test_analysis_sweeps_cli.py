"""Tests for the sweep API and the command-line interface."""

import random
import threading

import pytest

from repro import paper
from repro.analysis.sweeps import (
    contender_scale_sweep,
    deployment_sweep,
    dirty_latency_sensitivity,
)
from repro.cli import _MAX_DURATION_S, main
from repro.errors import ModelError
from repro.platform.deployment import scenario_1, scenario_2
from repro.service.retry import RetryPolicy


class TestContenderScaleSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return contender_scale_sweep(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            scenario_1(),
            scales=(0.25, 0.5, 1.0, 2.0, 4.0),
            isolation_cycles=paper.ISOLATION_CYCLES["scenario1"],
        )

    def test_monotone_nondecreasing(self, points):
        deltas = [p.delta_cycles for p in points]
        assert deltas == sorted(deltas)

    def test_linear_before_saturation(self, points):
        by_scale = {p.scale: p.delta_cycles for p in points}
        # Below saturation the bound is proportional to the load.
        assert by_scale[0.5] == pytest.approx(2 * by_scale[0.25], rel=1e-3)
        assert by_scale[1.0] == pytest.approx(4 * by_scale[0.25], rel=1e-3)

    def test_saturates_at_tc_ceiling(self, points):
        saturated = [p for p in points if p.saturated]
        assert saturated, "sweep never saturated"
        ceiling = saturated[-1].delta_cycles
        assert all(p.delta_cycles == ceiling for p in saturated)
        # The ceiling is the fully time-composable ILP bound, which in
        # turn sits within one rounding unit of the refined fTC bound.
        assert ceiling == pytest.approx(
            paper.EXPECTED_DELTA[("scenario1", "ftc-refined")], abs=16
        )

    def test_h_load_point_matches_figure4(self, points):
        point = next(p for p in points if p.scale == 1.0)
        assert point.delta_cycles == paper.EXPECTED_DELTA[
            ("scenario1", "ilp-ptac", "H")
        ]
        assert point.slowdown == pytest.approx(1.49, abs=0.01)

    def test_validation(self):
        with pytest.raises(ModelError):
            contender_scale_sweep(
                paper.table6("scenario1", "app"),
                paper.table6("scenario1", "H-Load"),
                scenario_1(),
                scales=(),
            )
        with pytest.raises(ModelError):
            contender_scale_sweep(
                paper.table6("scenario1", "app"),
                paper.table6("scenario1", "H-Load"),
                scenario_1(),
                scales=(-1.0,),
            )


class TestDeploymentSweep:
    def test_both_reference_scenarios(self):
        rows = deployment_sweep(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            {"sc1": scenario_1()},
            isolation_cycles=13_600_000,
        )
        assert rows[0].scenario == "sc1"
        assert rows[0].delta_cycles == 6_606_495
        assert rows[0].slowdown == pytest.approx(1.486, abs=0.001)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            deployment_sweep(
                paper.table6("scenario1", "app"),
                paper.table6("scenario1", "H-Load"),
                {},
            )


class TestDirtySensitivity:
    def test_scenario2_sensitivity(self):
        result = dirty_latency_sensitivity(
            paper.table6("scenario2", "app"),
            paper.table6("scenario2", "H-Load"),
            scenario_2(),
        )
        assert result.with_dirty_cycles == 3_829_026
        assert result.without_dirty_cycles < result.with_dirty_cycles
        assert 0 < result.share < 0.1  # data traffic is small in Sc2

    def test_scenario1_insensitive(self):
        # Scenario 1 has no dirty targets: both solves coincide.
        result = dirty_latency_sensitivity(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            scenario_1(),
        )
        assert result.share == 0.0


class TestCli:
    def run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_table3(self, capsys):
        out = self.run(capsys, "table3")
        assert "Data n$" in out

    def test_figure4_paper(self, capsys):
        out = self.run(capsys, "figure4")
        assert "1.95" in out and "ilp-ptac" in out

    def test_sweep(self, capsys):
        out = self.run(capsys, "sweep", "--scenario", "1")
        assert "saturated" in out

    def test_platform(self, capsys):
        out = self.run(capsys, "platform")
        assert "SRI" in out

    def test_table6_scaled(self, capsys):
        out = self.run(capsys, "table6", "--scale", "128")
        assert "scenario2" in out

    def test_ablation(self, capsys):
        out = self.run(capsys, "ablation", "--scale", "128")
        assert "ideal" in out

    def test_soundness(self, capsys):
        out = self.run(
            capsys, "soundness", "--pairs", "2", "--requests", "300"
        )
        assert "all sound" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fourier"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_models_lists_registry(self, capsys):
        from repro.core.registry import model_names

        out = self.run(capsys, "models")
        for name in model_names():
            assert name in out

    def test_models_export_json(self, capsys, tmp_path):
        import json

        from repro.core.registry import model_names

        path = tmp_path / "models.json"
        out = self.run(capsys, "models", "--export", str(path))
        assert "wrote" in out
        rows = json.loads(path.read_text())
        assert [row["model"] for row in rows] == list(model_names())

    def test_figure4_model_flag(self, capsys):
        out = self.run(capsys, "figure4", "--model", "ilp-ptac-tc")
        assert "ilp-ptac-tc" in out
        assert "ftc-refined" not in out

    def test_figure4_unknown_model_fails_helpfully(self, capsys):
        assert main(["figure4", "--model", "magic"]) == 2
        err = capsys.readouterr().err
        assert "unknown model" in err and "ilp-ptac" in err

    def test_run_model_flag(self, capsys):
        out = self.run(
            capsys, "run", "scenario1-pair-L", "--model", "ftc-refined"
        )
        assert "ftc-refined" in out

    def test_cache_dir_reuses_results(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        first = self.run(
            capsys, "figure4", "--cache-dir", str(cache_dir)
        )
        assert list(cache_dir.rglob("*.pkl"))  # results persisted
        second = self.run(
            capsys, "figure4", "--cache-dir", str(cache_dir)
        )
        assert first == second

    def test_figure4_export_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "f4.json"
        out = self.run(capsys, "figure4", "--export", str(path))
        assert "wrote" in out
        rows = json.loads(path.read_text())
        assert rows[0]["delta_cycles"] == 12_964_270

    def test_sweep_export_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        self.run(capsys, "sweep", "--export", str(path))
        assert "scale,delta_cycles" in path.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table6", "--scale", "0"],
            ["ablation", "--scale", "0"],
            ["three-core", "--scale", "0"],
            ["figure4", "--mode", "sim", "--scale", "0"],
            ["soundness", "--pairs", "0"],
            ["soundness", "--pairs", "-1"],
            ["figure4", "--jobs", "-2"],
            ["matrix", "--jobs", "0"],
            [
                "submit", "--coordinator", "http://127.0.0.1:1",
                "soundness", "--pairs", "0",
            ],
        ],
        ids=" ".join,
    )
    def test_count_flags_reject_less_than_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["soundness", "--requests", "0"],
            [
                "submit", "--coordinator", "http://127.0.0.1:1",
                "soundness", "--requests", "0",
            ],
            *(
                ["watch", "abc", "--coordinator", "http://127.0.0.1:1",
                 flag, value]
                for flag, value in (
                    ("--poll", "0"),
                    ("--poll", "-1"),
                    ("--poll", "nan"),
                    ("--poll", "1e300"),
                    ("--poll", "9e9"),
                    ("--timeout", "nan"),
                    ("--timeout", "inf"),
                    ("--timeout", "0"),
                )
            ),
            ["serve", "--port", "0", "--lease-seconds", "0"],
            ["serve", "--port", "0", "--lease-seconds", "nan"],
            ["serve", "--port", "0", "--worker-ttl", "-1"],
            ["serve", "--port", "0", "--worker-ttl", "inf"],
        ],
        ids=" ".join,
    )
    def test_requests_flag_rejected_before_any_network_call(
        self, capsys, monkeypatch, argv
    ):
        """A bad count or duration flag (the one before the last word)
        is a usage error before any request is sent or port bound."""

        def no_network(*args, **kwargs):
            raise AssertionError("contacted the network")

        monkeypatch.setattr("urllib.request.urlopen", no_network)
        monkeypatch.setattr("socket.socket.bind", no_network)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be " in err
        if argv[-2] == "--requests":
            assert "must be at least 1" in err
        elif argv[-1] in ("1e300", "9e9"):  # finite, but too long to sleep
            assert (
                f"must be at most {_MAX_DURATION_S:g} seconds, got {argv[-1]}"
                in err
            )
        else:
            assert f"must be a finite number above 0, got {argv[-1]}" in err

    def test_longest_duration_still_sleeps_at_full_jitter(self):
        """``watch --poll`` takes up to ``_MAX_DURATION_S``, and the poll
        backoff may stretch a delay by its 10% jitter: even then the
        sleep must start.  ``time.sleep`` raises at once on a duration it
        refuses, so a sleeper still alive after a short join passed."""

        class HighestJitter(random.Random):
            def uniform(self, a, b):
                return b

        backoff = RetryPolicy(
            initial=_MAX_DURATION_S,
            multiplier=1.6,
            max_delay=_MAX_DURATION_S,
        ).backoff(rng=HighestJitter())
        errors = []

        def sleeper():
            try:
                backoff.sleep()
            except (OverflowError, OSError, ValueError) as exc:
                errors.append(exc)

        thread = threading.Thread(target=sleeper, daemon=True)
        thread.start()
        thread.join(0.2)
        assert errors == []
        assert thread.is_alive()

    @pytest.mark.parametrize("command", ["figure4", "models"])
    def test_unwritable_export_path_is_a_usage_error(
        self, capsys, tmp_path, command
    ):
        path = tmp_path / "missing" / "out.json"
        assert main([command, "--export", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write export" in err and str(path) in err
