"""Tests for access profiles (PTACs)."""

import math

import pytest

from repro.core.ptac import AccessProfile, profile_from_pairs
from repro.errors import InvalidAccessError, ModelError
from repro.platform.targets import Operation, Target


@pytest.fixture()
def profile():
    return AccessProfile(
        task="t",
        counts={
            (Target.PF0, Operation.CODE): 100,
            (Target.PF1, Operation.CODE): 50,
            (Target.LMU, Operation.DATA): 200,
            (Target.DFL, Operation.DATA): 10,
        },
    )


class TestValidation:
    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidAccessError):
            AccessProfile("x", {(Target.DFL, Operation.CODE): 1})

    def test_negative_count_rejected(self):
        with pytest.raises(ModelError):
            AccessProfile("x", {(Target.LMU, Operation.DATA): -1})

    def test_non_integer_rejected(self):
        with pytest.raises(ModelError):
            AccessProfile("x", {(Target.LMU, Operation.DATA): 1.5})


class TestQueries:
    def test_count(self, profile):
        assert profile.count(Target.PF0, Operation.CODE) == 100
        assert profile.count(Target.LMU, Operation.CODE) == 0

    def test_op_totals_eq5(self, profile):
        # Eq. 5: n = n^co + n^da decomposed per target.
        assert profile.op_total(Operation.CODE) == 150
        assert profile.op_total(Operation.DATA) == 210
        assert profile.total == 360

    def test_target_total(self, profile):
        assert profile.target_total(Target.PF0) == 100
        assert profile.target_total(Target.LMU) == 200

    def test_nonzero_pairs_ordered(self, profile):
        pairs = profile.nonzero_pairs()
        assert pairs[0] == (Target.DFL, Operation.DATA)
        assert (Target.PF0, Operation.CODE) in pairs

    def test_targets_by_operation(self, profile):
        assert profile.targets(Operation.CODE) == (Target.PF0, Target.PF1)
        assert profile.targets(Operation.DATA) == (Target.DFL, Target.LMU)

    def test_as_rows(self, profile):
        rows = dict(profile.as_rows())
        assert rows["pf0,co"] == 100
        assert "lmu,co" not in rows


class TestTransformations:
    def test_scaled_rounds_up(self, profile):
        scaled = profile.scaled(1 / 3)
        assert scaled.count(Target.PF0, Operation.CODE) == 34  # ceil(100/3)
        assert scaled.count(Target.DFL, Operation.DATA) == 4

    def test_scaled_rejects_nonpositive(self, profile):
        with pytest.raises(ModelError):
            profile.scaled(0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_scaled_rejects_non_finite(self, profile, factor):
        with pytest.raises(ModelError, match="positive and finite"):
            profile.scaled(factor)

    def test_merged(self, profile):
        other = AccessProfile("u", {(Target.PF0, Operation.CODE): 7})
        merged = profile.merged(other)
        assert merged.count(Target.PF0, Operation.CODE) == 107
        assert merged.count(Target.LMU, Operation.DATA) == 200

    def test_profile_from_pairs_sums_duplicates(self):
        built = profile_from_pairs(
            "x",
            [
                (Target.LMU, Operation.DATA, 5),
                (Target.LMU, Operation.DATA, 3),
            ],
        )
        assert built.count(Target.LMU, Operation.DATA) == 8
