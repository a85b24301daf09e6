"""Tests for the Table 2 latency profile."""

import pytest

from repro.errors import PlatformError
from repro.platform.latency import (
    LatencyProfile,
    TargetTiming,
    tc27x_latency_profile,
)
from repro.platform.targets import Operation, Target


@pytest.fixture(scope="module")
def profile():
    return tc27x_latency_profile()


class TestTable2Values:
    """The profile must encode Table 2 verbatim."""

    @pytest.mark.parametrize(
        "target,l_max",
        [(Target.LMU, 11), (Target.PF0, 16), (Target.PF1, 16), (Target.DFL, 43)],
    )
    def test_l_max(self, profile, target, l_max):
        assert profile.timing(target).l_max == l_max

    @pytest.mark.parametrize(
        "target,l_min",
        [(Target.LMU, 11), (Target.PF0, 12), (Target.PF1, 12), (Target.DFL, 43)],
    )
    def test_l_min(self, profile, target, l_min):
        assert profile.min_latency(target) == l_min

    def test_lmu_dirty_latency(self, profile):
        assert profile.timing(Target.LMU).l_max_dirty == 21

    @pytest.mark.parametrize(
        "target,cs",
        [(Target.LMU, 11), (Target.PF0, 6), (Target.PF1, 6)],
    )
    def test_cs_code(self, profile, target, cs):
        assert profile.stall_cycles(target, Operation.CODE) == cs

    @pytest.mark.parametrize(
        "target,cs",
        [
            (Target.LMU, 10),
            (Target.PF0, 11),
            (Target.PF1, 11),
            (Target.DFL, 42),
        ],
    )
    def test_cs_data(self, profile, target, cs):
        assert profile.stall_cycles(target, Operation.DATA) == cs

    def test_dflash_has_no_code_stall(self, profile):
        with pytest.raises(PlatformError):
            profile.stall_cycles(Target.DFL, Operation.CODE)


class TestOneProfilePerProcess:
    def test_every_call_returns_the_table2_profile(self):
        first = tc27x_latency_profile()
        assert tc27x_latency_profile() is first
        columns = ("l_max", "l_max_dirty", "l_min", "cs_code", "cs_data")
        table2 = {
            "lmu": (11, 21, 11, 11, 10),
            "pf0": (16, None, 12, 6, 11),
            "pf1": (16, None, 12, 6, 11),
            "dfl": (43, None, 43, None, 42),
        }
        assert first.as_table() == {
            target: dict(zip(columns, row)) for target, row in table2.items()
        }


class TestDerivedQuantities:
    """Eqs. 2-3 and 6-7 over the architectural target sets."""

    def test_cs_min_code_is_6(self, profile):
        # Eq. 2: min(cs^{pf0,co}, cs^{pf1,co}, cs^{lmu,co}) = min(6,6,11).
        assert profile.cs_min(Operation.CODE) == 6

    def test_cs_min_data_is_10(self, profile):
        # Eq. 3: min over pf0/pf1/lmu/dfl data stalls = min(11,11,10,42).
        assert profile.cs_min(Operation.DATA) == 10

    def test_cs_min_restricted_targets(self, profile):
        assert profile.cs_min(Operation.DATA, targets=(Target.DFL,)) == 42
        assert (
            profile.cs_min(Operation.CODE, targets=(Target.LMU,)) == 11
        )

    def test_cs_min_empty_target_set_raises(self, profile):
        with pytest.raises(PlatformError):
            profile.cs_min(Operation.CODE, targets=(Target.DFL,))

    def test_latency_dirty_only_for_data(self, profile):
        # A code fetch can never be a dirty eviction.
        assert profile.latency(Target.LMU, Operation.CODE, dirty=True) == 11
        assert profile.latency(Target.LMU, Operation.DATA, dirty=True) == 21

    def test_latency_dirty_ignored_without_dirty_value(self, profile):
        assert profile.latency(Target.PF0, Operation.DATA, dirty=True) == 16


class TestValidation:
    def test_lmin_above_lmax_rejected(self):
        with pytest.raises(PlatformError):
            TargetTiming(l_max=10, l_min=12, cs_data=5)

    def test_dirty_below_lmax_rejected(self):
        with pytest.raises(PlatformError):
            TargetTiming(l_max=11, l_min=11, cs_data=10, l_max_dirty=9)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(PlatformError):
            TargetTiming(l_max=0, l_min=0, cs_data=1)
        with pytest.raises(PlatformError):
            TargetTiming(l_max=5, l_min=5, cs_data=0)

    def test_profile_requires_all_targets(self):
        with pytest.raises(PlatformError):
            LatencyProfile(
                {Target.LMU: TargetTiming(l_max=11, l_min=11, cs_data=10, cs_code=11)}
            )

    def test_profile_rejects_code_stall_on_dflash(self):
        timings = {
            Target.LMU: TargetTiming(l_max=11, l_min=11, cs_code=11, cs_data=10),
            Target.PF0: TargetTiming(l_max=16, l_min=12, cs_code=6, cs_data=11),
            Target.PF1: TargetTiming(l_max=16, l_min=12, cs_code=6, cs_data=11),
            Target.DFL: TargetTiming(l_max=43, l_min=43, cs_data=42, cs_code=40),
        }
        with pytest.raises(PlatformError):
            LatencyProfile(timings)

    def test_profile_requires_code_stall_where_code_allowed(self):
        timings = {
            Target.LMU: TargetTiming(l_max=11, l_min=11, cs_data=10),  # no cs_code
            Target.PF0: TargetTiming(l_max=16, l_min=12, cs_code=6, cs_data=11),
            Target.PF1: TargetTiming(l_max=16, l_min=12, cs_code=6, cs_data=11),
            Target.DFL: TargetTiming(l_max=43, l_min=43, cs_data=42),
        }
        with pytest.raises(PlatformError):
            LatencyProfile(timings)

    def test_as_table_shape(self, profile):
        table = profile.as_table()
        assert set(table) == {"dfl", "pf0", "pf1", "lmu"}
        assert table["lmu"]["l_max_dirty"] == 21
        assert table["dfl"]["cs_code"] is None
