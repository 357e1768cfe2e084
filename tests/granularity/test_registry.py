"""Tests for GranularitySystem registration and resolution."""

import pytest

from repro.granularity import (
    BusinessDayType,
    GranularitySystem,
    GroupedType,
    UniformType,
    day,
    month,
    standard_system,
)
from repro.granularity.base import TemporalType
from repro.granularity.gregorian import SECONDS_PER_DAY as DAY


class SweepOnly(TemporalType):
    """Fixed-width ticks declaring no period, so no normal form exists
    and the system falls back to comparing tick bounds; ``skew_at``
    moves that one tick's last second one earlier."""

    def __init__(self, label, width, skew_at=None):
        self.label = label
        self.width = width
        self.skew_at = skew_at

    def tick_of(self, second):
        index = second // self.width
        if second == self.tick_bounds(index)[1] + 1:
            return None
        return index

    def tick_bounds(self, index):
        if index < 0:
            raise ValueError(index)
        last = (index + 1) * self.width - 1
        return index * self.width, last - (index == self.skew_at)


class TestRegistration:
    def test_register_and_get(self):
        system = GranularitySystem([day()])
        assert system.get("day").label == "day"
        assert "day" in system
        assert "week" not in system

    def test_reregistering_same_label_is_noop(self):
        system = GranularitySystem([day()])
        again = system.register(day())
        assert again.label == "day"
        assert system.labels() == ["day"]

    def test_conflicting_label_rejected(self):
        system = GranularitySystem([day()])
        impostor = UniformType("day", 3600)
        with pytest.raises(ValueError):
            system.register(impostor)

    def test_late_holiday_is_not_aliased_to_holiday_free_bday(self):
        # The two calendars agree on their first ~1000 days, so a
        # leading-tick sample cannot tell them apart; their normal
        # forms can.
        system = standard_system()
        late = BusinessDayType(holidays=(1001,))
        assert system.get("b-day").tick_of(1001 * DAY) is not None
        assert late.tick_of(1001 * DAY) is None
        with pytest.raises(ValueError):
            system.register(late)

    def test_equal_forms_alias_whatever_the_label_provenance(self):
        system = standard_system()
        assert system.register(BusinessDayType()) is system.get("b-day")

    def test_non_lowering_types_compare_over_the_horizon(self):
        far = SweepOnly("p", 3600)
        system = GranularitySystem([far], horizon=20)
        assert system.register(SweepOnly("p", 3600)) is far
        with pytest.raises(ValueError):
            system.register(SweepOnly("p", 3600, skew_at=19))
        # A difference past the horizon is outside the window the
        # sweep table trusts, so it does not make the types differ.
        assert system.register(SweepOnly("p", 3600, skew_at=20)) is far

    def test_resolve_accepts_type_or_label(self):
        system = GranularitySystem([month()])
        assert system.resolve("month").label == "month"
        grouped = GroupedType(month(), 3)
        resolved = system.resolve(grouped)
        assert resolved.label == "3-month"
        assert "3-month" in system

    def test_resolve_rejects_other_objects(self):
        system = GranularitySystem()
        with pytest.raises(TypeError):
            system.resolve(42)

    def test_unknown_label_raises(self):
        system = GranularitySystem()
        with pytest.raises(KeyError):
            system.get("nope")

    def test_bad_conversion_mode_rejected(self):
        with pytest.raises(ValueError):
            GranularitySystem(conversion_mode="psychic")


class TestStandardSystem:
    def test_contains_paper_types(self, system):
        assert set(
            [
                "second",
                "minute",
                "hour",
                "day",
                "week",
                "month",
                "year",
                "b-day",
                "b-week",
                "business-month",
            ]
        ) <= set(system.labels())

    def test_holidays_flow_into_business_types(self):
        system = standard_system(holidays=[2])
        bday = system.get("b-day")
        assert bday.tick_of(2 * 86400) is None

    def test_tables_are_cached(self, system):
        assert system.table("month") is system.table("month")

    def test_feasibility_is_cached(self, system):
        first = system.conversion_feasible("day", "b-day")
        second = system.conversion_feasible("day", "b-day")
        assert first is second is False

    def test_same_label_feasible(self, system):
        assert system.conversion_feasible("day", "day")
