"""Differential oracle for the exact A.1 coverage decision.

``GranularitySystem.conversion_feasible`` decides whether a target type
covers a source type as containment of the two types' cover sets over
one common cycle.  Hypothesis draws random uniform, periodic-pattern,
holiday business-day and grouped types and compares every decision
with :func:`~tests.oracles.brute_force_covered_by`, which probes the
types' own ``tick_of`` over the same cycle; the stock system's pairs
are compared the same way under several holiday lists.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.granularity import (
    BusinessDayType,
    ConversionCache,
    GranularitySystem,
    GroupedType,
    PeriodicPatternType,
    UniformType,
    standard_system,
)
from repro.granularity.gregorian import SECONDS_PER_DAY
from repro.granularity.normalform import cached_normal_form

from ..oracles import brute_force_covered_by

DAY = SECONDS_PER_DAY
WEEK = 7 * DAY


def _holiday_start(holidays):
    """First instant after the week of the last holiday."""
    return (max(holidays) // 7 + 1) * WEEK if holidays else 0


# Each strategy draws ``(make, cycle)``: a label -> type factory and the
# ``(periodic_start, period_seconds)`` of the type's covered instants,
# derived from the construction parameters alone.
@st.composite
def uniform_types(draw, unit):
    size = draw(st.integers(1, 6)) * unit
    phase = draw(st.integers(0, 3)) * unit
    return (lambda label: UniformType(label, size, phase=phase)), (phase, size)


@st.composite
def pattern_types(draw, unit):
    # Zero gaps make touching ticks, and a zero tail makes the last
    # tick touch the next cycle's first: both must merge into one run.
    pieces = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 4)),
            min_size=1,
            max_size=5,
        )
    )
    segments, at = [], 0
    for gap, length in pieces:
        segments.append(((at + gap) * unit, length * unit))
        at += gap + length
    cycle = (at + draw(st.integers(0, 3))) * unit
    phase = draw(st.integers(0, 3)) * unit

    def make(label):
        return PeriodicPatternType(label, cycle, segments, phase=phase)

    return make, (phase, cycle)


@st.composite
def holiday_bdays(draw):
    workdays = draw(st.sets(st.integers(0, 6), min_size=1))
    holidays = draw(st.sets(st.integers(0, 40), max_size=4))

    def make(label):
        return BusinessDayType(label, workdays=workdays, holidays=holidays)

    return make, (_holiday_start(holidays), WEEK)


@st.composite
def grouped_types(draw, leaves):
    make_base, (start, period) = draw(leaves)
    n = draw(st.integers(1, 3))
    offset = draw(st.integers(0, 3))

    def make(label):
        return GroupedType(make_base(label + "-base"), n, label, offset)

    # The grouped instants are the base's from base tick ``offset`` on.
    first = make_base("probe").tick_bounds(offset)[0]
    return make, (max(start, first), period)


def typed(unit):
    leaves = [uniform_types(unit), pattern_types(unit)]
    if unit == DAY:
        leaves.append(holiday_bdays())
    leaf = st.one_of(leaves)
    return st.one_of(leaf, grouped_types(leaf))


def _check(source_spec, target_spec, stride):
    (make_source, source_cycle), (make_target, target_cycle) = (
        source_spec,
        target_spec,
    )
    source, target = make_source("source"), make_target("target")
    for ttype in (source, target):
        form = cached_normal_form(ttype)
        assert form is not None and form.cover() is not None, ttype
    system = GranularitySystem([source, target], cache=ConversionCache())
    expected = brute_force_covered_by(
        source, target, (source_cycle, target_cycle), stride
    )
    assert system.conversion_feasible("source", "target") == expected


@given(source=typed(1), target=typed(1))
@settings(max_examples=150, deadline=None)
def test_second_level_decisions_match_oracle(source, target):
    _check(source, target, 1)


@given(source=typed(DAY), target=typed(DAY))
@settings(max_examples=150, deadline=None)
def test_day_level_decisions_match_oracle(source, target):
    _check(source, target, DAY)


@pytest.mark.parametrize("holidays", [(), (1001,), (3, 40, 1001)])
def test_stock_pairs_match_oracle(holidays):
    system = standard_system(holidays=holidays, cache=ConversionCache())
    system.register(GroupedType(system.get("month"), 3, label="quarter"))
    # Total types cover everything from 0; the business types cover
    # weekly-periodic days once the holidays are past.
    cycles = {
        label: (0, 1)
        if system.get(label).total
        else (_holiday_start(holidays), WEEK)
        for label in system.labels()
    }
    for target in system.labels():
        for source in system.labels():
            if source == target:
                continue
            expected = brute_force_covered_by(
                system.get(source),
                system.get(target),
                (cycles[source], cycles[target]),
                DAY,
            )
            assert system.conversion_feasible(source, target) == expected, (
                source,
                target,
            )
