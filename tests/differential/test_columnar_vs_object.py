"""Differential oracle: columnar batch matching vs the object path.

The columnar backend - the route of every sequence offering a
``columnar()`` view - is only allowed to exist because it is
*bit-identical* to the object-based reference: same match sets, same
bindings, same anchor-index answers, same mining outcomes.
Hypothesis generates the stores and the patterns and shrinks any
disagreement to a minimal counterexample; the ``kernel`` fixture runs
every property under both the numpy and the pure-Python ``array``
kernels in one process (CI additionally runs the whole suite under
``REPRO_NO_NUMPY=1``).

Duplicate timestamps are generated on purpose (times are drawn with
replacement) and horizons are drawn from *realised event-time
differences*, so deadline comparisons land exactly on event boundaries
- the straddling cases where an off-by-one in the bisection cut would
show up.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mining.discovery as discovery_module
import repro.store.columnar as columnar_module
from repro.automata import TagMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.mining.discovery import EventDiscoveryProblem, discover
from repro.mining.events import Event, EventSequence
from repro.store import ColumnarEventStore
from repro.store.anchorindex import AnchorIndex

from ..oracles import ObjectSequence, reference_scan
from ..strategies import rooted_dags

SYSTEM = standard_system()

KERNELS = ["numpy", "fallback"]

RELAXED = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Run the test under one columnar kernel.

    ``fallback`` nulls the module's numpy binding, which every kernel
    branch consults dynamically - fresh views built under the patch use
    ``array('q')`` columns and bisect scans.
    """
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def stores_and_patterns(draw):
    """A random pattern plus a random store, duplicates included."""
    structure = draw(rooted_dags(max_nodes=4))
    types = ["e%d" % i for i in range(draw(st.integers(1, 3)))]
    assignment = {
        variable: draw(st.sampled_from(types))
        for variable in structure.variables
    }
    # Times drawn WITH replacement on a coarse grid: duplicate
    # timestamps are likely, which is exactly the tie-handling the
    # plan's bisect cuts must get right.
    slots = draw(
        st.lists(st.integers(0, 400), min_size=2, max_size=25)
    )
    events = [
        Event(draw(st.sampled_from(types + ["noise"])), slot * 1800)
        for slot in slots
    ]
    sequence = EventSequence(events)
    # Horizons drawn from realised time differences (plus a +-1 jitter
    # sometimes) make the deadline land exactly on event boundaries.
    horizon = None
    if draw(st.booleans()) and len(sequence) >= 2:
        i = draw(st.integers(0, len(sequence) - 2))
        j = draw(st.integers(i + 1, len(sequence) - 1))
        jitter = draw(st.sampled_from([-1, 0, 0, 0, 1]))
        horizon = max(0, sequence[j].time - sequence[i].time + jitter)
    strict = draw(st.booleans())
    return ComplexEventType(structure, assignment), sequence, horizon, strict


# ----------------------------------------------------------------------
# Property 1: match sets and bindings
# ----------------------------------------------------------------------
class TestMatchSets:
    @given(case=stores_and_patterns())
    @RELAXED
    def test_match_sets_and_bindings_identical(self, kernel, case):
        cet, sequence, horizon, strict = case
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM),
            strict=strict,
            horizon_seconds=horizon,
        )
        roots_object = list(
            matcher.matching_roots(ObjectSequence(sequence))
        )
        reference = {
            index: matcher.match_from(sequence, index)
            for index in sequence.occurrence_indices(
                matcher.build.root_symbol
            )
        }
        roots_columnar = list(matcher.matching_roots(sequence))
        runtime = matcher._columnar_runtime(sequence)
        assert runtime is not None
        for index, expected in reference.items():
            matched, bindings = runtime.match(index)
            assert matched == expected.matched, (
                "index %d: columnar=%s object=%s" % (
                    index, matched, expected.matched,
                )
            )
            assert bindings == expected.bindings
        assert roots_columnar == roots_object

    @given(case=stores_and_patterns())
    @RELAXED
    def test_anchor_screen_preserves_match_set(self, kernel, case):
        """Requirements derived from realised matches must not drop
        roots: the screened matching_roots equals the unscreened one
        when requirements are sound (here: the trivially sound
        whole-span window for each non-root variable)."""
        cet, sequence, horizon, strict = case
        if not len(sequence):
            return
        lo, hi = sequence.span()
        width = hi - lo
        requirements = [
            (cet.assignment[variable], -width, width)
            for variable in cet.structure.variables
            if variable != cet.structure.root
        ]
        build = build_tag(cet, system=SYSTEM)
        screened = TagMatcher(
            build,
            strict=strict,
            horizon_seconds=horizon,
            anchor_requirements=requirements,
        )
        plain = TagMatcher(build, strict=strict, horizon_seconds=horizon)
        got = list(screened.matching_roots(sequence))
        expected = list(plain.matching_roots(ObjectSequence(sequence)))
        assert got == expected


# ----------------------------------------------------------------------
# Property 2: anchor-index postings and window queries
# ----------------------------------------------------------------------
@st.composite
def stores_and_windows(draw):
    types = ["e%d" % i for i in range(draw(st.integers(1, 4)))]
    slots = draw(st.lists(st.integers(0, 500), min_size=0, max_size=40))
    events = [
        Event(draw(st.sampled_from(types)), slot * 900)
        for slot in slots
    ]
    sequence = EventSequence(events)
    windows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(types + ["absent"]),
                st.integers(-1000, 500 * 900),
                st.integers(-1000, 500 * 900),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return sequence, windows


class TestAnchorIndexParity:
    @given(case=stores_and_windows())
    @RELAXED
    def test_postings_and_window_queries_identical(self, kernel, case):
        sequence, windows = case
        view = ColumnarEventStore.from_sequence(sequence)
        index = AnchorIndex.from_events(
            (e.etype, e.time) for e in sequence
        )
        assert sorted(view.types()) == sorted(index.types())
        for etype in index.types():
            positions, times = view.postings(etype)
            assert positions == index.positions(etype)
            assert times == tuple(
                sequence[p].time for p in index.positions(etype)
            )
        for etype, start, stop in windows:
            assert view.has_in_window(etype, start, stop) == \
                index.has_in_window(etype, start, stop)
            assert view.count_in_window(etype, start, stop) == \
                index.count_in_window(etype, start, stop)
            assert view.positions_in_window(etype, start, stop) == \
                index.positions_in_window(etype, start, stop)
            if not view.may_contain(etype, start, stop):
                # may_contain must stay a sound over-approximation.
                assert not view.has_in_window(etype, start, stop)

    @given(case=stores_and_windows())
    @RELAXED
    def test_screen_anchors_equals_per_anchor_viability(
        self, kernel, case
    ):
        sequence, windows = case
        if not len(sequence):
            return
        view = ColumnarEventStore.from_sequence(sequence)
        index = AnchorIndex.from_events(
            (e.etype, e.time) for e in sequence
        )
        anchor_times = [e.time for e in sequence]
        requirements = [
            (etype, min(lo, hi), max(lo, hi))
            for etype, lo, hi in windows[:3]
        ]
        mask = view.screen_anchors(anchor_times, requirements)
        assert mask == [
            index.viable(time, requirements) for time in anchor_times
        ]


# ----------------------------------------------------------------------
# Property 3: mining outcomes
# ----------------------------------------------------------------------
@st.composite
def mining_cases(draw):
    hour = SYSTEM.get("hour")
    m1 = draw(st.integers(0, 2))
    m2 = draw(st.integers(0, 2))
    structure = EventStructure(
        ["X0", "X1", "X2"],
        {
            ("X0", "X1"): [TCG(m1, m1 + draw(st.integers(0, 2)), hour)],
            ("X1", "X2"): [TCG(m2, m2 + draw(st.integers(0, 2)), hour)],
        },
    )
    types = ["ref", "a", "b"]
    slots = draw(st.lists(st.integers(0, 60), min_size=3, max_size=25))
    events = [
        Event(draw(st.sampled_from(types)), slot * 1800)
        for slot in slots
    ]
    confidence = draw(st.sampled_from([0.0, 0.25, 0.5]))
    return structure, EventSequence(events), confidence


def _outcome_fingerprint(outcome):
    return (
        sorted(
            tuple(sorted(cet.assignment.items()))
            for cet in outcome.solutions
        ),
        {
            tuple(sorted(cet.assignment.items())): frequency
            for cet, frequency in outcome.frequencies.items()
        },
        outcome.candidates_evaluated,
        outcome.automaton_starts,
    )


class TestMiningParity:
    @given(case=mining_cases())
    @RELAXED
    def test_mining_outcomes_identical(self, kernel, monkeypatch, case):
        structure, sequence, confidence = case
        problem = EventDiscoveryProblem(
            structure=structure,
            min_confidence=confidence,
            reference_type="ref",
            candidates={"X1": frozenset(["a", "b"]), "X2": None},
        )
        fast = discover(problem, sequence, SYSTEM)
        with monkeypatch.context() as patch:
            patch.setattr(discovery_module, "_batched_scan", reference_scan)
            reference = discover(problem, sequence, SYSTEM)
        assert _outcome_fingerprint(fast) == _outcome_fingerprint(
            reference
        )


# ----------------------------------------------------------------------
# Targeted edges: horizon straddling, duplicates, granularity gaps
# ----------------------------------------------------------------------
def _chain_cet(gap_lo, gap_hi, granularity="hour"):
    g = SYSTEM.get(granularity)
    structure = EventStructure(
        ["X0", "X1"], {("X0", "X1"): [TCG(gap_lo, gap_hi, g)]}
    )
    return ComplexEventType(structure, {"X0": "A", "X1": "B"})


class TestTargetedEdges:
    def assert_parity(self, matcher, sequence):
        expected = list(matcher.matching_roots(ObjectSequence(sequence)))
        got = list(matcher.matching_roots(sequence))
        assert got == expected
        return expected

    def test_deadline_exactly_on_match_event(self, kernel):
        cet = _chain_cet(0, 2)
        sequence = EventSequence(
            [Event("A", 0), Event("B", 7200)]
        )
        # deadline == the B event's time: included on both paths.
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM), horizon_seconds=7200
        )
        assert self.assert_parity(matcher, sequence) == [0]
        # one second short: excluded on both paths.
        matcher = TagMatcher(
            build_tag(cet, system=SYSTEM), horizon_seconds=7199
        )
        assert self.assert_parity(matcher, sequence) == []

    def test_duplicate_timestamps_at_deadline(self, kernel):
        cet = _chain_cet(1, 1)
        sequence = EventSequence(
            [
                Event("A", 0),
                Event("B", 3600),
                Event("B", 3600),
                Event("A", 3600),
                Event("B", 7200),
            ]
        )
        for horizon in (3600, 3599, 7200, None):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), horizon_seconds=horizon
            )
            self.assert_parity(matcher, sequence)

    def test_strict_granularity_gap_kills_runs_on_both_paths(
        self, kernel
    ):
        """b-day gaps: a weekend event kills strict runs (even though
        nothing consumes it) and is ignored by lazy runs."""
        day = 86400
        cet = _chain_cet(1, 5, granularity="b-day")
        sequence = EventSequence(
            [
                Event("A", 0),  # Monday
                Event("noise", 5 * day),  # Saturday: the gap
                Event("B", 7 * day),  # next Monday
            ]
        )
        for strict in (False, True):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), strict=strict
            )
            roots = self.assert_parity(matcher, sequence)
            assert roots == ([] if strict else [0])

    def test_strict_uncovered_root_rejected_on_both_paths(self, kernel):
        day = 86400
        cet = _chain_cet(1, 5, granularity="b-day")
        sequence = EventSequence(
            [Event("A", 5 * day), Event("B", 7 * day)]  # Saturday root
        )
        for strict in (False, True):
            matcher = TagMatcher(
                build_tag(cet, system=SYSTEM), strict=strict
            )
            self.assert_parity(matcher, sequence)

    def test_eventstore_columnar_view_and_invalidation(self, kernel):
        from repro.store import EventStore

        store = EventStore()
        store.append("A", 10, {"k": 1})
        store.append("B", 20)
        view = store.columnar()
        assert len(view) == 2
        assert view.attributes_at(0) == {"k": 1}
        assert view.record_id_at(1) == 1
        assert store.columnar() is view  # cached
        store.append("A", 30)
        fresh = store.columnar()
        assert fresh is not view  # any write invalidates
        assert len(fresh) == 3
