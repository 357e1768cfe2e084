"""Differential oracle: batched frontier scanning vs single-candidate.

Running each candidate alone is the differential reference: the
banked :class:`~repro.automata.dense.DenseBatch` tables and the
:class:`~repro.automata.dense.BatchRuntime` frontier sweep are only
allowed to exist because they are *bit-identical* to each candidate's
own dense automaton and its object-path run - same match sets, same
bindings, same support counts, same mining fingerprints.  Hypothesis generates
candidate frontiers (several assignments of one structure, mixed
granularities, duplicate timestamps) and shrinks any disagreement; the
``kernel`` fixture replays every property under both the numpy and the
pure-Python ``array`` columnar kernels.

The chaos half of the suite covers the zero-copy shard transport:
refcounted :class:`~repro.store.columnar.SharedColumns` unlink
exactly once, a worker that dies without detaching leaks no
``/dev/shm`` segment, the mmap-file fallback honours the same
contract, and an orchestration failure mid-scan still reaches the
owner's ``close()``.
"""

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mining.discovery as discovery_module
import repro.store.columnar as columnar_module
from repro.automata.builder import build_tag
from repro.automata.dense import (
    BatchRuntime,
    DenseRuntime,
    compile_dense,
    compile_dense_batch,
)
from repro.automata.matching import TagMatcher, batch_matching_roots
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.mining.discovery import EventDiscoveryProblem, discover
from repro.mining.events import EventSequence
from repro.parallel import fork_available, parallel_scan
from repro.store import ColumnarEventStore
from repro.store.columnar import attach_shared

from ..oracles import ObjectSequence, reference_scan

SYSTEM = standard_system()

KERNELS = ["numpy", "fallback"]

RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Run the test under one columnar kernel (numpy or ``array``)."""
    if request.param == "numpy":
        if columnar_module._np is None:
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(columnar_module, "_np", None)
    return request.param


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
@st.composite
def frontier_cases(draw):
    """A candidate frontier over one structure plus a random store."""
    shape = draw(st.sampled_from(["chain2", "chain3", "fan"]))
    if shape == "chain2":
        names, arcs = ["R", "A"], [("R", "A")]
    elif shape == "chain3":
        names, arcs = ["R", "A", "B"], [("R", "A"), ("A", "B")]
    else:
        names, arcs = ["R", "A", "B"], [("R", "A"), ("R", "B")]
    constraints = {}
    for arc in arcs:
        label = draw(st.sampled_from(["minute", "hour", "day"]))
        m = draw(st.integers(0, 2))
        span = draw(st.integers(0, 3))
        constraints[arc] = [TCG(m, m + span, SYSTEM.get(label))]
    structure = EventStructure(names, constraints)
    types = ["t%d" % i for i in range(draw(st.integers(2, 3)))]
    # The frontier: every assignment of the non-root variables to the
    # type pool, all anchored on "r" - the multi-candidate shape the
    # batch compiler banks together.
    frontier = [{"R": "r"}]
    for variable in names[1:]:
        frontier = [
            dict(assignment, **{variable: t})
            for assignment in frontier
            for t in types
        ]
    slots = draw(
        st.lists(st.integers(0, 300), min_size=3, max_size=30)
    )
    events = [
        (
            "r" if draw(st.booleans()) else draw(st.sampled_from(types)),
            slot * 900,
        )
        for slot in slots
    ]
    sequence = EventSequence(sorted(events, key=lambda e: e[1]))
    horizon = draw(st.sampled_from([None, 3600, 90_000, 400_000]))
    strict = draw(st.booleans())
    return structure, frontier, sequence, horizon, strict


def _build_matchers(structure, frontier, horizon, strict):
    return [
        TagMatcher(
            build_tag(
                ComplexEventType(structure, assignment), system=SYSTEM
            ),
            strict=strict,
            horizon_seconds=horizon,
        )
        for assignment in frontier
    ]


# ----------------------------------------------------------------------
# Match sets and bindings
# ----------------------------------------------------------------------
class TestMatchSets:
    @given(case=frontier_cases())
    @RELAXED
    def test_batched_match_sets_equal_single(self, kernel, case):
        """batch_matching_roots == each matcher's own dense scan == its
        object path, for any frontier/store/kernel combination."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        batched = batch_matching_roots(matchers, sequence)
        single = [list(m.matching_roots(sequence)) for m in matchers]
        object_path = batch_matching_roots(
            matchers, ObjectSequence(sequence)
        )
        assert batched == single == object_path

    @given(case=frontier_cases())
    @RELAXED
    def test_match_many_bindings_equal_dense_runtime(self, kernel, case):
        """Per-root outcomes - including variable bindings - from one
        BatchRuntime sweep equal each member's own DenseRuntime run."""
        structure, frontier, sequence, horizon, strict = case
        matchers = _build_matchers(structure, frontier, horizon, strict)
        store = sequence.columnar()
        denses = [compile_dense(m.tag) for m in matchers]
        root_symbol = matchers[0].build.root_symbol
        for positions, batch in compile_dense_batch(denses):
            runtime = BatchRuntime(
                batch,
                store,
                root_symbol,
                structure.root,
                strict=strict,
                horizon_seconds=horizon,
            )
            roots = [
                i for i in range(len(sequence)) if sequence[i].etype == "r"
            ]
            singles = [
                DenseRuntime(
                    denses[p],
                    store,
                    root_symbol,
                    structure.root,
                    strict=strict,
                    horizon_seconds=horizon,
                )
                for p in positions
            ]
            for root in roots:
                outcomes = runtime.match_many(root)
                for k in range(len(positions)):
                    assert outcomes[k] == singles[k].match(root)


# ----------------------------------------------------------------------
# Mining fingerprints
# ----------------------------------------------------------------------
def _fingerprint(outcome):
    return (
        sorted(
            str(sorted(assignment.items()))
            for assignment in outcome.solution_assignments()
        ),
        {
            str(sorted(cet.assignment.items())): freq
            for cet, freq in outcome.frequencies.items()
        },
        outcome.candidates_evaluated,
        outcome.automaton_starts,
    )


@st.composite
def mining_cases(draw):
    hour = SYSTEM.get("hour")
    structure = EventStructure(
        ["R", "A", "B"],
        {
            ("R", "A"): [TCG(0, draw(st.integers(1, 3)), hour)],
            ("A", "B"): [TCG(0, draw(st.integers(1, 3)), hour)],
        },
    )
    types = ["r"] + ["t%d" % i for i in range(draw(st.integers(1, 3)))]
    slots = draw(
        st.lists(st.integers(0, 96), min_size=4, max_size=26, unique=True)
    )
    events = [
        (draw(st.sampled_from(types)), slot * 1800)
        for slot in sorted(slots)
    ]
    confidence = draw(st.sampled_from([0.0, 0.25, 0.5]))
    problem = EventDiscoveryProblem(structure, confidence, "r")
    return problem, EventSequence(events)


class TestMiningFingerprints:
    @given(case=mining_cases())
    @RELAXED
    def test_discover_identical_under_batch_on_off(
        self, kernel, monkeypatch, case
    ):
        problem, sequence = case
        batched = discover(problem, sequence, SYSTEM)
        with monkeypatch.context() as patch:
            patch.setattr(discovery_module, "_batched_scan", reference_scan)
            reference = discover(problem, sequence, SYSTEM)
        assert _fingerprint(batched) == _fingerprint(reference)


# ----------------------------------------------------------------------
# Shared-memory chaos
# ----------------------------------------------------------------------
def _store():
    return ColumnarEventStore.from_events(
        [("a", 0), ("b", 1800), ("a", 3600), ("c", 5400)]
    )


class TestSharedColumnsLifecycle:
    def test_refcounted_unlink_exactly_once(self):
        before = _shm_segments()
        owner = _store().to_shared()
        if owner.kind != "shm":
            pytest.skip("shared_memory unavailable on this platform")
        assert owner.refs == 1
        owner.acquire()
        assert owner.refs == 2
        owner.close()
        # Still one reference: the segment must survive.
        assert _shm_segments() - before
        owner.close()
        assert _shm_segments() == before
        # Idempotent once fully closed.
        owner.close()
        assert _shm_segments() == before
        with pytest.raises(RuntimeError):
            owner.acquire()

    def test_attach_roundtrip_is_bit_identical(self):
        store = _store()
        with store.to_shared() as owner:
            attached = attach_shared(owner.handle())
            assert attached is not None
            assert len(attached) == len(store)
            for i in range(len(store)):
                assert attached.type_at(i) == store.type_at(i)
                assert attached.time_at(i) == store.time_at(i)

    def test_file_fallback_transport(self, monkeypatch):
        """When segment creation fails the export falls back to an
        mmap file - same attach contract, and close() deletes it."""
        import multiprocessing.shared_memory as shm_module

        def refuse(*args, **kwargs):
            raise OSError("no shm for you")

        monkeypatch.setattr(shm_module, "SharedMemory", refuse)
        store = _store()
        owner = store.to_shared()
        assert owner.kind == "file"
        path = owner.name
        assert os.path.exists(path)
        attached = attach_shared(owner.handle())
        assert attached is not None
        assert [attached.type_at(i) for i in range(len(store))] == [
            store.type_at(i) for i in range(len(store))
        ]
        owner.close()
        assert not os.path.exists(path)


@pytest.mark.skipif(
    not fork_available(), reason="no fork start method on this platform"
)
class TestWorkerCrashChaos:
    def test_crashed_attacher_leaks_no_segment(self):
        """A forked child that attaches and dies without detaching
        must not leak the segment: the owner's unlink wins."""
        import multiprocessing

        before = _shm_segments()
        owner = _store().to_shared()
        if owner.kind != "shm":
            owner.close()
            pytest.skip("shared_memory unavailable on this platform")
        handle = owner.handle()
        ctx = multiprocessing.get_context("fork")

        def crash(handle):
            store = attach_shared(handle)
            assert store is not None and len(store) == 4
            os._exit(17)  # simulated crash: no detach, no cleanup

        child = ctx.Process(target=crash, args=(handle,))
        child.start()
        child.join(30)
        assert child.exitcode == 17
        # The parent still owns the segment after the crash...
        assert _shm_segments() - before
        owner.close()
        # ...and its single unlink reclaims it.
        assert _shm_segments() == before

    def test_engine_failure_mid_scan_still_unlinks(self, monkeypatch):
        """An orchestration failure after the shard export must still
        reach the owner's close() - no segment survives the wreck."""
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        from repro.parallel import stealing

        hour = SYSTEM.get("hour")
        structure = EventStructure(
            ["R", "A"], {("R", "A"): [TCG(0, 1, hour)]}
        )
        sequence = EventSequence(
            [("r", 0), ("a", 1800), ("r", 40_000), ("a", 41_000)]
        )
        sequence.columnar()

        def explode(self, lane):
            raise RuntimeError("scheduler wrecked mid-scan")

        monkeypatch.setattr(stealing.StealScheduler, "next_for", explode)
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="wrecked"):
            parallel_scan(
                sequence,
                SYSTEM,
                structure,
                [{"R": "r", "A": "a"}, {"R": "r", "A": "b"}],
                {"A": (0, 7200)},
                [0, 2],
                7200,
                workers=2,
                executor="pool",
            )
        assert _shm_segments() == before

    def test_pool_scan_leaves_no_segments(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        hour = SYSTEM.get("hour")
        structure = EventStructure(
            ["R", "A"], {("R", "A"): [TCG(0, 1, hour)]}
        )
        sequence = EventSequence(
            [("r", 0), ("a", 1800), ("r", 40_000), ("a", 41_000)]
        )
        sequence.columnar()
        before = _shm_segments()
        results, report = parallel_scan(
            sequence,
            SYSTEM,
            structure,
            [{"R": "r", "A": "a"}, {"R": "r", "A": "b"}],
            {"A": (0, 7200)},
            [0, 2],
            7200,
            workers=2,
            executor="pool",
        )
        assert report["executor"] == "pool"
        assert report["shm"] in ("shm", "file")
        assert [r.hits for r in results] == [2, 0]
        assert _shm_segments() == before
