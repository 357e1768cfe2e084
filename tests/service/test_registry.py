"""LRU residency, spill, rehydration and WAL replay."""

import pytest

from repro.automata import StreamingMatcher, builder
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.io.serialize import streaming_matcher_from_checkpoint
from repro.obs import counter
from repro.service import MemoryCheckpointStore, SessionRegistry

H = 3600
EVENTS = [("a", 0), ("b", H), ("c", 2 * H)]


@pytest.fixture
def registry(chain_build, system):
    return SessionRegistry(
        MemoryCheckpointStore(),
        lambda: StreamingMatcher(chain_build),
        max_resident=2,
        system=system,
    )


def feed(registry, tenant, key, events):
    """Feed events the way the service does: WAL first, then matcher."""
    detections = []
    for etype, time in events:
        session, replayed = registry.acquire(tenant, key)
        assert not replayed
        session.seq += 1
        registry.store.append_wal(tenant, key, session.seq, etype, time)
        detections.extend(session.matcher.feed(etype, time))
    return detections


class TestResidency:
    def test_lru_eviction_order(self, registry):
        registry.acquire("t", "k1")
        registry.acquire("t", "k2")
        registry.acquire("t", "k1")  # k2 is now least recently used
        registry.acquire("t", "k3")  # forces one eviction
        assert registry.is_resident("t", "k1")
        assert not registry.is_resident("t", "k2")
        assert registry.is_resident("t", "k3")
        assert registry.evictions == 1

    def test_eviction_checkpoints_state(self, registry):
        feed(registry, "t", "k1", EVENTS[:2])
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")  # evicts k1
        assert registry.store.has("t", "k1")
        assert not registry.is_resident("t", "k1")

    def test_rehydration_restores_detection_state(self, registry):
        feed(registry, "t", "k1", EVENTS[:2])  # a, b fed
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")  # evicts k1
        # The chain completes across the eviction boundary.
        detections = feed(registry, "t", "k1", EVENTS[2:])
        assert len(detections) == 1
        assert detections[0].anchor_time == 0
        assert registry.rehydrations == 1

    def test_hits_refresh_recency(self, registry):
        registry.acquire("t", "k1")
        registry.acquire("t", "k2")
        registry.acquire("t", "k1")
        assert [s.key for s in registry.resident_sessions()] == ["k1", "k2"]
        registry.acquire("t", "k3")  # evicts k2, the oldest
        assert [s.key for s in registry.resident_sessions()] == ["k3", "k1"]

    def test_acquire_same_session_is_stable(self, registry):
        first, _ = registry.acquire("t", "k")
        second, _ = registry.acquire("t", "k")
        assert first is second


class TestReplay:
    def test_wal_replay_reemits_detections_after_crash(
        self, chain_build, system
    ):
        store = MemoryCheckpointStore()

        def factory():
            return StreamingMatcher(chain_build)

        crashed = SessionRegistry(store, factory, system=system)
        session, _ = crashed.acquire("t", "k")
        for etype, time in EVENTS:
            session.seq += 1
            store.append_wal("t", "k", session.seq, etype, time)
            session.matcher.feed(etype, time)
        # Checkpoint covered only the first event; the crash loses the
        # in-memory matcher but the WAL carries events 2 and 3.
        checkpointed = SessionRegistry(store, factory, system=system)
        early, _ = checkpointed.acquire("t2", "k")  # unrelated session
        store.save("t", "k", 1, _matcher_after(chain_build, EVENTS[:1]))

        fresh = SessionRegistry(store, factory, system=system)
        session, replayed = fresh.acquire("t", "k")
        assert session.seq == 3
        assert [seq for seq, _, _ in replayed] == [3]
        assert replayed[0][2].anchor_time == 0

    def test_wal_only_session_replays_from_scratch(
        self, chain_build, system
    ):
        store = MemoryCheckpointStore()
        for seq, (etype, time) in enumerate(EVENTS, start=1):
            store.append_wal("t", "k", seq, etype, time)
        registry = SessionRegistry(
            store, lambda: StreamingMatcher(chain_build), system=system
        )
        session, replayed = registry.acquire("t", "k")
        assert session.seq == 3
        assert len(replayed) == 1

    def test_maybe_checkpoint_respects_interval(self, registry):
        session, _ = registry.acquire("t", "k")
        session.seq = 5
        registry.maybe_checkpoint(session, interval=10)
        assert not registry.store.has("t", "k")
        session.seq = 10
        registry.maybe_checkpoint(session, interval=10)
        assert registry.store.has("t", "k")
        assert session.checkpointed_seq == 10


def _matcher_after(build, events):
    matcher = StreamingMatcher(build)
    for etype, time in events:
        matcher.feed(etype, time)
    return matcher.checkpoint()


class TestStats:
    def test_stats_counts(self, registry):
        registry.acquire("t", "k1")
        registry.acquire("t", "k2")
        registry.acquire("t", "k3")
        stats = registry.stats()
        assert stats["resident"] == 2
        assert stats["evicted"] == 1
        assert stats["evictions"] == 1



def other_build(system):
    """A pattern the registry's build does not compile: x -> y."""
    structure = EventStructure(
        ["X", "Y"], {("X", "Y"): [TCG(0, 3, system.get("hour"))]}
    )
    return builder.build_tag(
        ComplexEventType(structure, {"X": "x", "Y": "y"}), system=system
    )


class TestSharedBuild:
    def shared_registry(self, chain_build, system):
        return SessionRegistry(
            MemoryCheckpointStore(),
            lambda: StreamingMatcher(chain_build),
            max_resident=1,
            system=system,
            build=chain_build,
        )

    def test_rehydration_runs_on_the_registry_build(
        self, chain_build, system, obs_on
    ):
        registry = self.shared_registry(chain_build, system)
        builds = counter("repro_tag_builds_total")
        before = builds.value()
        feed(registry, "t", "k1", EVENTS[:2])
        registry.acquire("t", "k2")  # evicts k1
        detections = feed(registry, "t", "k1", EVENTS[2:])
        assert registry.rehydrations == 1
        assert builds.value() == before
        session, _ = registry.acquire("t", "k1")
        assert session.matcher.build is chain_build
        assert len(detections) == 1

    def test_other_pattern_is_rebuilt_and_detects_identically(
        self, chain_build, system, obs_on
    ):
        other = other_build(system)
        events = [("x", 0), ("y", 2 * H)]
        direct = StreamingMatcher(other)
        expected = [d for e, t in events for d in direct.feed(e, t)]
        assert expected

        registry = self.shared_registry(chain_build, system)
        half = StreamingMatcher(other)
        half.feed(*events[0])
        registry.store.save("t", "k", 1, half.checkpoint())
        builds = counter("repro_tag_builds_total")
        before = builds.value()
        session, _ = registry.acquire("t", "k")
        assert builds.value() == before + 1
        assert session.matcher.build is not chain_build
        assert (
            session.matcher.build.complex_event_type.assignment
            == other.complex_event_type.assignment
        )
        got = session.matcher.feed(*events[1])
        assert [
            (d.anchor_time, d.detected_at, d.bindings) for d in got
        ] == [
            (d.anchor_time, d.detected_at, d.bindings) for d in expected
        ]

    def test_rebuild_resolves_clocks_through_the_system(
        self, chain_build, system, monkeypatch
    ):
        seen = []
        build_tag = builder.build_tag

        def recording(cet, system=None):
            seen.append(system)
            return build_tag(cet, system=system)

        monkeypatch.setattr(builder, "build_tag", recording)
        payload = StreamingMatcher(chain_build).checkpoint()
        restored = streaming_matcher_from_checkpoint(payload, system)
        assert seen == [system]
        for clock in restored.build.tag.clocks.values():
            assert clock.granularity is system.get(clock.granularity.label)
