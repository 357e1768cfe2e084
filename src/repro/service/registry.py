"""Resident-session management: LRU eviction backed by checkpoints.

A thousand tenants cannot all keep live :class:`StreamingMatcher`
state in memory.  The registry keeps at most ``max_resident`` sessions
resident; acquiring one beyond that evicts the least-recently-used
session by checkpointing it to the store and dropping the matcher.
The next event for an evicted session transparently *rehydrates* it
(under a ``service.rehydrate`` span): load the last durable
checkpoint, then replay the WAL suffix - events accepted after that
checkpoint - through the restored matcher.  Replay re-emits the
detections those events completed, tagged with their sequence numbers,
giving at-least-once delivery across evictions and crashes; consumers
that need exactly-once dedupe on ``(tenant, key, seq)``.

Every session compiles the same pattern, so when the registry knows
the service's :class:`~repro.automata.builder.TagBuild`, a checkpoint
whose ``pattern`` equals that build's encoding is restored onto the
shared build: rehydration then costs a checkpoint load and a WAL
replay, never a TAG compile.  A checkpoint carrying any other pattern
is decoded and rebuilt against the registry's granularity system.

Recency is the order of the resident map itself (a hit moves its
session to the end), not wall time, so eviction order is deterministic
and O(1), and the differential suite can force churn by setting
``max_resident=1``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..automata.builder import TagBuild
from ..automata.streaming import Detection, StreamingMatcher
from ..obs import TraceContext, counter, gauge, linked_span
from .checkpoints import CheckpointStoreBase

_EVICTIONS = counter(
    "repro_service_evictions_total",
    "Resident sessions spilled to the checkpoint store",
)
_REHYDRATIONS = counter(
    "repro_service_rehydrations_total",
    "Sessions restored from the checkpoint store",
)
_REPLAYED_EVENTS = counter(
    "repro_service_replayed_events_total",
    "WAL events replayed during rehydration",
)
_SESSIONS_RESIDENT = gauge(
    "repro_service_sessions",
    "Detection sessions by residency state",
    labels={"state": "resident"},
)
_SESSIONS_EVICTED = gauge(
    "repro_service_sessions",
    "Detection sessions by residency state",
    labels={"state": "evicted"},
)


class Session:
    """One resident ``(tenant, key)`` detection session."""

    __slots__ = ("tenant", "key", "matcher", "seq", "checkpointed_seq")

    def __init__(self, tenant: str, key: str, matcher: StreamingMatcher):
        self.tenant = tenant
        self.key = key
        self.matcher = matcher
        #: Sequence number of the last accepted event (0 before any).
        self.seq = 0
        #: Sequence the last durable checkpoint reflects.
        self.checkpointed_seq = 0


class SessionRegistry:
    """Keyed matchers with bounded residency and transparent spill.

    ``matcher_factory`` builds a fresh matcher for a session with no
    durable state; rehydration needs no factory because checkpoints
    carry the pattern.  ``build`` is the compiled TAG the factory's
    matchers run; checkpoints of that pattern rehydrate onto it.
    """

    def __init__(
        self,
        store: CheckpointStoreBase,
        matcher_factory: Callable[[], StreamingMatcher],
        max_resident: int = 64,
        system=None,
        context_for: Optional[
            Callable[[str], Optional[TraceContext]]
        ] = None,
        build: Optional[TagBuild] = None,
    ):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.store = store
        self.matcher_factory = matcher_factory
        self.max_resident = max_resident
        #: Maps a tenant to the span identity its rehydrate spans
        #: should parent under (the service wires the tenant's
        #: originating-submit context in) - None falls back to stack
        #: nesting.
        self.context_for = context_for
        self.system = system
        self.build = build
        #: ``build``'s pattern as checkpoints encode it, on first use.
        self._pattern: Optional[Dict] = None
        #: Resident sessions, least recently used first.
        self._resident: Dict[Tuple[str, str], Session] = {}
        #: Spilled sessions, mapped to whether their matcher held
        #: reorder-buffered events when evicted.
        self._evicted: Dict[Tuple[str, str], bool] = {}
        self.evictions = 0
        self.rehydrations = 0

    # ------------------------------------------------------------------
    def acquire(
        self, tenant: str, key: str
    ) -> Tuple[Session, List[Tuple[int, int, Detection]]]:
        """The session for ``(tenant, key)``, rehydrating if spilled.

        Returns the session plus any detections re-emitted by WAL
        replay (``(seq, ordinal, detection)`` triples) - non-empty only
        when the durable state was behind the WAL, i.e. after a crash.
        """
        session = self._resident.pop((tenant, key), None)
        replayed: List[Tuple[int, int, Detection]] = []
        if session is None:
            if self.store.has(tenant, key):
                session, replayed = self._rehydrate(tenant, key)
            else:
                session = Session(tenant, key, self.matcher_factory())
            self._evicted.pop((tenant, key), None)
        self._resident[(tenant, key)] = session  # now the most recent
        self._enforce_residency()
        self._export_gauges()
        return session, replayed

    def _rehydrate(
        self, tenant: str, key: str
    ) -> Tuple[Session, List[Tuple[int, int, Detection]]]:
        parent = self.context_for(tenant) if self.context_for else None
        with linked_span(
            "service.rehydrate", parent, tenant=tenant, key=key
        ):
            payload = self.store.load(tenant, key)
            if payload is None:
                # WAL with no checkpoint yet: replay from a fresh matcher.
                session = Session(tenant, key, self.matcher_factory())
            else:
                state = payload["matcher"]
                session = Session(
                    tenant, key,
                    StreamingMatcher.from_checkpoint(
                        state, system=self.system,
                        build=self._shared_build(state),
                    ),
                )
                session.seq = int(payload["seq"])
                session.checkpointed_seq = session.seq
            replayed: List[Tuple[int, int, Detection]] = []
            for seq, etype, time in self.store.wal_suffix(
                tenant, key, session.seq
            ):
                try:
                    found = session.matcher.feed(etype, time)
                except (ValueError, RuntimeError):
                    # The event also failed when first fed; its WAL
                    # entry records the attempt, not a state change.
                    found = []
                session.seq = seq
                base = session.matcher.detections_emitted - len(found)
                replayed.extend(
                    (seq, base + offset, detection)
                    for offset, detection in enumerate(found)
                )
                _REPLAYED_EVENTS.inc()
            self.rehydrations += 1
            _REHYDRATIONS.inc()
            return session, replayed

    def _shared_build(self, state: Dict) -> Optional[TagBuild]:
        """``build`` when the checkpoint ``state`` is of its pattern."""
        if self.build is None:
            return None
        if self._pattern is None:
            # Imported on first use: a service that never rehydrates
            # (or has not yet checkpointed) need not load the codec.
            from ..io.serialize import complex_event_type_to_dict

            self._pattern = complex_event_type_to_dict(
                self.build.complex_event_type
            )
        return self.build if state.get("pattern") == self._pattern else None

    # ------------------------------------------------------------------
    def _enforce_residency(self) -> None:
        # The session just acquired is the newest, and at least two
        # are resident here, so the oldest is never it.
        while len(self._resident) > self.max_resident:
            self.evict(*next(iter(self._resident)))

    def evict(self, tenant: str, key: str) -> None:
        """Checkpoint one resident session and drop its matcher."""
        session = self._resident.pop((tenant, key))
        self.checkpoint(session)
        self._evicted[(tenant, key)] = session.matcher.pending_reordered > 0
        self.evictions += 1
        _EVICTIONS.inc()
        self._export_gauges()

    def checkpoint(self, session: Session) -> None:
        """Write a session's durable checkpoint (truncates its WAL)."""
        self.store.save(
            session.tenant, session.key, session.seq,
            session.matcher.checkpoint(),
        )
        session.checkpointed_seq = session.seq

    def maybe_checkpoint(self, session: Session, interval: int) -> None:
        """Checkpoint when ``interval`` events accrued since the last,
        bounding how much WAL a crash replays."""
        if interval > 0 and session.seq - session.checkpointed_seq >= interval:
            self.checkpoint(session)

    def checkpoint_all(self) -> None:
        """Flush every resident session to the store (service close)."""
        for session in self._resident.values():
            self.checkpoint(session)

    # ------------------------------------------------------------------
    def resident_sessions(self) -> List[Session]:
        """Resident sessions, most recently used first."""
        return list(reversed(self._resident.values()))

    def flush_keys(self) -> List[Tuple[str, str]]:
        """The sessions an end-of-stream flush must visit, as
        ``(tenant, key)`` pairs: every resident session, then the
        spilled ones whose reorder buffer held events when evicted
        (each group sorted).

        Resident sessions come first so that rehydrating a spilled one
        only ever evicts a session already flushed.  A session spilled
        with an empty buffer has nothing to flush (its eviction
        checkpoint also left no WAL suffix to replay), so rehydrating
        it would only cost a load and an eviction.
        """
        return sorted(self._resident) + sorted(
            k for k, buffered in self._evicted.items() if buffered
        )

    def resident_for_tenant(self, tenant: str) -> List[Session]:
        return [
            session for (t, _), session in self._resident.items()
            if t == tenant
        ]

    def is_resident(self, tenant: str, key: str) -> bool:
        return (tenant, key) in self._resident

    def _export_gauges(self) -> None:
        _SESSIONS_RESIDENT.set(len(self._resident))
        _SESSIONS_EVICTED.set(len(self._evicted))

    def stats(self) -> Dict[str, int]:
        return {
            "resident": len(self._resident),
            "evicted": len(self._evicted),
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
        }
