"""Online TAG matching over event sequences (Theorem 4).

The matcher follows the paper's NDFA simulation: it maintains the set of
reachable configurations (state + clock valuation), feeding one event at
a time.  Configuration count is bounded by
``min(|sigma|, (|V| K)^p)`` per the theorem; deduplication by
``(state, reset times)`` and an optional time horizon keep the set small
in practice.

``strict=True`` reproduces the letter of the paper's run definition:
any event whose timestamp is uncovered by some clock granularity kills
every run - *including* events whose own constraints never mention
that granularity, so strict matching under-counts genuine complex
events (a measured errata of Theorem 3's equivalence claim; see
experiment X10).  The default lazy semantics only requires coverage at
the events a guard actually inspects and recognises exactly the
paper's binding semantics; the two coincide on sequences whose events
are covered by every clock granularity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import counter
from .builder import TagBuild
from .dense import DenseRuntime, compile_dense
from .tag import ANY, Configuration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..mining.events import EventSequence

# Per-run work counters, accumulated locally in the scan loop and
# flushed once per anchored match, so the hot loop stays allocation-
# and lock-free (docs/OBSERVABILITY.md catalog).
_RUNS = counter("repro_tag_runs_total", "Anchored TAG runs started")
_MATCHES = counter("repro_tag_matches_total", "Anchored runs that matched")
_EVENTS_SCANNED = counter(
    "repro_tag_events_scanned_total", "Events scanned by anchored runs"
)
_TRANSITIONS = counter(
    "repro_tag_transitions_total", "Non-skip transitions taken"
)
_SKIPS = counter(
    "repro_tag_skips_total", "ANY self-loop survivals (skipped events)"
)
_GUARD_REJECTIONS = counter(
    "repro_tag_guard_rejections_total",
    "Transitions rejected by a clock guard",
)


class _LazyValuation:
    """Mapping-like clock valuation computed on demand.

    Guards typically mention a couple of the automaton's clocks; this
    avoids evaluating every clock for every configuration and event
    (the matcher's hottest loop).
    """

    __slots__ = ("clocks", "reset_times", "now", "_cache")

    def __init__(self, clocks, reset_times, now):
        self.clocks = clocks
        self.reset_times = reset_times
        self.now = now
        self._cache = {}

    def get(self, name, default=None):
        if name in self._cache:
            return self._cache[name]
        clock = self.clocks.get(name)
        if clock is None:
            return default
        value = clock.value(self.reset_times[name], self.now)
        self._cache[name] = value
        return value


@dataclass
class MatchResult:
    """Outcome of matching one root occurrence.

    ``bindings`` maps variables to the timestamps of the events that
    realised them in some accepting run (None when not matched).
    """

    matched: bool
    bindings: Optional[Dict[str, int]]
    events_scanned: int
    peak_configurations: int


class TagMatcher:
    """Run a built TAG against event sequences.

    Parameters
    ----------
    build:
        The result of :func:`repro.automata.builder.build_tag`.
    strict:
        Use the paper's strict run semantics (see module docstring).
    horizon_seconds:
        If set, matching started at root time ``t0`` stops scanning
        events after ``t0 + horizon_seconds``; sound when the value is
        an upper bound on the root-to-anything distance in seconds (the
        mining layer derives one from constraint propagation).
    anchor_requirements:
        Optional ``(etype, lo, hi)`` triples: any match anchored at
        ``t0`` must witness an ``etype`` event in ``[t0 + lo, t0 + hi]``
        (sound when derived from propagated windows, as
        :func:`repro.core.api.compile_pattern` does).
        :meth:`matching_roots` then consults the sequence's
        :class:`~repro.store.anchorindex.AnchorIndex` to enumerate only
        viable anchors, skipping doomed automaton runs entirely.
    max_configurations:
        Safety valve on the configuration set size.
    """

    def __init__(
        self,
        build: TagBuild,
        strict: bool = False,
        horizon_seconds: Optional[int] = None,
        anchor_requirements: Optional[Sequence[Tuple[str, int, int]]] = None,
        max_configurations: int = 100_000,
    ):
        self.build = build
        self.tag = build.tag
        self.strict = strict
        self.horizon_seconds = horizon_seconds
        self.anchor_requirements = (
            tuple(anchor_requirements) if anchor_requirements else ()
        )
        self.max_configurations = max_configurations
        self._dense = None
        self._runtimes = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Anchored matching (the mining primitive)
    # ------------------------------------------------------------------
    def match_from(
        self, sequence: "EventSequence", root_index: int
    ) -> MatchResult:
        """Match with the root variable bound to ``sequence[root_index]``.

        The first step *must* consume the anchored event via a root
        transition, which is the paper's "start one copy of the TAG at
        every occurrence of E0".
        """
        root_event = sequence[root_index]
        if root_event.etype != self.build.root_symbol:
            return MatchResult(False, None, 0, 0)
        _RUNS.inc()
        start_config = Configuration(
            state=next(iter(self.tag.start_states)),
            reset_times={
                name: root_event.time for name in self.tag.clocks
            },
            last_time=root_event.time,
        )
        root_variable = self.build.structure.root
        anchored = [
            config
            for config in self.tag.step(
                start_config, root_event.etype, root_event.time, self.strict
            )
            if config.bindings and config.bindings[0][0] == root_variable
        ]
        if not anchored:
            _EVENTS_SCANNED.add(1)
            return MatchResult(False, None, 1, 0)
        result = self._scan(
            sequence, root_index + 1, root_event.time, anchored
        )
        _EVENTS_SCANNED.add(result.events_scanned)
        if result.matched:
            _MATCHES.inc()
        return result

    def _scan(
        self,
        sequence: "EventSequence",
        from_index: int,
        root_time: int,
        configs: List[Configuration],
    ) -> MatchResult:
        events_scanned = 1
        peak = len(configs)
        accepted = self._accepting(configs)
        if accepted is not None:
            return MatchResult(True, dict(accepted.bindings), 1, peak)
        # Work counts stay in locals through the hot loop and flush to
        # the registry once per run.
        transitions_taken = 0
        skips = 0
        guard_rejections = 0
        deadline = (
            root_time + self.horizon_seconds
            if self.horizon_seconds is not None
            else None
        )
        clocks = self.tag.clocks
        accepting = self.tag.accepting
        for index in range(from_index, len(sequence)):
            event = sequence[index]
            if deadline is not None and event.time > deadline:
                break
            events_scanned += 1
            if self.strict and any(
                not clock.covers(event.time)
                for clock in clocks.values()
            ):
                # The paper's literal run definition: an uncovered
                # timestamp kills every run, skipped or not.
                configs = []
                break
            seen = set()
            next_configs: List[Configuration] = []
            accepted: Optional[Configuration] = None
            for config in configs:
                # The ANY self-loop: the configuration itself survives
                # unchanged (reset times are immutable, last_time is
                # irrelevant to future steps).
                key = config.frozen_key()
                if key not in seen:
                    seen.add(key)
                    next_configs.append(config)
                    skips += 1
                values = None
                for transition in self.tag.transitions_from(config.state):
                    if transition.symbol == ANY:
                        continue
                    if transition.symbol != event.etype:
                        continue
                    if values is None:
                        values = _LazyValuation(
                            clocks, config.reset_times, event.time
                        )
                    if not transition.guard.evaluate(values):
                        guard_rejections += 1
                        continue
                    transitions_taken += 1
                    reset_times = dict(config.reset_times)
                    for name in transition.resets:
                        reset_times[name] = event.time
                    successor = Configuration(
                        state=transition.target,
                        reset_times=reset_times,
                        last_time=event.time,
                        bindings=config.bindings
                        + tuple(
                            (variable, event.time)
                            for variable in transition.variables
                        ),
                    )
                    if successor.state in accepting:
                        accepted = successor
                        break
                    key = successor.frozen_key()
                    if key in seen:
                        continue
                    seen.add(key)
                    next_configs.append(successor)
                if accepted is not None:
                    break
            if accepted is not None:
                peak = max(peak, len(next_configs) + 1)
                _TRANSITIONS.add(transitions_taken)
                _SKIPS.add(skips)
                _GUARD_REJECTIONS.add(guard_rejections)
                return MatchResult(
                    True, dict(accepted.bindings), events_scanned, peak
                )
            configs = next_configs
            peak = max(peak, len(configs))
            if len(configs) > self.max_configurations:
                raise RuntimeError(
                    "configuration set exceeded %d; tighten the horizon"
                    % self.max_configurations
                )
            if not configs:
                break
        _TRANSITIONS.add(transitions_taken)
        _SKIPS.add(skips)
        _GUARD_REJECTIONS.add(guard_rejections)
        return MatchResult(False, None, events_scanned, peak)

    def _accepting(
        self, configs: List[Configuration]
    ) -> Optional[Configuration]:
        for config in configs:
            if config.state in self.tag.accepting:
                return config
        return None

    # ------------------------------------------------------------------
    # Columnar batch routing
    # ------------------------------------------------------------------
    def _columnar_runtime(
        self, sequence: "EventSequence"
    ) -> Optional[DenseRuntime]:
        """The dense batch runtime for a sequence, or None.

        None routes the caller to the object path, the route for inputs
        without a columnar view.  Runtimes are memoised per view
        (weakly, so a matcher outliving its sequences leaks nothing);
        the dense transition tables compile once per matcher.
        """
        view_of = getattr(sequence, "columnar", None)
        if view_of is None:
            return None
        view = view_of()
        runtime = self._runtimes.get(view)
        if runtime is None:
            if self._dense is None:
                self._dense = compile_dense(self.tag)
            runtime = DenseRuntime(
                self._dense,
                view,
                self.build.root_symbol,
                self.build.structure.root,
                strict=self.strict,
                horizon_seconds=self.horizon_seconds,
                max_configurations=self.max_configurations,
            )
            self._runtimes[view] = runtime
        return runtime

    # ------------------------------------------------------------------
    # Whole-sequence helpers
    # ------------------------------------------------------------------
    def occurs_at(self, sequence: "EventSequence", root_index: int) -> bool:
        """Does the complex event type occur anchored at this index?"""
        runtime = self._columnar_runtime(sequence)
        if runtime is not None:
            return runtime.occurs_at(root_index)
        return self.match_from(sequence, root_index).matched

    def matching_roots(self, sequence: "EventSequence") -> Iterator[int]:
        """Indices of root-type occurrences that anchor a match.

        With :attr:`anchor_requirements` set, root occurrences whose
        windows the anchor index refutes are skipped without starting
        an automaton run (the screen is a sound over-approximation, so
        the yielded set is unchanged).
        """
        runtime = self._columnar_runtime(sequence)
        if runtime is not None:
            yield from runtime.matching_roots(self.anchor_requirements)
            return
        anchors = sequence.occurrence_indices(self.build.root_symbol)
        if self.anchor_requirements:
            index = sequence.anchor_index()
            anchors = index.viable_anchors(
                [(position, sequence[position].time) for position in anchors],
                self.anchor_requirements,
            )
        for position in anchors:
            if self.occurs_at(sequence, position):
                yield position

    def count_occurrences(self, sequence: "EventSequence") -> int:
        """Paper-style count: matched root occurrences (each counted once)."""
        return sum(1 for _ in self.matching_roots(sequence))

    def viable_root_positions(
        self, sequence: "EventSequence"
    ) -> List[int]:
        """Root occurrences surviving the anchor screen, as positions.

        The same enumeration :meth:`matching_roots` starts from, split
        out so frontier-level callers (``batch_matching_roots``, the
        mining loop) can feed it to a shared :class:`BatchRuntime`.
        """
        runtime = self._columnar_runtime(sequence)
        if runtime is not None:
            return runtime.viable_roots(self.anchor_requirements)
        anchors = sequence.occurrence_indices(self.build.root_symbol)
        if self.anchor_requirements:
            index = sequence.anchor_index()
            anchors = index.viable_anchors(
                [
                    (position, sequence[position].time)
                    for position in anchors
                ],
                self.anchor_requirements,
            )
        return list(anchors)

    def accepts(self, sequence: "EventSequence") -> bool:
        """Unanchored acceptance: some suffix anchors an occurrence.

        This corresponds to Theorem 3's statement - the type occurs in
        the sequence iff the TAG has an accepting run over it (runs may
        skip any prefix via the start state's self-loop).
        """
        return any(True for _ in self.matching_roots(sequence))


# ----------------------------------------------------------------------
# Frontier-level routing
# ----------------------------------------------------------------------
def batch_matching_roots(
    matchers: Sequence[TagMatcher], sequence: "EventSequence"
) -> List[List[int]]:
    """Per-matcher matching-root lists for a whole candidate frontier.

    On a sequence with a columnar view, matchers that share root
    symbol/variable, semantics (strict, horizon, configuration cap) and
    clock space are merged into one
    :class:`~repro.automata.dense.DenseBatch` and scanned in a single
    :class:`~repro.automata.dense.BatchRuntime` traversal per root;
    everything else goes through the per-matcher path.  Either way the
    result is bit-identical to ``[list(m.matching_roots(sequence)) for
    m in matchers]`` - the differential reference the batch-vs-single
    suite replays.
    """
    from .dense import BatchRuntime, compile_dense_batch

    results: List[Optional[List[int]]] = [None] * len(matchers)

    def _fallback(indexes):
        for i in indexes:
            results[i] = list(matchers[i].matching_roots(sequence))

    if len(matchers) < 2 or getattr(sequence, "columnar", None) is None:
        _fallback(range(len(matchers)))
        return [r for r in results]
    store = sequence.columnar()
    groups: Dict[tuple, List[int]] = {}
    for i, matcher in enumerate(matchers):
        key = (
            matcher.build.root_symbol,
            matcher.build.structure.root,
            matcher.strict,
            matcher.horizon_seconds,
            matcher.max_configurations,
        )
        groups.setdefault(key, []).append(i)
    for key, indexes in groups.items():
        if len(indexes) < 2:
            _fallback(indexes)
            continue
        for matcher in (matchers[i] for i in indexes):
            if matcher._dense is None:
                matcher._dense = compile_dense(matcher.tag)
        banks = compile_dense_batch(
            [matchers[i]._dense for i in indexes]
        )
        root_symbol, root_variable, strict, horizon, cap = key
        for positions, batch in banks:
            member_indexes = [indexes[p] for p in positions]
            runtime = BatchRuntime(
                batch,
                store,
                root_symbol,
                root_variable,
                strict=strict,
                horizon_seconds=horizon,
                max_configurations=cap,
            )
            viable = [
                matchers[i].viable_root_positions(sequence)
                for i in member_indexes
            ]
            hits = runtime.scan_roots(viable)
            for k, i in enumerate(member_indexes):
                results[i] = hits[k]
    return [r for r in results]
