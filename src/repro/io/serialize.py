"""JSON (de)serialisation of the library's value objects.

Temporal types are encoded structurally (kind + parameters) so that
event structures, complex event types, discovery problems and event
sequences round-trip through plain JSON - the format the CLI consumes
and a natural interchange format for downstream tools.

Standard calendar types are referenced by label against the target
:class:`~repro.granularity.registry.GranularitySystem`; derived types
(groupings, business calendars, periodic patterns) carry their full
construction recipe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Mapping, Optional, Union

from ..constraints.structure import ComplexEventType, EventStructure
from ..constraints.tcg import TCG
from ..granularity.base import TemporalType, UniformType
from ..granularity.business import (
    BusinessDayType,
    BusinessMonthType,
    BusinessWeekType,
)
from ..granularity.calendar import MonthType, YearType
from ..granularity.combinators import GroupedType
from ..granularity.intersection import IntersectionType
from ..granularity.periodic import PeriodicPatternType
from ..granularity.registry import GranularitySystem
from ..mining.discovery import EventDiscoveryProblem, TypeConstraint
from ..mining.events import Event, EventSequence


class SerializationError(ValueError):
    """Raised on malformed or unsupported payloads."""


# ----------------------------------------------------------------------
# Temporal types
# ----------------------------------------------------------------------
def granularity_to_dict(ttype: TemporalType) -> Dict[str, Any]:
    """Encode a temporal type structurally."""
    if isinstance(ttype, GroupedType):
        return {
            "kind": "grouped",
            "label": ttype.label,
            "base": granularity_to_dict(ttype.base),
            "n": ttype.n,
            "offset": ttype.offset,
        }
    if isinstance(ttype, PeriodicPatternType):
        return {
            "kind": "periodic",
            "label": ttype.label,
            "cycle_seconds": ttype.cycle_seconds,
            "segments": [list(s) for s in ttype.segments],
            "phase": ttype.phase,
        }
    if isinstance(ttype, BusinessDayType):
        return {
            "kind": "businessday",
            "label": ttype.label,
            "workdays": list(ttype.workdays),
            "holidays": list(ttype.holidays),
        }
    if isinstance(ttype, BusinessWeekType):
        return {
            "kind": "businessweek",
            "label": ttype.label,
            "bday": granularity_to_dict(ttype.bday),
        }
    if isinstance(ttype, BusinessMonthType):
        return {
            "kind": "businessmonth",
            "label": ttype.label,
            "bday": granularity_to_dict(ttype.bday),
        }
    if isinstance(ttype, IntersectionType):
        return {
            "kind": "intersection",
            "label": ttype.label,
            "a": granularity_to_dict(ttype.a),
            "b": granularity_to_dict(ttype.b),
        }
    if isinstance(ttype, (MonthType, YearType)):
        return {"kind": "label", "label": ttype.label}
    if isinstance(ttype, UniformType):
        return {
            "kind": "uniform",
            "label": ttype.label,
            "seconds_per_tick": ttype.seconds_per_tick,
            "phase": ttype.phase,
        }
    # Fall back to a label reference for exotic user types.
    return {"kind": "label", "label": ttype.label}


def granularity_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> TemporalType:
    """Decode a temporal type, registering it in the system."""
    kind = payload.get("kind")
    if kind == "label":
        try:
            return system.get(payload["label"])
        except KeyError:
            raise SerializationError(
                "granularity label %r is not registered" % (payload["label"],)
            )
    if kind == "uniform":
        return system.register(
            UniformType(
                payload["label"],
                int(payload["seconds_per_tick"]),
                phase=int(payload.get("phase", 0)),
            )
        )
    if kind == "grouped":
        base = granularity_from_dict(payload["base"], system)
        return system.register(
            GroupedType(
                base,
                int(payload["n"]),
                label=payload.get("label"),
                offset=int(payload.get("offset", 0)),
            )
        )
    if kind == "periodic":
        return system.register(
            PeriodicPatternType(
                payload["label"],
                int(payload["cycle_seconds"]),
                [tuple(s) for s in payload["segments"]],
                phase=int(payload.get("phase", 0)),
            )
        )
    if kind == "intersection":
        return system.register(
            IntersectionType(
                granularity_from_dict(payload["a"], system),
                granularity_from_dict(payload["b"], system),
                label=payload.get("label"),
            )
        )
    if kind == "businessday":
        return system.register(
            BusinessDayType(
                label=payload.get("label", "b-day"),
                workdays=tuple(payload.get("workdays", (0, 1, 2, 3, 4))),
                holidays=payload.get("holidays", ()),
            )
        )
    if kind == "businessweek":
        bday = granularity_from_dict(payload["bday"], system)
        return system.register(
            BusinessWeekType(label=payload.get("label", "b-week"), bday=bday)
        )
    if kind == "businessmonth":
        bday = granularity_from_dict(payload["bday"], system)
        return system.register(
            BusinessMonthType(
                label=payload.get("label", "business-month"), bday=bday
            )
        )
    raise SerializationError("unknown granularity kind %r" % (kind,))


# ----------------------------------------------------------------------
# Constraints and structures
# ----------------------------------------------------------------------
def tcg_to_dict(constraint: TCG) -> Dict[str, Any]:
    """Encode a TCG."""
    return {
        "m": constraint.m,
        "n": constraint.n,
        "granularity": granularity_to_dict(constraint.granularity),
    }


def tcg_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> TCG:
    """Decode a TCG."""
    return TCG(
        int(payload["m"]),
        int(payload["n"]),
        granularity_from_dict(payload["granularity"], system),
    )


def structure_to_dict(structure: EventStructure) -> Dict[str, Any]:
    """Encode an event structure."""
    return {
        "variables": list(structure.variables),
        "constraints": [
            {
                "from": src,
                "to": dst,
                "tcgs": [tcg_to_dict(c) for c in tcgs],
            }
            for (src, dst), tcgs in structure.constraints.items()
        ],
    }


def structure_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> EventStructure:
    """Decode an event structure (validated on construction)."""
    try:
        constraints = {
            (arc["from"], arc["to"]): [
                tcg_from_dict(c, system) for c in arc["tcgs"]
            ]
            for arc in payload["constraints"]
        }
        return EventStructure(payload["variables"], constraints)
    except (KeyError, TypeError) as exc:
        raise SerializationError("malformed structure payload: %s" % exc)


def complex_event_type_to_dict(cet: ComplexEventType) -> Dict[str, Any]:
    """Encode a complex event type (structure + assignment)."""
    return {
        "structure": structure_to_dict(cet.structure),
        "assignment": dict(cet.assignment),
    }


def complex_event_type_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> ComplexEventType:
    """Decode a complex event type."""
    structure = structure_from_dict(payload["structure"], system)
    return ComplexEventType(structure, payload["assignment"])


def problem_to_dict(problem: EventDiscoveryProblem) -> Dict[str, Any]:
    """Encode an event-discovery problem."""
    return {
        "structure": structure_to_dict(problem.structure),
        "min_confidence": problem.min_confidence,
        "reference_type": problem.reference_type,
        "candidates": {
            variable: sorted(pool) if pool is not None else None
            for variable, pool in problem.candidates.items()
        },
        "type_constraints": [
            {"kind": constraint.kind, "variables": list(constraint.variables)}
            for constraint in problem.type_constraints
        ],
    }


def problem_from_dict(
    payload: Mapping[str, Any], system: GranularitySystem
) -> EventDiscoveryProblem:
    """Decode an event-discovery problem."""
    structure = structure_from_dict(payload["structure"], system)
    candidates = {
        variable: frozenset(pool) if pool is not None else None
        for variable, pool in payload.get("candidates", {}).items()
    }
    type_constraints = tuple(
        TypeConstraint(item["kind"], item["variables"])
        for item in payload.get("type_constraints", ())
    )
    return EventDiscoveryProblem(
        structure=structure,
        min_confidence=float(payload["min_confidence"]),
        reference_type=payload["reference_type"],
        candidates=candidates,
        type_constraints=type_constraints,
    )


# ----------------------------------------------------------------------
# Sequences
# ----------------------------------------------------------------------
def sequence_to_dict(sequence: EventSequence) -> Dict[str, Any]:
    """Encode an event sequence."""
    return {"events": [[e.etype, e.time] for e in sequence]}


def sequence_from_dict(payload: Mapping[str, Any]) -> EventSequence:
    """Decode an event sequence."""
    try:
        return EventSequence(
            Event(etype, int(time)) for etype, time in payload["events"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed sequence payload: %s" % exc)


# ----------------------------------------------------------------------
# Streaming-matcher checkpoints
# ----------------------------------------------------------------------
#: Payload format version for streaming checkpoints.
CHECKPOINT_VERSION = 1


def _encode_tag_state(state: Any) -> Any:
    """Encode a TAG state for JSON (builder states are int tuples).

    Tuples nest as ``{"t": [...]}`` so they survive the JSON round
    trip distinguishably from lists; ints and strings pass through.
    """
    if isinstance(state, tuple):
        return {"t": [_encode_tag_state(item) for item in state]}
    if isinstance(state, (int, str)):
        return state
    raise SerializationError(
        "cannot checkpoint TAG state %r (only tuples/ints/strings)"
        % (state,)
    )


def _decode_tag_state(payload: Any) -> Any:
    if isinstance(payload, Mapping) and "t" in payload:
        return tuple(_decode_tag_state(item) for item in payload["t"])
    if isinstance(payload, (int, str)):
        return payload
    raise SerializationError("malformed TAG state payload %r" % (payload,))


def configuration_to_dict(config) -> Dict[str, Any]:
    """Encode one automaton configuration (state, clocks, bindings)."""
    return {
        "state": _encode_tag_state(config.state),
        "reset_times": dict(config.reset_times),
        "last_time": config.last_time,
        "bindings": [[variable, time] for variable, time in config.bindings],
    }


def configuration_from_dict(payload: Mapping[str, Any]):
    """Decode :func:`configuration_to_dict` output."""
    from ..automata.tag import Configuration

    try:
        return Configuration(
            state=_decode_tag_state(payload["state"]),
            reset_times={
                str(name): int(time)
                for name, time in payload["reset_times"].items()
            },
            last_time=int(payload["last_time"]),
            bindings=tuple(
                (str(variable), int(time))
                for variable, time in payload.get("bindings", ())
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            "malformed configuration payload: %s" % exc
        )


def streaming_checkpoint_to_dict(matcher) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.automata.streaming.StreamingMatcher`.

    The payload carries the pattern (so the TAG is rebuilt on
    restore), the matcher's tuning parameters, every live anchor's
    configuration set (bindings included - they become detection
    output), the reorder buffer, and all counters.  It is pure JSON:
    write it with :func:`dump_json`, read it back with
    :func:`load_json`.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "pattern": complex_event_type_to_dict(
            matcher.build.complex_event_type
        ),
        "strict": matcher.strict,
        "horizon_seconds": matcher.horizon_seconds,
        "max_live_anchors": matcher.max_live_anchors,
        "overflow_policy": matcher.overflow_policy,
        "last_time": matcher._last_time,
        "max_time_seen": matcher._max_time_seen,
        "counters": {
            "events_received": matcher.events_received,
            "events_processed": matcher.events_processed,
            "detections_emitted": matcher.detections_emitted,
            "anchors_shed": matcher.anchors_shed,
        },
        "anchors": [
            {
                "time": anchor.time,
                "configs": [
                    configuration_to_dict(config)
                    for config in anchor.configs
                ],
            }
            for anchor in matcher._anchors
        ],
        "reorder": (
            matcher._buffer.to_dict() if matcher._buffer is not None else None
        ),
    }


def streaming_matcher_from_checkpoint(
    payload: Mapping[str, Any],
    system: Optional[GranularitySystem] = None,
    build=None,
):
    """Rebuild a matcher from :func:`streaming_checkpoint_to_dict`.

    ``system`` defaults to :func:`repro.granularity.standard_system`;
    pass the original system when the pattern uses custom
    granularities registered there.  The pattern is decoded against
    it and its TAG built with ``build_tag(cet, system=system)``, so
    the clocks share the system's registered type instances.

    ``build`` is an already compiled
    :class:`~repro.automata.builder.TagBuild` for the payload's
    pattern; when given, the pattern is neither decoded nor rebuilt
    and the matcher runs on that (immutable, shareable) TAG.  The
    caller vouches that it compiles the same pattern - the service
    registry passes its own build only when the payload's
    ``pattern`` equals the build's encoding.
    """
    from ..automata.builder import build_tag
    from ..automata.streaming import StreamingMatcher, _Anchor
    from ..granularity.registry import standard_system
    from ..resilience.reorder import ReorderBuffer

    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise SerializationError(
            "unsupported checkpoint version %r (expected %d)"
            % (version, CHECKPOINT_VERSION)
        )
    try:
        if build is None:
            system = system if system is not None else standard_system()
            cet = complex_event_type_from_dict(payload["pattern"], system)
            build = build_tag(cet, system=system)
        horizon = payload.get("horizon_seconds")
        matcher = StreamingMatcher(
            build,
            strict=bool(payload.get("strict", False)),
            horizon_seconds=int(horizon) if horizon is not None else None,
            max_live_anchors=int(payload.get("max_live_anchors", 10_000)),
            overflow_policy=payload.get("overflow_policy", "raise"),
        )
        last_time = payload.get("last_time")
        matcher._last_time = int(last_time) if last_time is not None else None
        max_seen = payload.get("max_time_seen", last_time)
        matcher._max_time_seen = int(max_seen) if max_seen is not None else None
        counters = payload.get("counters", {})
        matcher.events_received = int(counters.get("events_received", 0))
        matcher.events_processed = int(counters.get("events_processed", 0))
        matcher.detections_emitted = int(
            counters.get("detections_emitted", 0)
        )
        matcher.anchors_shed = int(counters.get("anchors_shed", 0))
        matcher._anchors = [
            _Anchor(
                int(anchor["time"]),
                [
                    configuration_from_dict(config)
                    for config in anchor["configs"]
                ],
            )
            for anchor in payload.get("anchors", ())
        ]
        reorder = payload.get("reorder")
        if reorder is not None:
            matcher._buffer = ReorderBuffer.from_dict(reorder)
        return matcher
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError("malformed checkpoint payload: %s" % exc)


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def dump_json(payload: Mapping[str, Any], target: Union[str, IO]) -> None:
    """Write a payload as pretty JSON to a path or file object."""
    if isinstance(target, str):
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    else:
        json.dump(payload, target, indent=2, sort_keys=True)


def load_json(source: Union[str, IO]) -> Any:
    """Read JSON from a path or file object."""
    if isinstance(source, str):
        with open(source) as handle:
            return json.load(handle)
    return json.load(source)
