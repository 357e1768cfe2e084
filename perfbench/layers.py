"""Which public functions a traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<part>``; the layer is one of the ``repro``
subpackages below.  Everything ``repro`` is imported inside
:func:`install`, so importing this module costs nothing.
"""

from __future__ import annotations

from typing import Dict, List

from spans import (
    Recorder,
    by_layer,
    covered_seconds,
    median_duration_us,
    summarize,
)

LAYERS = ("granularity", "constraints", "mining", "automata", "store", "service")

#: The per-layer metrics every traced run reports, with their units.
#: A metric a workload never exercises reads 0.
PER_LAYER = (
    ("granularity.system.calls", "count"),
    ("granularity.system.self_s", "s"),
    ("granularity.covers.calls", "count"),
    ("granularity.covers.self_s", "s"),
    ("granularity.covers.nontotal_share", "ratio"),
    ("granularity.convert.calls", "count"),
    ("granularity.convert.self_s", "s"),
    ("granularity.nf_compile.calls", "count"),
    ("granularity.nf_compile.self_s", "s"),
    ("granularity.clock.calls", "count"),
    ("granularity.clock.self_s", "s"),
    ("granularity.convcache.hit_ratio", "ratio"),
    ("constraints.propagate.calls", "count"),
    ("constraints.propagate.self_s", "s"),
    ("constraints.stp_closures", "count"),
    ("mining.reduce.self_s", "s"),
    ("mining.reduce.keep_ratio", "ratio"),
    ("mining.screen.self_s", "s"),
    ("mining.screen.pairs_kept_ratio", "ratio"),
    ("mining.candidates", "count"),
    ("mining.solution_ratio", "ratio"),
    ("automata.scan.self_s", "s"),
    ("automata.scan.starts", "count"),
    ("automata.scan.match_ratio", "ratio"),
    ("automata.build_tag.calls", "count"),
    ("automata.build_tag.self_s", "s"),
    ("automata.stream.feed.calls", "count"),
    ("automata.stream.feed.self_s", "s"),
    ("automata.stream.feed_us.head", "us"),
    ("automata.stream.feed_us.tail", "us"),
    ("automata.stream.live_anchors.peak", "count"),
    ("automata.stream.checkpoint.self_s", "s"),
    ("store.build.self_s", "s"),
    ("store.snapshot.self_s", "s"),
    ("store.screen_anchors.self_s", "s"),
    ("store.tick_columns.self_s", "s"),
    ("service.submit.self_s", "s"),
    ("service.acquire.calls", "count"),
    ("service.acquire.self_s", "s"),
    ("service.checkpoint.calls", "count"),
    ("service.checkpoint.self_s", "s"),
    ("service.checkpoint.bytes", "bytes"),
    ("service.evictions_per_event", "ratio"),
    ("service.rehydrations_per_event", "ratio"),
    ("service.backlog.peak", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.detect_p90_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("other.self_s", "s"),
) + tuple(("layer.%s.self_s" % layer, "s") for layer in LAYERS) + (
    ("layer.top_share", "ratio"),
)


def _count_nontotal(recorder: Recorder, args, kwargs, result) -> None:
    system, target = args[0], args[2] if len(args) > 2 else kwargs["target"]
    if not system.resolve(target).total:
        recorder.add("covers.nontotal")


def _count_reduce(recorder: Recorder, args, kwargs, result) -> None:
    recorder.add("reduce.in", len(args[1]))
    recorder.add("reduce.out", len(result))


def _count_pairs(recorder: Recorder, args, kwargs, result) -> None:
    survivors = args[4] if len(args) > 4 else kwargs["survivors"]
    for (x, y), kept in result.items():
        recorder.add("pairs.tried", len(survivors[x]) * len(survivors[y]))
        recorder.add("pairs.kept", len(kept))


def _peak_anchors(recorder: Recorder, args, kwargs, result) -> None:
    recorder.peak("live_anchors.peak", args[0].live_anchors)


def install(recorder: Recorder) -> None:
    """Wrap every listed public function; undo with ``recorder.remove()``."""
    from repro import automata
    from repro.automata import dense, matching, streaming
    from repro.constraints import propagation
    from repro.granularity import normalform, registry
    from repro.mining import pruning
    from repro.service import registry as sessions
    from repro.service import service
    from repro.store import columnar, eventstore

    method = recorder.patch_method
    function = recorder.patch_function

    function(registry.standard_system, "granularity.system")
    method(registry.GranularitySystem, "conversion_feasible",
           "granularity.covers", _count_nontotal)
    method(registry.GranularitySystem, "convert", "granularity.convert")
    function(normalform.compile_normal_form, "granularity.nf_compile")
    for fn in (normalform.clock_tick_of, normalform.clock_distance,
               normalform.clock_ticks_of):
        function(fn, "granularity.clock")

    function(propagation.propagate, "constraints.propagate")

    function(pruning.reduce_sequence, "mining.reduce", _count_reduce)
    function(pruning.filter_reference_occurrences, "mining.reduce")
    function(pruning.screen_candidates, "mining.screen")
    function(pruning.screen_candidate_pairs, "mining.screen", _count_pairs)

    method(dense.BatchRuntime, "match_many", "automata.scan")
    method(dense.BatchRuntime, "scan_roots", "automata.scan")
    method(dense.DenseRuntime, "matching_roots", "automata.scan")
    method(matching.TagMatcher, "match_from", "automata.scan")
    method(matching.TagMatcher, "occurs_at", "automata.scan")
    function(automata.build_tag, "automata.build_tag")
    method(streaming.StreamingMatcher, "feed", "automata.stream.feed",
           _peak_anchors)
    method(streaming.StreamingMatcher, "checkpoint",
           "automata.stream.checkpoint")
    method(streaming.StreamingMatcher, "from_checkpoint",
           "automata.stream.checkpoint")

    for attr in ("extend", "columnar", "anchor_index"):
        method(eventstore.EventStore, attr, "store.build")
    method(eventstore.EventStore, "snapshot", "store.snapshot")
    method(columnar.ColumnarEventStore, "screen_anchors",
           "store.screen_anchors")
    method(columnar.ColumnarEventStore, "tick_columns", "store.tick_columns")

    method(service.DetectionService, "submit", "service.submit")
    method(sessions.SessionRegistry, "acquire", "service.acquire")
    method(sessions.SessionRegistry, "checkpoint", "service.checkpoint")


def _counter_sum(deltas: Dict[str, float], family: str) -> float:
    """Sum a counter family's samples (all label sets) in a delta map."""
    return sum(
        value
        for name, value in deltas.items()
        if name == family or name.startswith(family + "{")
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: Recorder,
    traced_wall_s: float,
    counter_deltas: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``extra`` carries what the benchmark loop measured itself (open-loop lag,
    backlog, tracing overhead, stream length for the head/tail split,
    events for the per-event service ratios, checkpoint bytes).
    """
    spans = recorder.spans
    table = summarize(spans)
    counts = recorder.counts
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    for name, row in table.items():
        for field in ("calls", "self_s"):
            key = "%s.%s" % (name, field)
            if key in values:
                values[key] = row[field]
    values["granularity.covers.nontotal_share"] = _ratio(
        counts.get("covers.nontotal", 0), values["granularity.covers.calls"]
    )
    values["mining.reduce.keep_ratio"] = _ratio(
        counts.get("reduce.out", 0), counts.get("reduce.in", 0)
    )
    values["mining.screen.pairs_kept_ratio"] = _ratio(
        counts.get("pairs.kept", 0), counts.get("pairs.tried", 0)
    )
    values["automata.stream.live_anchors.peak"] = counts.get(
        "live_anchors.peak", 0
    )
    length = int(extra.get("stream_length", 0))
    if length:
        tenth = max(1, length // 10)
        values["automata.stream.feed_us.head"] = median_duration_us(
            spans, "automata.stream.feed", 0, tenth
        )
        values["automata.stream.feed_us.tail"] = median_duration_us(
            spans, "automata.stream.feed", length - tenth, length
        )

    hits = _counter_sum(counter_deltas, "repro_propagation_conversion_cache_hits_total")
    misses = _counter_sum(
        counter_deltas, "repro_propagation_conversion_cache_misses_total"
    )
    values["granularity.convcache.hit_ratio"] = _ratio(hits, hits + misses)
    values["constraints.stp_closures"] = _counter_sum(
        counter_deltas, "repro_stp_closures_total"
    )
    candidates = _counter_sum(counter_deltas, "repro_mine_candidates_evaluated_total")
    values["mining.candidates"] = candidates
    values["mining.solution_ratio"] = _ratio(
        _counter_sum(counter_deltas, "repro_mine_solutions_total"), candidates
    )
    runs = _counter_sum(counter_deltas, "repro_tag_runs_total")
    values["automata.scan.starts"] = runs
    values["automata.scan.match_ratio"] = _ratio(
        _counter_sum(counter_deltas, "repro_tag_matches_total"), runs
    )
    events = extra.get("events", 0)
    values["service.evictions_per_event"] = _ratio(
        _counter_sum(counter_deltas, "repro_service_evictions_total"), events
    )
    values["service.rehydrations_per_event"] = _ratio(
        _counter_sum(counter_deltas, "repro_service_rehydrations_total"), events
    )
    for key in ("service.checkpoint.bytes", "service.backlog.peak",
                "loadgen.lag_p90_ms", "loadgen.detect_p90_ms",
                "trace.overhead_frac"):
        values[key] = extra.get(key, 0.0)

    layers = by_layer(table)
    for layer in LAYERS:
        values["layer.%s.self_s" % layer] = layers.get(layer, 0.0)
    values["other.self_s"] = max(0.0, traced_wall_s - covered_seconds(spans))
    top = max(LAYERS, key=lambda layer: layers.get(layer, 0.0))
    values["layer.top_share"] = _ratio(layers.get(top, 0.0), traced_wall_s)
    return values


def layer_report(values: Dict[str, float]) -> List[str]:
    """Self time per layer plus ``other``, largest first, and the top."""
    rows = [(layer, values["layer.%s.self_s" % layer]) for layer in LAYERS]
    rows.append(("other", values["other.self_s"]))
    rows.sort(key=lambda row: -row[1])
    total = sum(seconds for _, seconds in rows) or 1.0
    lines = [
        "layer %-12s %9.4f s %5.1f%%" % (layer, seconds, 100 * seconds / total)
        for layer, seconds in rows
    ]
    top = max(LAYERS, key=lambda layer: values["layer.%s.self_s" % layer])
    lines.append("top layer: %s" % top)
    return lines
