"""The work-sharded mining scan (candidates x time shards -> workers).

The paper's step 5 is embarrassingly parallel once two facts are pinned
down: candidate assignments are independent, and anchored runs are
time-local (a run started at root ``t0`` with horizon ``H`` never reads
past ``t0 + H``).  This module exploits both:

* the surviving candidates and the planned time shards
  (:mod:`repro.parallel.shards`) form a task grid; each task scans one
  shard's owned roots for one candidate;
* before any TAG starts, the shard's roots are filtered through the
  :class:`~repro.store.anchorindex.AnchorIndex` against the candidate's
  propagated windows - the *anchor screen* - so only viable anchors pay
  for an automaton run (the same screen runs in the serial engine, which
  keeps serial and parallel results bit-identical);
* tasks fan out over a fork-based ``ProcessPoolExecutor``.  Workers
  inherit the reduced sequence, the granularity system and the warmed
  conversion cache through fork (nothing large is pickled; tasks are
  two-integer tuples), and return per-task hit counts plus their local
  observability state: metric counter deltas, conversion-cache counter
  deltas, and serialized spans.  The parent merges all three back -
  counters via :meth:`~repro.obs.metrics.MetricsRegistry.
  merge_counter_deltas`, cache traffic via :meth:`~repro.granularity.
  convcache.ConversionCache.merge_counts`, spans by grafting under the
  open ``mine.scan`` span - so process-wide accounting stays exact;
* the parent exports the sequence's columnar int64 columns once over
  :class:`~repro.store.columnar.SharedColumns` (POSIX shared memory,
  mmap-file fallback) and each worker *attaches* zero-copy instead of
  relying on copy-on-write fork pages - the pool initializer adopts
  the attached view into the inherited sequence;
* frontiers of two or more candidates are banked: candidates sharing
  a clock signature are compiled into one
  :class:`~repro.automata.dense.DenseBatch` in the parent; a pool task
  then scans one *group* of candidates over one shard in a single
  banked traversal and returns per-member counts.

Units (contiguous slices of the task grid) are dispatched through a
:class:`~repro.parallel.stealing.StealScheduler`: one in-flight unit
per lane, idle lanes steal the tail half of the richest deque.  Results
merge deterministically regardless of which lane ran what: every unit
result lands at its planned index and hits are summed per candidate in
unit order, so a parallel run's solutions, frequencies and work
counters equal the serial run's exactly, for any worker count, shard
size or steal interleaving.

``REPRO_PARALLEL=off`` (or a platform without fork) degrades to the
inline executor: the same task grid runs in-process, still
bit-identical, with no pool overhead.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..automata.builder import build_tag
from ..automata.matching import TagMatcher
from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem
from ..mining.events import EventSequence
from ..obs import (
    Span,
    TraceContext,
    Tracer,
    activate_tracer,
    counter,
    counter_deltas,
    current_context,
    current_tracer,
    gauge,
    global_metrics,
    obs_debug,
    span,
)
from ..store.anchorindex import Requirement
from .shards import Shard, check_shard_invariants, plan_shards
from .stealing import StealScheduler

_SHARDS_TOTAL = counter(
    "repro_mine_shards_total",
    "Time shards planned by the parallel mining engine",
)
_TASKS_TOTAL = counter(
    "repro_parallel_tasks_total",
    "Candidate x shard scan tasks executed (pool or inline)",
)
_FALLBACK_TOTAL = counter(
    "repro_parallel_fallback_total",
    "Parallel scans that degraded to the inline executor",
)
_WORKERS_GAUGE = gauge(
    "repro_parallel_workers",
    "Worker processes used by the most recent parallel scan",
)

#: Values of ``REPRO_PARALLEL`` that force the serial engine.
_OFF_VALUES = ("off", "0", "false", "no")


def parallel_disabled() -> bool:
    """Is the ``REPRO_PARALLEL`` kill switch engaged?"""
    return os.environ.get("REPRO_PARALLEL", "").strip().lower() in _OFF_VALUES


def resolve_workers(parallel: Union[int, str, None] = None) -> int:
    """Worker count from the request and the environment.

    ``parallel`` is the CLI/API request: an int, ``"auto"`` (one worker
    per CPU) or None (defer to ``REPRO_PARALLEL``, default serial).
    ``REPRO_PARALLEL=off|0|false|no`` forces 1 regardless of the
    request (the kill switch); ``REPRO_PARALLEL_MAX_WORKERS`` caps the
    result (the CI uses it to bound pool width).
    """
    env = os.environ.get("REPRO_PARALLEL", "").strip().lower()
    if env in _OFF_VALUES:
        return 1
    if parallel in (None, ""):
        if env == "":
            workers = 1
        elif env == "auto":
            workers = os.cpu_count() or 1
        else:
            workers = int(env)
    elif parallel == "auto":
        workers = os.cpu_count() or 1
    else:
        workers = int(parallel)
    if workers < 1:
        raise ValueError("worker count must be >= 1 (got %r)" % (workers,))
    cap = os.environ.get("REPRO_PARALLEL_MAX_WORKERS", "").strip()
    if cap:
        workers = min(workers, max(1, int(cap)))
    return workers


def fork_available() -> bool:
    """Can this platform run the fork-based worker pool?"""
    return "fork" in multiprocessing.get_all_start_methods()


def candidate_requirements(
    assignment: Dict[str, str],
    windows: Dict[str, Tuple[int, int]],
    root: str,
) -> Tuple[Requirement, ...]:
    """The anchor-screen requirements of one candidate assignment.

    For each non-root variable with a propagated window ``[lo, hi]``
    (seconds from the root), any match must witness an event of the
    *assigned* type inside the window - the per-candidate sharpening of
    the step-3 any-allowed-type filter.
    """
    return tuple(
        (assignment[variable], lo, hi)
        for variable, (lo, hi) in sorted(windows.items())
        if variable != root and variable in assignment
    )


# ----------------------------------------------------------------------
# Worker-side state
# ----------------------------------------------------------------------
@dataclass
class ScanContext:
    """Everything a worker needs, inherited through fork.

    Installed as the module-global :data:`_CTX` in the parent before
    the pool is created; submitted tasks are two-integer tuples indexing
    into ``candidates`` and ``shards``.
    """

    sequence: EventSequence
    system: GranularitySystem
    structure: EventStructure
    candidates: List[Dict[str, str]]
    requirements: List[Tuple[Requirement, ...]]
    shards: List[Shard]
    horizon: Optional[int]
    strict: bool
    trace: bool
    #: Banked candidate groups for frontiers of two or more: each entry
    #: is ``(candidate positions, DenseBatch, root symbol)`` and tasks
    #: index groups instead of single candidates.  Empty = per-candidate
    #: tasks.
    batch_groups: List[Tuple[Tuple[int, ...], object, str]] = field(
        default_factory=list
    )
    #: Identity of the parent's open ``mine.scan`` span: workers build
    #: their tracer from it, so merged spans carry the originating
    #: trace_id and re-parent under the exact span that forked them.
    trace_context: Optional[TraceContext] = None


_CTX: Optional[ScanContext] = None

#: Per-worker matcher memo: each worker builds one TAG per candidate it
#: touches, however many shards of that candidate it scans (the
#: per-worker dedup of construction work).
_MATCHERS: Dict[int, TagMatcher] = {}

#: Per-worker batch-runtime memo (one per candidate group touched).
#: The banked tables themselves arrive through fork; only the thin
#: runtime wrapper (plan lookup, routing index seeds) is per-worker.
_RUNTIMES: Dict[int, object] = {}


def _matcher_for(ctx: ScanContext, candidate_index: int) -> TagMatcher:
    matcher = _MATCHERS.get(candidate_index)
    if matcher is None:
        cet = ComplexEventType(ctx.structure, ctx.candidates[candidate_index])
        matcher = TagMatcher(
            build_tag(cet, system=ctx.system),
            strict=ctx.strict,
            horizon_seconds=ctx.horizon,
        )
        _MATCHERS[candidate_index] = matcher
    return matcher


def _scan_shard(
    ctx: ScanContext, candidate_index: int, shard_index: int
) -> Tuple[int, int]:
    """One task: scan one shard's owned roots for one candidate.

    Returns (hits, starts); starts counts the roots that survived the
    anchor screen (each starts exactly one automaton run, matching the
    serial engine's accounting).
    """
    shard = ctx.shards[shard_index]
    matcher = _matcher_for(ctx, candidate_index)
    index = ctx.sequence.anchor_index()
    viable = index.viable_anchors(
        [(root, ctx.sequence[root].time) for root in shard.roots],
        ctx.requirements[candidate_index],
    )
    hits = 0
    with span(
        "tag.match", roots=len(shard.roots), shard=shard.index
    ) as match_span:
        for root in viable:
            if matcher.occurs_at(ctx.sequence, root):
                hits += 1
        match_span.set(starts=len(viable), hits=hits)
    return hits, len(viable)


def _batch_runtime_for(ctx: ScanContext, group_index: int):
    runtime = _RUNTIMES.get(group_index)
    if runtime is None:
        from ..automata.dense import BatchRuntime

        _positions, batch, root_symbol = ctx.batch_groups[group_index]
        runtime = BatchRuntime(
            batch,
            ctx.sequence.columnar(),
            root_symbol,
            ctx.structure.root,
            strict=ctx.strict,
            horizon_seconds=ctx.horizon,
        )
        _RUNTIMES[group_index] = runtime
    return runtime


def _scan_shard_batch(
    ctx: ScanContext, group_index: int, shard_index: int
) -> List[Tuple[int, int, int]]:
    """One batched task: scan one shard for one candidate *group*.

    The anchor screen runs per member exactly as the per-candidate path
    would (same :meth:`~repro.store.anchorindex.AnchorIndex.
    viable_anchors` calls on the shard's owned roots); the automaton
    traversal is shared across the group.  Returns
    ``(candidate_index, hits, starts)`` per member, so per-candidate
    merging is unchanged from the reference path.
    """
    positions, _batch, _root_symbol = ctx.batch_groups[group_index]
    shard = ctx.shards[shard_index]
    index = ctx.sequence.anchor_index()
    root_pairs = [
        (root, ctx.sequence[root].time) for root in shard.roots
    ]
    viable_lists = [
        index.viable_anchors(root_pairs, ctx.requirements[candidate])
        for candidate in positions
    ]
    runtime = _batch_runtime_for(ctx, group_index)
    matched = runtime.scan_roots(viable_lists)
    return [
        (candidate, len(matched[member]), len(viable_lists[member]))
        for member, candidate in enumerate(positions)
    ]


def _warm_worker(namespace: int, entries, forms=(), shm_handle=None) -> None:
    """Pool initializer: install the exported conversion-cache entries.

    Redundant under fork (the entries arrived with the address space)
    but load-bearing for any start method that builds workers fresh -
    either way no worker recomputes a conversion the parent already
    paid for.  Preloading counts neither hits nor misses.  Compiled
    periodic normal forms ride along so a fresh worker builds
    its compiled size tables without re-lowering (no boundary scans).

    ``shm_handle`` is the parent's :class:`~repro.store.columnar.
    SharedColumns` handle: when present the worker attaches to the
    parent's int64 columns zero-copy and adopts the attached store into
    the inherited sequence, replacing the copy-on-write fork pages with
    a genuinely shared mapping.  Attach failure is non-fatal - the
    worker falls back to the fork-inherited (or rebuilt) view, which is
    bit-identical by construction.
    """
    ctx = _CTX
    if ctx is not None:
        cache = ctx.system.conversion_cache
        cache.preload(namespace, entries)
        if forms:
            cache.preload_normal_forms(namespace, forms)
        if shm_handle is not None:
            from ..store.columnar import attach_shared

            store = attach_shared(shm_handle)
            if store is not None:
                try:
                    ctx.sequence.adopt_columnar(store)
                except ValueError:
                    pass  # count mismatch: keep the inherited view


def _execute_task(
    ctx: ScanContext, first: int, second: int
) -> List[Tuple[int, int, int, int]]:
    """Run one grid task, per-candidate or batched.

    With batch groups installed, ``first`` indexes a group and the
    return value carries one ``(candidate, shard, hits, starts)`` entry
    per member; otherwise ``first`` is a candidate index and exactly one
    entry comes back.  Either way the merge loop sums per candidate.
    """
    if ctx.batch_groups:
        return [
            (candidate, second, hits, starts)
            for candidate, hits, starts in _scan_shard_batch(
                ctx, first, second
            )
        ]
    hits, starts = _scan_shard(ctx, first, second)
    return [(first, second, hits, starts)]


def _pool_batch(batch: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    """Worker entry point: run a contiguous slice of the task grid.

    Batching keeps IPC and bookkeeping off the per-task path: the
    observability state (metric counter deltas, cache counter deltas,
    serialized spans) is captured once around the whole batch, and one
    result dict crosses the pipe per batch instead of per task.
    """
    ctx = _CTX
    if ctx is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "worker scan context missing (fork inheritance failed)"
        )
    registry = global_metrics()
    before = registry.snapshot()
    cache = ctx.system.conversion_cache
    cache_before = cache.snapshot()
    tracer = Tracer(parent=ctx.trace_context) if ctx.trace else None
    results: List[Tuple[int, int, int, int]] = []
    label = "group" if ctx.batch_groups else "candidate"

    def run_tasks() -> None:
        for first, second in batch:
            with span(
                "mine.worker",
                pid=os.getpid(),
                shard=second,
                **{label: first},
            ) as worker_span:
                entries = _execute_task(ctx, first, second)
                worker_span.set(
                    hits=sum(entry[2] for entry in entries),
                    starts=sum(entry[3] for entry in entries),
                )
            results.extend(entries)

    if tracer is not None:
        with activate_tracer(tracer):
            run_tasks()
    else:
        run_tasks()
    cache_after = cache.snapshot()
    return {
        "results": results,
        "counter_deltas": counter_deltas(before, registry.snapshot()),
        "cache_deltas": {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
            "evictions": cache_after.evictions - cache_before.evictions,
        },
        "spans": [root.to_dict() for root in tracer.roots] if tracer else [],
    }


def _inline_batch(batch: Sequence[Tuple[int, int]]) -> Dict[str, object]:
    """The in-process twin of :func:`_pool_batch`.

    Counters hit the parent registry directly and spans nest under the
    already-active tracer, so nothing is captured for merging.
    """
    results: List[Tuple[int, int, int, int]] = []
    label = "group" if _CTX.batch_groups else "candidate"
    for first, second in batch:
        with span(
            "mine.worker",
            pid=os.getpid(),
            shard=second,
            inline=True,
            **{label: first},
        ) as worker_span:
            entries = _execute_task(_CTX, first, second)
            worker_span.set(
                hits=sum(entry[2] for entry in entries),
                starts=sum(entry[3] for entry in entries),
            )
        results.extend(entries)
    return {
        "results": results,
        "counter_deltas": {},
        "cache_deltas": {},
        "spans": [],
    }


def _plan_batches(
    tasks: Sequence[Tuple[int, int]], workers: int
) -> List[List[Tuple[int, int]]]:
    """Contiguous batches of the task grid, ~4 per worker.

    Contiguity keeps each worker on few distinct candidates (the
    matcher memo stays hot); ~4 batches per worker rebalances
    stragglers without per-task IPC.
    """
    target = max(1, -(-len(tasks) // max(1, workers * 4)))
    return [
        list(tasks[start:start + target])
        for start in range(0, len(tasks), target)
    ]


# ----------------------------------------------------------------------
# Orchestration (parent side)
# ----------------------------------------------------------------------
@dataclass
class CandidateResult:
    """Merged scan outcome of one candidate (shard sums, task order)."""

    assignment: Dict[str, str]
    hits: int = 0
    starts: int = 0


def parallel_scan(
    sequence: EventSequence,
    system: GranularitySystem,
    structure: EventStructure,
    candidates: Sequence[Dict[str, str]],
    windows: Dict[str, Tuple[int, int]],
    roots: Sequence[int],
    horizon: Optional[int],
    strict: bool = False,
    workers: int = 1,
    shard_size: Union[int, str, None] = "auto",
    anchor_screen: bool = True,
    executor: str = "auto",
) -> Tuple[List[CandidateResult], Dict[str, object]]:
    """Scan every candidate over every shard; merge deterministically.

    Returns per-candidate results in candidate order plus a report dict
    (workers, shards, tasks, executor mode) the caller can surface.
    ``executor`` is ``"auto"`` (pool when it would help and fork
    exists), ``"pool"`` or ``"inline"`` (the test hook).
    """
    global _CTX, _MATCHERS, _RUNTIMES
    requirements = [
        candidate_requirements(assignment, windows, structure.root)
        if anchor_screen
        else ()
        for assignment in candidates
    ]
    if shard_size in (None, "auto") and roots:
        # The task grid is candidates x shards: candidates already
        # provide parallel grain, so plan only enough time shards to
        # fill ~4 batches per worker overall.
        desired = max(1, -(-workers * 4 // max(1, len(candidates))))
        shard_size = max(1, -(-len(roots) // desired))
    shards = plan_shards(
        sequence, list(roots), horizon, shard_size=shard_size, workers=workers
    )
    if obs_debug():
        check_shard_invariants(shards, sequence, list(roots), horizon)

    batch_groups: List[Tuple[Tuple[int, ...], object, str]] = []
    if len(candidates) > 1:
        # Compile the frontier into banked tables once, in the parent;
        # workers inherit the compiled groups through fork and share
        # one traversal per (group, shard) task.  Grouping by root
        # symbol first keeps every group anchored on one event type.
        from ..automata.dense import compile_dense_batch

        builds = [
            build_tag(ComplexEventType(structure, assignment), system=system)
            for assignment in candidates
        ]
        by_symbol: Dict[str, List[int]] = {}
        for position, build in enumerate(builds):
            by_symbol.setdefault(build.root_symbol, []).append(position)
        for symbol, members in by_symbol.items():
            for relative, bank in compile_dense_batch(
                [builds[member].tag for member in members]
            ):
                batch_groups.append(
                    (tuple(members[r] for r in relative), bank, symbol)
                )
    if batch_groups:
        tasks = [
            (group_index, shard.index)
            for group_index in range(len(batch_groups))
            for shard in shards
        ]
    else:
        tasks = [
            (candidate_index, shard.index)
            for candidate_index in range(len(candidates))
            for shard in shards
        ]
    mode = executor
    if mode == "auto":
        mode = "pool" if workers > 1 and len(tasks) > 1 else "inline"
    if mode == "pool" and not fork_available():
        mode = "inline"
        _FALLBACK_TOTAL.inc()
    workers_used = max(1, min(workers, len(tasks))) if mode == "pool" else 1
    _SHARDS_TOTAL.add(len(shards))
    _TASKS_TOTAL.add(len(tasks))
    _WORKERS_GAUGE.set(workers_used)

    shm_owner = None
    # Build the columnar view (and its posting columns) once in the
    # parent; pool workers then *attach* to the int64 columns over
    # shared memory instead of faulting copy-on-write fork pages.
    view = sequence.columnar()
    if mode == "pool":
        try:
            shm_owner = view.to_shared()
        except OSError:
            shm_owner = None  # fork inheritance still works

    ctx = ScanContext(
        sequence=sequence,
        system=system,
        structure=structure,
        candidates=list(candidates),
        requirements=requirements,
        shards=shards,
        horizon=horizon,
        strict=strict,
        trace=current_tracer() is not None,
        trace_context=current_context(),
        batch_groups=batch_groups,
    )
    batches = _plan_batches(tasks, workers_used)
    scheduler: Optional[StealScheduler] = None
    _CTX = ctx
    _MATCHERS = {}
    _RUNTIMES = {}
    try:
        if mode == "pool":
            namespace = system.cache_namespace
            entries = system.conversion_cache.export_entries(namespace)
            forms = system.conversion_cache.export_normal_forms(namespace)
            handle = shm_owner.handle() if shm_owner is not None else None
            # Work stealing: one in-flight unit per lane; an idle lane
            # steals the tail half of the richest deque.  Each result
            # lands at its planned unit index, so the merge below is
            # independent of the steal interleaving.
            raw = [None] * len(batches)
            scheduler = StealScheduler(batches, workers_used)
            with ProcessPoolExecutor(
                max_workers=workers_used,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_warm_worker,
                initargs=(namespace, entries, forms, handle),
            ) as pool:
                inflight = {}
                for lane in range(workers_used):
                    item = scheduler.next_for(lane)
                    if item is None:
                        break
                    unit_index, unit = item
                    future = pool.submit(_pool_batch, unit)
                    inflight[future] = (lane, unit_index)
                while inflight:
                    done, _pending = wait(
                        list(inflight), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        lane, unit_index = inflight.pop(future)
                        raw[unit_index] = future.result()
                        item = scheduler.next_for(lane)
                        if item is not None:
                            unit_index, unit = item
                            future = pool.submit(_pool_batch, unit)
                            inflight[future] = (lane, unit_index)
        else:
            raw = [_inline_batch(batch) for batch in batches]
    finally:
        _CTX = None
        _MATCHERS = {}
        _RUNTIMES = {}
        if shm_owner is not None:
            # Unlink even on worker crash: attached segments die with
            # their processes, the owner's close releases the name.
            shm_owner.close()

    results = [
        CandidateResult(assignment=assignment) for assignment in candidates
    ]
    merged_counters: Dict[str, float] = {}
    cache_hits = cache_misses = cache_evictions = 0
    tracer = current_tracer()
    for record in raw:  # planned unit order, whoever ran the unit
        for candidate_index, _shard, hits, starts in record["results"]:
            result = results[candidate_index]
            result.hits += hits
            result.starts += starts
        for sample, delta in record["counter_deltas"].items():
            merged_counters[sample] = merged_counters.get(sample, 0) + delta
        deltas = record["cache_deltas"]
        cache_hits += deltas.get("hits", 0)
        cache_misses += deltas.get("misses", 0)
        cache_evictions += deltas.get("evictions", 0)
        if tracer is not None:
            for payload in record["spans"]:
                tracer.attach(Span.from_dict(payload))
    if merged_counters:
        global_metrics().merge_counter_deltas(merged_counters)
    if cache_hits or cache_misses or cache_evictions:
        system.conversion_cache.merge_counts(
            hits=cache_hits, misses=cache_misses, evictions=cache_evictions
        )
    report = {
        "workers": workers_used,
        "shards": len(shards),
        "tasks": len(tasks),
        "executor": mode,
        "batch_groups": len(batch_groups),
        "steals": scheduler.steals if scheduler is not None else 0,
        "shm": shm_owner.kind if shm_owner is not None else None,
    }
    return results, report
