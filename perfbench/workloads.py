"""The four workloads: set-up, timed loops and output checks.

Each workload drives the repo's public entry points under default
settings, from one process and one client:

* ``mine-calendar`` - a closed loop of :func:`repro.core.api.mine` jobs
  with ``system=None`` (a fresh ``standard_system()`` per job, as the
  ``repro mine`` command does) over ~100-event planted logs, rotating
  Example 1 (b-day/week/hour) and the X18 month/business-month shape;
* ``mine-store`` - a closed loop of :meth:`repro.store.EventStore.mine`
  jobs over one resident 10^5-event store and a warm system, each job
  with another candidate frontier of 8-64 candidates;
* ``stream-long`` - one tenant and key through
  :class:`repro.service.DetectionService` with the default
  :class:`~repro.service.ServiceConfig` over a 16k-event stream;
* ``serve-churn`` - 1k tenants round-robin, one 3-event chain each,
  ``max_resident_sessions=32``.

The stream workloads have a closed-loop phase (throughput) and an
open-loop phase at a fixed offered rate (detection latency, timed from
the moment the completing event was due).  Every loop is timed on a
:class:`speed.RefClock` the caller passes in.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gen

clock = time.perf_counter

#: Open-loop offered rates (events per reference second), under half
#: the closed-loop rates measured at the seed commit (about 4800 and
#: 930) - well under on stream-long, whose events cost several times
#: the average over the stream's last tenth - and fixed here so every
#: run and every later commit offers the same load.
STREAM_RATE = 1_500
CHURN_RATE = 350

MONTH_CANDIDATES = {
    "X1": ("UPGRADE", "AUDIT", "CALL"),
    "X2": ("REVIEW", "MAIL", "VISIT"),
    "X3": ("CLOSE", "AUDIT", "MAIL"),
}
STORE_MIN_CONFIDENCE = 0.3


@dataclass
class Phase:
    """What one timed loop did."""

    ops: int = 0
    #: Reference seconds (see ``speed.py``) the loop took, probes excluded.
    ref_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    failed: int = 0
    #: Per-op outputs kept for the checks: ``(key, output)`` pairs.
    outputs: List[Tuple[object, object]] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    backlog_peak: int = 0
    #: Reference seconds of each whole pass over a stream.
    pass_s: List[float] = field(default_factory=list)
    #: Peak resident memory after the loop's first fixed stretch of work.
    rss_mb: float = 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_op(recorder, op: int) -> None:
    if recorder is not None:
        recorder.op = op


def _digest(outcome) -> List[Tuple[tuple, float]]:
    """Solutions with their frequencies, in a comparable form."""
    return sorted(
        (tuple(sorted(cet.assignment.items())), outcome.frequencies[cet])
        for cet in outcome.solutions
    )


# ----------------------------------------------------------------------
# Mining workloads
# ----------------------------------------------------------------------
class MineCalendar:
    streaming = False
    #: Jobs per cycle; the loop only stops at a cycle boundary.
    cycle = 3
    #: Peak memory is read after this many jobs, not at the end: the
    #: process grows with every job it runs, and a run fits as many
    #: jobs as the host's speed allows.
    rss_after = 3

    def generate(self, seed: int):
        return gen.calendar_inputs(seed)

    def setup(self, inputs):
        from repro import TCG, EventSequence, EventStructure
        from repro.granularity import standard_system
        from repro.granularity.combinators import GroupedType

        system = standard_system()
        bday, hour, week = (system.get(g) for g in ("b-day", "hour", "week"))
        example1 = EventStructure(
            ["X0", "X1", "X2", "X3"],
            {
                ("X0", "X1"): [TCG(1, 1, bday)],
                ("X1", "X3"): [TCG(0, 1, week)],
                ("X0", "X2"): [TCG(0, 5, bday)],
                ("X2", "X3"): [TCG(0, 8, hour)],
            },
        )
        month = system.get("month")
        quarter = GroupedType(month, 3, label="quarter")
        month_shape = EventStructure(
            ["X0", "X1", "X2", "X3"],
            {
                ("X0", "X1"): [TCG(1, 6, month)],
                ("X1", "X2"): [TCG(0, 2, quarter)],
                ("X0", "X2"): [TCG(1, 9, system.get("business-month"))],
                ("X2", "X3"): [TCG(2, 11, month)],
            },
        )
        month_candidates = {
            variable: frozenset(types)
            for variable, types in MONTH_CANDIDATES.items()
        }
        # (structure, reference type, sequence, min confidence, candidates)
        problems = {
            ("example1", i): (example1, "IBM-rise", EventSequence(log), 0.5, None)
            for i, log in enumerate(inputs["example1"])
        }
        problems.update(
            (("month", i), (month_shape, "OPEN", EventSequence(log), 0.5,
                            month_candidates))
            for i, log in enumerate(inputs["month"])
        )
        return {"problems": problems}

    @staticmethod
    def job_key(index: int):
        """Jobs run in cycles of three: two Example 1 logs, one month log."""
        cycle, step = divmod(index, 3)
        if step < 2:
            return ("example1", (2 * cycle + step) % gen.LOGS_PER_PATTERN)
        return ("month", cycle % gen.LOGS_PER_PATTERN)

    def run_job(self, state, key):
        from repro.core.api import mine

        structure, reference, sequence, confidence, candidates = state[
            "problems"
        ][key]
        return mine(structure, reference, sequence, confidence, candidates)

    def closed_loop(self, state, seconds: float, ref, recorder=None) -> Phase:
        """Jobs back to back for ``seconds`` of wall time, in whole
        cycles; each job is timed on ``ref``."""
        phase = Phase()
        start = clock()
        began_loop = ref.now()
        index = 0
        while index % self.cycle or clock() - start < seconds:
            key = self.job_key(index)
            _set_op(recorder, index)
            began = ref.now()
            try:
                outcome = self.run_job(state, key)
            except Exception:  # a failed job is counted, the loop goes on
                phase.failed += 1
                outcome = None
            phase.latencies_ms.append((ref.now() - began) * 1e3)
            if outcome is not None:
                phase.outputs.append((key, _digest(outcome)))
            index += 1
            if index == self.rss_after:
                phase.rss_mb = peak_rss_mb()
        phase.ref_s = ref.now() - began_loop
        phase.ops = index
        phase.rss_mb = phase.rss_mb or peak_rss_mb()  # a run too short
        return phase

    def open_loop(self, state, seconds: float, ref) -> Optional[Phase]:
        return None

    def references(self, state, keys):
        from repro.granularity import standard_system
        from repro.mining.discovery import EventDiscoveryProblem, naive_discover

        system = standard_system()
        refs = {}
        for key in keys:
            structure, reference, sequence, confidence, candidates = state[
                "problems"
            ][key]
            problem = EventDiscoveryProblem(
                structure=structure,
                min_confidence=confidence,
                reference_type=reference,
                candidates=dict(candidates) if candidates else {},
            )
            refs[key] = _digest(naive_discover(problem, sequence, system))
        return refs

    def check(self, state, phases: Sequence[Phase]) -> int:
        keys = {key for phase in phases for key, _ in phase.outputs}
        refs = self.references(state, sorted(keys))
        return sum(
            1
            for phase in phases
            for key, output in phase.outputs
            if output != refs[key]
        )


class MineStore(MineCalendar):
    cycle = 1

    def generate(self, seed: int):
        return gen.store_inputs(seed)

    def setup(self, inputs):
        from repro import TCG, EventStructure
        from repro.granularity import standard_system
        from repro.mining.discovery import EventDiscoveryProblem
        from repro.store import EventStore

        system = standard_system()
        structure = EventStructure(
            ["X0", "X1", "X2"],
            {
                ("X0", "X1"): [TCG(0, 2, system.get("hour"))],
                ("X1", "X2"): [TCG(0, 10, system.get("minute"))],
            },
        )
        store = EventStore()
        store.extend(inputs["events"])
        store.columnar()
        store.anchor_index()
        problems = [
            EventDiscoveryProblem(
                structure=structure,
                min_confidence=STORE_MIN_CONFIDENCE,
                reference_type="ROOT",
                candidates={"X1": frozenset(mids), "X2": frozenset(tails)},
            )
            for mids, tails in inputs["frontiers"]
        ]
        return {
            "system": system,
            "structure": structure,
            "store": store,
            "problems": problems,
            "events": inputs["events"],
        }

    @staticmethod
    def job_key(index: int):
        return index % len(gen.STORE_FRONTIERS)

    def run_job(self, state, key):
        return state["store"].mine(state["problems"][key], state["system"])

    def references(self, state, keys):
        """Per-pair frequencies from single-candidate TAG matchers.

        Each (X1, X2) pair is matched alone over the events of its three
        types; with non-strict matching, events of other types are only
        ever skipped, so this equals matching over the whole store.
        """
        from repro import EventSequence
        from repro.core.api import compile_pattern
        from repro.granularity import standard_system

        system = standard_system()
        events = state["events"]
        total = sum(1 for etype, _ in events if etype == "ROOT")
        frequency: Dict[Tuple[str, str], float] = {}
        refs = {}
        for key in keys:
            problem = state["problems"][key]
            solutions = []
            for mid in sorted(problem.candidates["X1"]):
                for tail in sorted(problem.candidates["X2"]):
                    if (mid, tail) not in frequency:
                        kept = ("ROOT", mid, tail)
                        matcher = compile_pattern(
                            state["structure"],
                            {"X0": "ROOT", "X1": mid, "X2": tail},
                            system,
                        )
                        frequency[mid, tail] = matcher.count_occurrences(
                            EventSequence(e for e in events if e[0] in kept)
                        ) / total
                    if frequency[mid, tail] > problem.min_confidence:
                        assignment = {"X0": "ROOT", "X1": mid, "X2": tail}
                        solutions.append(
                            (tuple(sorted(assignment.items())),
                             frequency[mid, tail])
                        )
            refs[key] = sorted(solutions)
        return refs


# ----------------------------------------------------------------------
# Streaming workloads
# ----------------------------------------------------------------------
def _chain_structure(system):
    from repro import TCG, ComplexEventType, EventStructure

    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {("A", "B"): [TCG(0, 2, hour)], ("B", "C"): [TCG(0, 2, hour)]},
    )
    return ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})


class StreamLong:
    streaming = True
    rate = STREAM_RATE

    def generate(self, seed: int):
        events = gen.stream_inputs(seed)["events"]
        return [("tenant-0", "k", etype, t) for etype, t in events]

    def config(self):
        from repro.service import ServiceConfig

        return ServiceConfig()

    def setup(self, records):
        from repro import build_tag
        from repro.granularity import standard_system

        system = standard_system()
        build = build_tag(_chain_structure(system), system=system)
        state = {"system": system, "build": build, "records": records}
        state["service"] = self.new_service(state)
        return state

    def new_service(self, state):
        from repro.service import DetectionService

        return DetectionService(
            state["build"], config=self.config(), system=state["system"]
        )

    def _next_service(self, state):
        service = state.pop("service", None)
        return service if service is not None else self.new_service(state)

    @staticmethod
    def _summary(service):
        found = sorted(
            (d.tenant, d.detection.anchor_time, d.detection.detected_at,
             tuple(sorted(d.detection.bindings.items())))
            for d in service.detections
        )
        return found, len(service.quarantine)

    def closed_loop(self, state, seconds: float, ref, recorder=None) -> Phase:
        """Whole passes over the stream, each on a fresh service, until
        ``seconds`` of wall time have passed; each pass is timed on
        ``ref`` and its final flush is inside the timing."""
        phase = Phase()
        records = state["records"]

        async def one_pass(service):
            began = ref.now()
            for index, (tenant, key, etype, t) in enumerate(records):
                _set_op(recorder, index)
                try:
                    await service.submit(tenant, key, etype, t)
                except Exception:  # refused or raised: counted as failed
                    phase.failed += 1
            await service.flush()
            elapsed = ref.now() - began
            await service.close()
            return elapsed

        start = clock()
        while phase.ops == 0 or clock() - start < seconds:
            service = self._next_service(state)
            elapsed = asyncio.run(one_pass(service))
            phase.pass_s.append(elapsed)
            phase.ref_s += elapsed
            phase.ops += len(records)
            phase.outputs.append(("pass", self._summary(service)))
            state["last_service"] = service
            if not phase.rss_mb:  # after the first pass, as on mine-*
                phase.rss_mb = peak_rss_mb()
        return phase

    def open_loop(self, state, seconds: float, ref) -> Phase:
        """Events offered at ``rate`` per reference second; whole
        passes, as many as fit in ``seconds`` (at least one).  The
        schedule runs on ``ref``, so it pauses while ``ref`` probes and
        the offered load follows the host's speed."""
        phase = Phase()
        records = state["records"]
        interval = 1.0 / self.rate
        passes = max(1, int(seconds * self.rate / len(records)))

        async def one_pass(service):
            detections = service.detections
            start = ref.now() + 0.01
            for index, (tenant, key, etype, t) in enumerate(records):
                due = start + index * interval
                ref.wait_until(due)
                now = ref.now()
                phase.lags_ms.append((now - due) * 1e3)
                backlog = int((now - start) / interval) - index
                if backlog > phase.backlog_peak:
                    phase.backlog_peak = backlog
                before = len(detections)
                try:
                    await service.submit(tenant, key, etype, t)
                except Exception:  # refused or raised: counted as failed
                    phase.failed += 1
                if len(detections) > before:
                    seen = ref.now()
                    phase.latencies_ms.extend(
                        [(seen - due) * 1e3] * (len(detections) - before)
                    )
            await service.flush()
            phase.ref_s += ref.now() - start
            await service.close()

        for _ in range(passes):
            service = self.new_service(state)
            asyncio.run(one_pass(service))
            phase.ops += len(records)
            phase.outputs.append(("pass", self._summary(service)))
        return phase

    def expected(self, state):
        """Batch ``TagMatcher.matching_roots`` over the same sequence."""
        from repro import EventSequence, TagMatcher

        sequence = EventSequence([(etype, t) for _, _, etype, t in
                                  state["records"]])
        matcher = TagMatcher(state["build"])
        return sorted(sequence[i].time for i in matcher.matching_roots(sequence))

    def check(self, state, phases: Sequence[Phase]) -> int:
        anchors = self.expected(state)
        failed = 0
        for phase in phases:
            for _, (found, quarantined) in phase.outputs:
                got = sorted(anchor for _, anchor, _, _ in found)
                failed += quarantined + _mismatches(got, anchors)
        return failed


class ServeChurn(StreamLong):
    rate = CHURN_RATE

    def generate(self, seed: int):
        return gen.churn_inputs(seed)["records"]

    def config(self):
        from repro.service import ServiceConfig

        return ServiceConfig(max_resident_sessions=32)

    def expected(self, state):
        """Each tenant replayed alone through a standalone matcher."""
        from repro import StreamingMatcher

        per_tenant: Dict[str, List[Tuple[str, int]]] = {}
        for tenant, _, etype, t in state["records"]:
            per_tenant.setdefault(tenant, []).append((etype, t))
        found = []
        for tenant, events in per_tenant.items():
            matcher = StreamingMatcher(state["build"])
            detections = matcher.feed_sequence(events) + matcher.flush()
            found.extend(
                (tenant, d.anchor_time, d.detected_at,
                 tuple(sorted(d.bindings.items())))
                for d in detections
            )
        return sorted(found)

    def check(self, state, phases: Sequence[Phase]) -> int:
        """Detections equal the standalone replays, and every tenant
        has exactly one."""
        expected = self.expected(state)
        tenants = {tenant for tenant, _, _, _ in state["records"]}
        failed = 0
        for phase in phases:
            for _, (found, quarantined) in phase.outputs:
                per_tenant: Dict[str, int] = {}
                for tenant, _, _, _ in found:
                    per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
                failed += quarantined + _mismatches(found, expected)
                failed += sum(1 for t in tenants if per_tenant.get(t) != 1)
        return failed


def _mismatches(got: Sequence, expected: Sequence) -> int:
    """Items in one sorted multiset but not the other."""
    remaining: Dict[object, int] = {}
    for item in expected:
        remaining[item] = remaining.get(item, 0) + 1
    extra = 0
    for item in got:
        if remaining.get(item, 0) > 0:
            remaining[item] -= 1
        else:
            extra += 1
    return extra + sum(remaining.values())


WORKLOADS: Dict[str, Callable[[], object]] = {
    "mine-calendar": MineCalendar,
    "mine-store": MineStore,
    "stream-long": StreamLong,
    "serve-churn": ServeChurn,
}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
