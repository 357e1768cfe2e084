"""Each layer's production route is decided by its input alone.

* granularity: a type that lowers gets the compiled table, anything
  else the sweep;
* automata/store: a sequence with a ``columnar()`` view gets the dense
  runtime, anything else the object loop;
* mining/parallel: a frontier of two or more candidates is banked into
  one batched scan, a frontier of one is scanned alone.
"""

import repro.mining.discovery as discovery_module
from repro.automata import TagMatcher, batch_matching_roots, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import (
    CompiledSizeTable,
    ConversionCache,
    SizeTable,
    standard_system,
)
from repro.mining.discovery import EventDiscoveryProblem, discover
from repro.mining.events import EventSequence
from repro.parallel import parallel_scan

from .oracles import ObjectSequence, sweep_system

EVENTS = [("r", 0), ("a", 1800), ("b", 2400), ("r", 40_000), ("a", 41_000)]


def _structure(system):
    return EventStructure(
        ["R", "A"], {("R", "A"): [TCG(0, 1, system.get("hour"))]}
    )


def _matcher(system, tail):
    cet = ComplexEventType(_structure(system), {"R": "r", "A": tail})
    return TagMatcher(build_tag(cet, system=system))


def test_table_kind_follows_the_type():
    system = standard_system(cache=ConversionCache())
    assert isinstance(system.table("month"), CompiledSizeTable)
    assert isinstance(sweep_system().table("month"), SizeTable)


def test_matcher_runtime_follows_the_sequence(system):
    matcher = _matcher(system, "a")
    sequence = EventSequence(EVENTS)
    assert matcher._columnar_runtime(sequence) is not None
    assert matcher._columnar_runtime(ObjectSequence(sequence)) is None
    assert list(matcher.matching_roots(sequence)) == [0, 3]


def test_frontier_routing_follows_the_sequence(system):
    matchers = [_matcher(system, tail) for tail in ("a", "b")]
    plain = ObjectSequence(EventSequence(EVENTS))
    assert batch_matching_roots(matchers, plain) == [[0, 3], [0]]
    assert all(not matcher._runtimes for matcher in matchers)


def test_mining_banks_frontiers_of_two_or_more(system, monkeypatch):
    banked = []

    def spy(problem, outcome, reduced, system, candidates, *rest):
        banked.append(len(candidates))
        return batched_scan(
            problem, outcome, reduced, system, candidates, *rest
        )

    batched_scan = discovery_module._batched_scan
    monkeypatch.setattr(discovery_module, "_batched_scan", spy)
    sequence = EventSequence(EVENTS)
    structure = _structure(system)
    pair = EventDiscoveryProblem(
        structure, 0.0, "r", candidates={"A": frozenset(["a", "b"])}
    )
    single = EventDiscoveryProblem(
        structure, 0.0, "r", candidates={"A": frozenset(["a"])}
    )
    assert discover(pair, sequence, system).candidates_evaluated == 2
    assert discover(single, sequence, system).candidates_evaluated == 1
    assert banked == [2]


def test_parallel_tasks_bank_frontiers_of_two_or_more(system):
    sequence = EventSequence(EVENTS)

    def scan(candidates):
        _, report = parallel_scan(
            sequence,
            system,
            _structure(system),
            candidates,
            {"A": (0, 7200)},
            [0, 3],
            7200,
            workers=2,
            executor="inline",
        )
        return report["batch_groups"]

    assert scan([{"R": "r", "A": "a"}, {"R": "r", "A": "b"}]) == 1
    assert scan([{"R": "r", "A": "a"}]) == 0
