"""Hot paths never consult the environment per event.

Every layer has one production route decided by its input, so once a
service, matcher and columnar view exist, streaming events through
them and rescanning a sequence must not read a single ``REPRO_*``
environment variable: a per-event ``os.environ`` lookup is pure
overhead on the clock evaluation and matcher dispatch paths.
"""

import asyncio
import os
import random

from repro.automata import TagMatcher, build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity import standard_system
from repro.mining.events import EventSequence
from repro.service import DetectionService, ServiceConfig

HOUR = 3600


class CountingEnviron(dict):
    """An ``os.environ`` stand-in recording every key looked up."""

    def __init__(self, base):
        super().__init__(base)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)


def stream_events(count, seed=101):
    """``a -> b -> c`` chains every 4 hours with noise between them;
    one chain in a hundred never completes."""
    rng = random.Random(seed)
    events = []
    chain = 0
    while len(events) < count + 16:
        start = chain * 4 * HOUR
        events.append(("a", start))
        if chain % 100 != 50:
            b = start + rng.randrange(0, 2 * HOUR)
            events.append(("b", b))
            events.append(("c", b + rng.randrange(0, 2 * HOUR)))
        for _ in range(5):
            events.append(
                (rng.choice("wxyz"), start + rng.randrange(0, 4 * HOUR))
            )
        chain += 1
    events.sort(key=lambda event: event[1])
    return events[:count]


def test_no_environment_reads_after_construction(monkeypatch):
    system = standard_system()
    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {("A", "B"): [TCG(0, 2, hour)], ("B", "C"): [TCG(0, 2, hour)]},
    )
    build = build_tag(
        ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"}),
        system=system,
    )
    events = stream_events(2000)
    service = DetectionService(
        build, config=ServiceConfig(enabled=True), system=system
    )
    matcher = TagMatcher(build)
    sequence = EventSequence(events)
    sequence.columnar()

    environ = CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)

    async def stream():
        for etype, t in events:
            await service.submit("tenant-0", "k", etype, t)
        await service.flush()

    asyncio.run(stream())
    first = list(matcher.matching_roots(sequence))
    again = list(matcher.matching_roots(sequence))

    assert len(service.detections) > 0
    assert first == again and first
    assert [key for key in environ.reads if key.startswith("REPRO_")] == []
