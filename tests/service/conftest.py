"""Shared fixtures for the detection-service tests.

Every service constructed here forces ``ServiceConfig(enabled=True)``
so the suite also passes under ``REPRO_SERVICE=off`` (the CI service
job runs exactly that combination to prove the kill switch).
"""

import asyncio

import pytest

from repro.automata.builder import build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity.gregorian import SECONDS_PER_HOUR
from repro.obs import configure, obs_enabled

H = SECONDS_PER_HOUR


@pytest.fixture
def chain_build(system):
    """The compiled a -> b -> c chain TAG (hops within [0, 2] hours)."""
    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
    return build_tag(cet, system=system)


@pytest.fixture
def obs_on():
    """Metrics recording on for the test, whatever ``REPRO_OBS`` says."""
    previous = obs_enabled()
    configure(True)
    yield
    configure(previous)


@pytest.fixture
def run():
    """Run a coroutine to completion on a fresh event loop."""
    return asyncio.run


class FakeClock:
    """A manually advanced monotonic clock for breaker determinism."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()
