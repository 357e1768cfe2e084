"""Service gauges: exact against a full scan, O(1) in the tenant count.

``repro_service_queue_depth`` and ``repro_service_breaker_state`` are
kept incrementally (a running queue count and the set of tenants whose
breaker tripped).  These tests hold them to what a scan over every
tenant reads at each export, across shedding, trips, cooldowns and
half-open probes; and check that the number of breaker reads per event
does not grow with the number of tenants.
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import configure, gauge, obs_enabled
from repro.service import (
    BREAKER_STATES,
    CircuitBreaker,
    DetectionService,
    ServiceConfig,
    TenantOverloadError,
)

from .conftest import FakeClock

H = 3600
TENANTS = ("t0", "t1")
ETYPES = ("a", "b", "c", "")  # "" is invalid: a breaker failure

OPS = st.sampled_from(
    [("submit", tenant, etype) for tenant in TENANTS for etype in ETYPES]
    + [("drain",), ("advance", 5.0), ("advance", 10.0), ("flush",)]
)


def exported():
    """The values the service last published."""
    depth = gauge("repro_service_queue_depth").value()
    states = {
        state: gauge(
            "repro_service_breaker_state", labels={"state": state}
        ).value()
        for state in BREAKER_STATES
    }
    return depth, states


def full_scan(service):
    """The oracle: sum every queue, read every breaker."""
    depth = sum(service.parked(t) for t in service.tenants())
    states = {state: 0 for state in BREAKER_STATES}
    for state in service._tenants.values():
        states[state.breaker.state] += 1
    return depth, states


@settings(
    max_examples=100,
    deadline=None,
    # The compiled TAG is immutable, so one per test is enough.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(OPS, min_size=4, max_size=40),
    policy=st.sampled_from(
        ["raise", "shed-oldest", "shed-newest", "sample"]
    ),
    probes=st.integers(min_value=1, max_value=2),
)
def test_gauges_equal_a_full_scan_at_every_export(
    chain_build, ops, policy, probes
):
    previous = obs_enabled()
    configure(True)
    try:
        clock = FakeClock()
        checks = []

        async def go():
            service = DetectionService(
                chain_build,
                ServiceConfig(
                    enabled=True,
                    queue_capacity=2,
                    shed_policy=policy,
                    max_resident_sessions=2,
                    breaker_failure_threshold=1,
                    breaker_reset_seconds=10.0,
                    breaker_half_open_probes=probes,
                    breaker_clock=clock,
                ),
            )
            export = service._export_gauges

            def checked_export():
                export()
                assert exported() == full_scan(service)
                checks.append(1)

            service._export_gauges = checked_export
            times = {tenant: 0 for tenant in TENANTS}
            for op in ops:
                if op[0] == "submit":
                    _, tenant, etype = op
                    times[tenant] += H
                    try:
                        await service.submit(
                            tenant, "k", etype, times[tenant]
                        )
                    except TenantOverloadError:
                        pass
                elif op[0] == "drain":
                    await service.drain()
                elif op[0] == "advance":
                    clock.advance(op[1])
                else:
                    await service.flush()
                # Also consistent between exports, e.g. right after a
                # cooldown elapsed with nothing queued.
                service._export_gauges()
            await service.close()

        asyncio.run(go())
        assert checks
    finally:
        configure(previous)


def breaker_reads_per_event(build, tenants, monkeypatch):
    """Submit a two-event chain prefix for each tenant, round-robin;
    count ``CircuitBreaker.state`` reads per submitted event."""
    reads = [0]
    state = CircuitBreaker.state

    def counting(self):
        reads[0] += 1
        return state.fget(self)

    monkeypatch.setattr(CircuitBreaker, "state", property(counting))
    names = ["tenant-%04d" % index for index in range(tenants)]

    async def go():
        service = DetectionService(
            build, ServiceConfig(enabled=True, max_resident_sessions=8)
        )
        events = 0
        for etype, time in (("a", 0), ("b", H)):
            for name in names:
                await service.submit(name, "k", etype, time)
                events += 1
        await service.drain()
        return events

    events = asyncio.run(go())
    monkeypatch.setattr(CircuitBreaker, "state", state)
    return reads[0] / events


def test_breaker_reads_per_event_do_not_grow_with_tenants(
    chain_build, monkeypatch
):
    small = breaker_reads_per_event(chain_build, 100, monkeypatch)
    large = breaker_reads_per_event(chain_build, 1000, monkeypatch)
    assert small == large
