"""Instrumentation must not change results.

The whole layer's core promise: a propagation run with observability
recording is *bit-identical* to the same run with ``REPRO_OBS=off``,
and the registry's mirrors agree exactly with the plain-int counters on
``PropagationResult`` (which keep working either way).
"""

import random

import pytest

from repro.bench.harness import _consistent_random_dag
from repro.constraints import propagate
from repro.constraints.propagation import ENGINES, resolve_engine
from repro.constraints.stp import EngineUnavailable
from repro.granularity import standard_system
from repro.granularity.convcache import ConversionCache
from repro.obs import configure, global_metrics


def _fresh_system():
    # A private cache per run so the two runs see identical cache
    # temperature (the shared global cache would warm between them).
    return standard_system(cache=ConversionCache())


@pytest.fixture
def structure():
    system = standard_system()
    return _consistent_random_dag(16, system, random.Random(16))


def _groups_of(result):
    return {
        label: dict(group) for label, group in result.groups.items()
    }


class TestDifferential:
    # The concrete engines ("auto" resolves to one of them), resolved
    # at run time so an engine without its dependency skips alone.
    @pytest.mark.parametrize(
        "engine", sorted(set(ENGINES) - {"auto"})
    )
    def test_on_off_bit_identical(self, structure, engine, obs_on):
        try:
            resolve_engine(engine)
        except EngineUnavailable as exc:
            pytest.skip("engine %r unavailable: %s" % (engine, exc))
        on = propagate(structure, _fresh_system(), engine=engine)
        configure(False)
        try:
            off = propagate(structure, _fresh_system(), engine=engine)
        finally:
            configure(True)
        assert on.consistent == off.consistent
        assert on.iterations == off.iterations
        assert _groups_of(on) == _groups_of(off)
        assert on.conversions_performed == off.conversions_performed
        assert on.conversion_cache_hits == off.conversion_cache_hits
        assert on.conversion_cache_misses == off.conversion_cache_misses
        assert on.closures_full == off.closures_full
        assert on.closures_incremental == off.closures_incremental

    def test_result_counters_work_with_obs_off(self, structure, obs_off):
        result = propagate(structure, _fresh_system())
        # The PropagationResult fields are plain ints, not registry
        # views: they stay populated when the registry is a no-op.
        assert result.iterations > 0
        assert result.conversions_performed > 0
        assert (
            result.conversion_cache_hits + result.conversion_cache_misses
            == result.conversions_performed
        )

    def test_registry_mirrors_match_result_fields(self, structure, obs_on):
        registry = global_metrics()
        names = [
            "repro_propagation_runs_total",
            "repro_propagation_iterations_total",
            "repro_propagation_closures_full_total",
            "repro_propagation_closures_incremental_total",
            "repro_propagation_conversions_total",
            "repro_propagation_conversion_cache_hits_total",
            "repro_propagation_conversion_cache_misses_total",
        ]
        before = {
            name: registry.get(name).value() for name in names
        }
        result = propagate(structure, _fresh_system())
        deltas = {
            name: registry.get(name).value() - before[name]
            for name in names
        }
        assert deltas["repro_propagation_runs_total"] == 1
        assert (
            deltas["repro_propagation_iterations_total"]
            == result.iterations
        )
        assert (
            deltas["repro_propagation_closures_full_total"]
            == result.closures_full
        )
        assert (
            deltas["repro_propagation_closures_incremental_total"]
            == result.closures_incremental
        )
        assert (
            deltas["repro_propagation_conversions_total"]
            == result.conversions_performed
        )
        assert (
            deltas["repro_propagation_conversion_cache_hits_total"]
            == result.conversion_cache_hits
        )
        assert (
            deltas["repro_propagation_conversion_cache_misses_total"]
            == result.conversion_cache_misses
        )


class TestConversionCacheCounters:
    """Satellite: snapshot()/reset() semantics and thread safety."""

    def test_snapshot_is_consistent_reading(self):
        cache = ConversionCache()
        cache.get(("ns", 0, 1, "a", "b", "direct"))  # miss
        cache.put(("ns", 0, 1, "a", "b", "direct"), object())
        cache.get(("ns", 0, 1, "a", "b", "direct"))  # hit
        snap = cache.snapshot()
        assert (snap.hits, snap.misses, snap.entries) == (1, 1, 1)

    def test_reset_zeroes_counters_but_keeps_entries(self):
        cache = ConversionCache()
        key = ("ns", 0, 1, "a", "b", "direct")
        cache.get(key)
        cache.put(key, object())
        cache.reset()
        snap = cache.snapshot()
        assert (snap.hits, snap.misses, snap.evictions) == (0, 0, 0)
        assert snap.entries == 1
        assert cache.get(key) is not None  # still warm -> a hit
        assert cache.snapshot().hits == 1

    def test_bounded_cache_counts_evictions(self):
        cache = ConversionCache(max_entries=2)
        for index in range(4):
            cache.put(("ns", index, 0, "a", "b", "m"), object())
        snap = cache.snapshot()
        assert snap.entries == 2
        assert snap.evictions == 2

    def test_counters_survive_concurrent_updates(self):
        import threading

        cache = ConversionCache()
        key = ("ns", 0, 1, "a", "b", "direct")
        cache.put(key, object())
        per_thread = 2_000

        def worker():
            for _ in range(per_thread):
                cache.get(key)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Read-modify-writes are lock-guarded: no lost updates.
        assert cache.snapshot().hits == 4 * per_thread

    def test_counters_count_with_obs_off(self, obs_off):
        # Cache counters are plain ints surfaced on PropagationResult;
        # they are not gated by the obs switch.
        cache = ConversionCache()
        cache.get(("ns", 0, 1, "a", "b", "direct"))
        assert cache.snapshot().misses == 1
