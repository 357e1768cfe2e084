"""Unit tests for the periodic normal-form compiler and its backend."""

import pickle

import pytest

from repro.granularity import (
    CompiledSizeTable,
    ConversionCache,
    NormalFormError,
    PeriodicNormalForm,
    SizeTable,
    build_size_table,
    compile_normal_form,
    standard_system,
)
from repro.granularity.base import UniformType
from repro.granularity.combinators import FilteredType, GroupedType
from repro.granularity.normalform import (
    cached_normal_form,
    clock_distance,
    clock_form,
    clock_tick_of,
)
from repro.granularity.periodic import PeriodicPatternType
from repro.granularity.sizes import BoundedMemo

from ..oracles import sweep_route, sweep_system


class TestCompiler:
    def test_uniform_is_structural(self):
        form = compile_normal_form(UniformType("u", 60, phase=7))
        assert form.source == "structural"
        assert form.period_ticks == 1
        assert form.period_seconds == 60
        assert form.exact_cover
        assert form.firsts == (7,)

    def test_periodic_pattern_is_structural(self):
        ttype = PeriodicPatternType("p", 100, [(10, 20), (50, 5)], phase=3)
        form = compile_normal_form(ttype)
        assert form.source == "structural"
        assert form.period_ticks == 2
        assert form.period_instants == 25
        assert form.exact_cover

    def test_gap_runs_account_for_uncovered_seconds(self):
        ttype = PeriodicPatternType("p", 100, [(10, 20), (50, 5)])
        form = compile_normal_form(ttype)
        assert sum(length for _, length in form.gap_runs) == 75
        info = form.describe()
        assert info["gap_seconds"] == 75
        assert info["period_instants"] == 25

    def test_business_day_is_scanned_and_exact(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("b-day"))
        assert form.source == "scanned"
        assert form.period_ticks == 5
        assert form.exact_cover

    def test_month_lowers_via_gregorian_cycle(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("month"))
        assert form.source == "algebra"
        assert form.rule == "gregorian-cycle"
        assert form.period_ticks == 4800
        assert form.period_seconds == 146097 * 86400
        assert form.prefix_ticks == 0
        assert form.exact_cover

    def test_year_lowers_via_gregorian_cycle(self):
        system = standard_system(cache=ConversionCache())
        form = compile_normal_form(system.get("year"))
        assert form.rule == "gregorian-cycle"
        assert form.period_ticks == 400
        assert form.exact_cover

    def test_filtered_type_does_not_lower(self):
        base = UniformType("u", 10)
        filtered = FilteredType(base, lambda index: index % 2 == 0, "even")
        with pytest.raises(NormalFormError):
            compile_normal_form(filtered)

    def test_grouped_over_gappy_base_is_not_exact_cover(self):
        base = PeriodicPatternType("b", 50, [(0, 10), (25, 10)])
        grouped = GroupedType(base, 2, label="g2")
        form = compile_normal_form(grouped)
        assert not form.exact_cover

    def test_cached_normal_form_memoizes_on_instance(self):
        ttype = UniformType("u", 10)
        first = cached_normal_form(ttype)
        assert cached_normal_form(ttype) is first

    def test_cached_normal_form_none_for_non_lowering(self):
        base = UniformType("u", 10)
        filtered = FilteredType(base, lambda index: index % 2 == 0, "even")
        assert cached_normal_form(filtered) is None

    def test_over_budget_type_does_not_compile(self, monkeypatch):
        monkeypatch.setenv("REPRO_NF_MAX_PERIOD", "16")
        system = standard_system(cache=ConversionCache())
        with pytest.raises(NormalFormError) as excinfo:
            compile_normal_form(system.get("month"))
        assert excinfo.value.reason == "over-budget"

    def test_forms_are_picklable(self):
        form = compile_normal_form(
            PeriodicPatternType("p", 60, [(0, 20), (30, 10)])
        )
        clone = pickle.loads(pickle.dumps(form))
        assert clone == form
        assert clone.gap_runs == form.gap_runs


class TestPrefixForms:
    """Aperiodic-prefix handling via hand-built normal forms."""

    def form(self):
        # Prefix: one irregular tick [0, 4]; then period 2 ticks / 20 s
        # starting at 10: [10,12], [15,19] then [30,32], [35,39] ...
        return PeriodicNormalForm(
            label="pfx",
            period_ticks=2,
            period_seconds=20,
            firsts=(10, 15),
            lasts=(12, 19),
            prefix_firsts=(0,),
            prefix_lasts=(4,),
            exact_cover=False,
        )

    def test_instant_of_tick(self):
        form = self.form()
        assert form.instant_of_tick(0) == (0, 4)
        assert form.instant_of_tick(1) == (10, 12)
        assert form.instant_of_tick(2) == (15, 19)
        assert form.instant_of_tick(3) == (30, 32)
        assert form.instant_of_tick(4) == (35, 39)

    def test_tick_of_instant(self):
        form = self.form()
        assert form.tick_of_instant(0) == 0
        assert form.tick_of_instant(4) == 0
        assert form.tick_of_instant(5) is None
        assert form.tick_of_instant(11) == 1
        assert form.tick_of_instant(19) == 2
        assert form.tick_of_instant(31) == 3
        assert form.tick_of_instant(36) == 4
        assert form.tick_of_instant(13) is None

    def test_size_queries_match_a_sweeping_reference(self):
        form = self.form()

        from repro.granularity.base import TemporalType

        class _FormBacked(TemporalType):
            """A type realising exactly the hand-built form's ticks."""

            label = "pfx"

            def tick_bounds(self, index):
                return form.instant_of_tick(index)

            def tick_of(self, second):
                return form.tick_of_instant(second)

            def period_info(self):
                return None

        ttype = _FormBacked()
        reference = SizeTable(ttype, horizon=64)
        compiled = CompiledSizeTable(ttype, form=form)
        # horizon 64 over a 2-tick period: exact up to n/2 = 32 probes
        # for a type with no declared period.
        for k in range(1, 12):
            assert compiled.minsize(k) == reference.minsize(k), k
            assert compiled.maxsize(k) == reference.maxsize(k), k
            assert compiled.mingap(k) == reference.mingap(k), k

    def test_validation_rejects_overlapping_prefix(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(0,),
                lasts=(4,),
                prefix_firsts=(0,),
                prefix_lasts=(5,),
            )

    def test_validation_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(5,),
                lasts=(3,),
            )

    def test_validation_rejects_window_exceeding_period(self):
        with pytest.raises(ValueError):
            PeriodicNormalForm(
                label="bad",
                period_ticks=1,
                period_seconds=10,
                firsts=(0,),
                lasts=(10,),
            )


class TestBuildSizeTable:
    def test_sweep_backend(self):
        table = build_size_table(sweep_route(UniformType("u", 10)))
        assert isinstance(table, SizeTable)
        assert table.backend == "sweep"

    def test_auto_compiles_when_possible(self):
        table = build_size_table(UniformType("u", 10))
        assert isinstance(table, CompiledSizeTable)
        assert table.backend == "compiled"

    def test_auto_falls_back_to_sweep(self, monkeypatch):
        monkeypatch.setenv("REPRO_NF_MAX_PERIOD", "16")
        system = standard_system(cache=ConversionCache())
        table = build_size_table(system.get("month"))
        assert isinstance(table, SizeTable)

    def test_compiled_refuses_non_lowering(self, monkeypatch):
        # An explicit compiled table never degrades to a sweep.
        monkeypatch.setenv("REPRO_NF_MAX_PERIOD", "16")
        system = standard_system(cache=ConversionCache())
        with pytest.raises(NormalFormError):
            CompiledSizeTable(system.get("month"))

    def test_probe_stats_shape(self):
        table = build_size_table(UniformType("u", 10))
        table.minsize(3)
        table.minsize(3)
        stats = table.probe_stats()
        assert stats["backend"] == "compiled"
        assert stats["probes"] == 2
        assert stats["memo_hits"] == 1
        assert stats["compiled_hits"] == 1
        assert "memo_evictions" in stats


class TestMemoBounds:
    def test_bounded_memo_evicts_lru(self):
        memo = BoundedMemo(2)
        memo.put(1, "a")
        memo.put(2, "b")
        assert memo.get(1) == "a"  # 1 becomes most recent
        memo.put(3, "c")  # evicts 2
        assert memo.get(2) is None
        assert memo.get(1) == "a"
        assert memo.evictions == 1
        assert len(memo) == 2

    def test_sweep_table_memo_is_bounded(self):
        table = SizeTable(UniformType("u", 10), memo_entries=4)
        for k in range(1, 10):
            table.minsize(k)
        assert table.memo_evictions > 0
        assert table.probe_stats()["memo_evictions"] == table.memo_evictions

    def test_compiled_table_memo_is_bounded(self):
        # Varying segment lengths so the minimization pass cannot
        # reduce the period below 10 ticks.
        ttype = PeriodicPatternType(
            "p", 100, [(i * 10, i % 3 + 1) for i in range(10)]
        )
        table = CompiledSizeTable(ttype, memo_entries=4)
        for k in range(1, 10):
            table.minsize(k)
        assert table.memo_evictions > 0


class TestClockRouting:
    def test_clock_form_none_under_sweep(self):
        assert clock_form(sweep_route(UniformType("u", 10))) is None

    def test_clock_form_none_without_exact_cover(self):
        base = PeriodicPatternType("b", 50, [(0, 10), (25, 10)])
        grouped = GroupedType(base, 2, label="g2")
        assert clock_form(grouped) is None

    def test_clock_helpers_match_type_methods(self):
        def make():
            return PeriodicPatternType("p", 60, [(0, 20), (30, 10)])

        compiled = make()
        assert clock_form(compiled) is not None
        for ttype in (compiled, sweep_route(make())):
            for second in range(0, 200, 7):
                assert clock_tick_of(ttype, second) == ttype.tick_of(
                    second
                ), second
            assert clock_distance(ttype, 5, 95) == ttype.distance(5, 95)


class TestConvcacheForms:
    def test_export_and_preload_roundtrip(self):
        cache = ConversionCache()
        form = compile_normal_form(UniformType("u", 10))
        cache.put_normal_form(7, "u", form)
        assert cache.get_normal_form(7, "u") is form
        assert cache.get_normal_form(8, "u") is None
        exported = cache.export_normal_forms(7)
        assert exported == [("u", form)]
        other = ConversionCache()
        assert other.preload_normal_forms(3, exported) == 1
        assert other.get_normal_form(3, "u") == form
        assert cache.stats()["normal_forms"] == 1

    def test_clear_drops_forms(self):
        cache = ConversionCache()
        cache.put_normal_form(1, "u", object())
        cache.clear()
        assert cache.get_normal_form(1, "u") is None

    def test_system_table_populates_form_cache(self):
        cache = ConversionCache()
        system = standard_system(cache=cache)
        system.table("b-day")
        namespace = system.cache_namespace
        assert cache.get_normal_form(namespace, "b-day") is not None

    def test_sweep_system_does_not_touch_form_cache(self):
        system = sweep_system()
        system.table("b-day")
        assert system.conversion_cache.stats()["normal_forms"] == 0


class TestCoverSet:
    """The covered-instant sets coverage is decided on."""

    def test_touching_ticks_merge_and_full_cover_has_period_one(self):
        form = compile_normal_form(
            PeriodicPatternType("halves", 20, [(0, 10), (10, 10)], phase=5)
        )
        cover = form.cover()
        assert (cover.firsts, cover.lasts, cover.period_seconds) == (
            (5,),
            (5,),
            1,
        )
        assert list(cover.gaps(100)) == [(0, 4)]

    def test_wrapping_run_rotates_the_period(self):
        # Ticks [0, 3] and [8, 9] of a 10 s cycle: [8, 13] is one run.
        cover = compile_normal_form(
            PeriodicPatternType("wrap", 10, [(0, 4), (8, 2)])
        ).cover()
        assert cover.prefix_firsts == (0,) and cover.prefix_lasts == (3,)
        assert (cover.firsts, cover.lasts) == ((8,), (13,))
        assert list(cover.gaps(30)) == [(4, 7), (14, 17), (24, 27)]

    def test_period_reduces_to_the_smallest_divisor(self):
        # Two different ticks per 20 s, but the instant set repeats
        # every 10 s: [0, 3] + [10, 12] and [13, 13] touch.
        cover = compile_normal_form(
            PeriodicPatternType("fold", 20, [(0, 4), (10, 3), (13, 1)])
        ).cover()
        assert cover.period_seconds == 10
        assert (cover.firsts, cover.lasts) == ((0,), (3,))

    def test_first_at_or_after_and_from_instant(self):
        cover = compile_normal_form(
            PeriodicPatternType("p", 10, [(2, 3)], phase=1)
        ).cover()
        assert [cover.first_at_or_after(t) for t in (0, 3, 6, 13)] == [
            3,
            3,
            13,
            13,
        ]
        later = cover.from_instant(14)
        assert later.prefix_firsts == (14,) and later.prefix_lasts == (15,)
        assert later.first_at_or_after(0) == 14
        assert later.first_at_or_after(16) == 23

    def test_bounds_only_form_has_no_cover(self):
        form = PeriodicNormalForm(
            label="hand", period_ticks=1, period_seconds=10,
            firsts=(0,), lasts=(5,),
        )
        assert form.cover() is None
