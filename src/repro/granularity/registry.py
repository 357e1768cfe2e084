"""Granularity systems: named collections of temporal types.

A :class:`GranularitySystem` is the run-time context every higher layer
(constraint propagation, TAG matching, mining) works in: it owns the
types, their size tables, and the cached pairwise conversion-feasibility
relation.  The paper calls this "the considered granularity system" and
assumes a primitive type (seconds here) covering all of absolute time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import calendar as cal
from .base import TemporalType
from .business import BusinessDayType, BusinessMonthType, BusinessWeekType
from .conversion import (
    ConversionOutcome,
    convert_interval,
    covered_by,
    direct_convert_interval,
)
from .convcache import ConversionCache, global_conversion_cache, new_namespace
from .normalform import (
    PeriodicNormalForm,
    build_size_table,
    cached_normal_form,
)
from .sizes import SizeTable

#: Conversion strategies: "direct" scans actual boundary positions
#: (tight, the production default); "figure3" is the paper's table-based
#: appendix A.1 algorithm (kept for fidelity experiments).
CONVERSION_MODES = ("direct", "figure3")


class GranularitySystem:
    """A registry of temporal types with cached tables and conversions."""

    def __init__(
        self,
        types: Iterable[TemporalType] = (),
        horizon: int = 512,
        conversion_mode: str = "direct",
        cache: Optional[ConversionCache] = None,
    ):
        if conversion_mode not in CONVERSION_MODES:
            raise ValueError(
                "conversion_mode must be one of %r" % (CONVERSION_MODES,)
            )
        self.horizon = horizon
        self.conversion_mode = conversion_mode
        self._types: Dict[str, TemporalType] = {}
        self._tables: Dict[str, SizeTable] = {}
        self._covers: Dict[Tuple[str, str], bool] = {}
        # Conversion outcomes live in a process-wide ConversionCache
        # shared across propagation, mining and TAG construction; each
        # system gets its own key namespace because equal labels may
        # name behaviourally different types across systems.
        self._cache = cache if cache is not None else global_conversion_cache()
        self._cache_namespace = new_namespace()
        for ttype in types:
            self.register(ttype)

    @property
    def conversion_cache(self) -> ConversionCache:
        """The cache this system stores conversion outcomes in."""
        return self._cache

    @property
    def cache_namespace(self) -> int:
        """This system's key namespace in the conversion cache.

        A process-local token: the parallel engine exports entries for
        this namespace to warm workers and rebinds them on import.
        """
        return self._cache_namespace

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, ttype: TemporalType) -> TemporalType:
        """Add a type; re-registering an equivalent type is a no-op.

        Two types with the same label must agree behaviourally (see
        :meth:`_same_type`); otherwise registration is rejected to keep
        labels unambiguous.
        """
        existing = self._types.get(ttype.label)
        if existing is not None:
            if existing is ttype or self._same_type(existing, ttype):
                return existing
            raise ValueError(
                "label %r already registered with a different type"
                % (ttype.label,)
            )
        self._types[ttype.label] = ttype
        return ttype

    def _same_type(self, a: TemporalType, b: TemporalType) -> bool:
        """Behavioural equality of two types sharing a label.

        When both lower, their normal forms decide exactly (label and
        provenance aside); otherwise their tick bounds must agree over
        the ``horizon`` ticks the fallback sweep table trusts.
        """
        if type(a) is not type(b):
            return False
        form_a = cached_normal_form(a)
        form_b = cached_normal_form(b) if form_a is not None else None
        if form_a is not None and form_b is not None:
            return _form_shape(form_a) == _form_shape(form_b)
        return all(
            _bounds_or_none(a, index) == _bounds_or_none(b, index)
            for index in range(self.horizon)
        )

    def get(self, label: str) -> TemporalType:
        """Look up a type by label; raises KeyError when unknown."""
        return self._types[label]

    def __contains__(self, label: str) -> bool:
        return label in self._types

    def labels(self) -> List[str]:
        """All registered labels, in registration order."""
        return list(self._types)

    def resolve(self, ttype_or_label) -> TemporalType:
        """Accept either a label or a type (registering the latter)."""
        if isinstance(ttype_or_label, str):
            return self.get(ttype_or_label)
        if isinstance(ttype_or_label, TemporalType):
            return self.register(ttype_or_label)
        raise TypeError(
            "expected a TemporalType or label, got %r" % (ttype_or_label,)
        )

    # ------------------------------------------------------------------
    # Tables and conversions
    # ------------------------------------------------------------------
    def table(self, ttype_or_label) -> SizeTable:
        """The (cached) size table of a registered type.

        A type that lowers gets a compiled table built from its periodic
        normal form, fetched from the conversion cache when a warmed
        worker already holds it and cached there otherwise so the
        parallel engine can export it; any other type gets the sweep.
        """
        ttype = self.resolve(ttype_or_label)
        tab = self._tables.get(ttype.label)
        if tab is None:
            tab = build_size_table(
                ttype, horizon=self.horizon, form=self._normal_form(ttype)
            )
            self._tables[ttype.label] = tab
        return tab

    def _normal_form(
        self, ttype: TemporalType
    ) -> Optional[PeriodicNormalForm]:
        """A registered type's normal form, or None when it doesn't lower.

        Fetched from the conversion cache when a warmed worker already
        holds it, and cached there otherwise so the parallel engine can
        export it.
        """
        form = self._cache.get_normal_form(self._cache_namespace, ttype.label)
        if form is None:
            form = cached_normal_form(ttype)
            if form is not None:
                self._cache.put_normal_form(
                    self._cache_namespace, ttype.label, form
                )
        return form

    def conversion_feasible(self, source, target) -> bool:
        """Cached A.1 feasibility: does ``target`` cover ``source``?

        Decided exactly on the types' normal forms (see
        :func:`~repro.granularity.conversion.covered_by`), or refused
        as False when a side has no cover set.
        """
        src = self.resolve(source)
        tgt = self.resolve(target)
        if src.label == tgt.label:
            return True
        key = (src.label, tgt.label)
        result = self._covers.get(key)
        if result is None:
            result = covered_by(src, tgt, self._normal_form)
            self._covers[key] = result
        return result

    def convert(
        self, m: int, n: int, source, target, mode: Optional[str] = None
    ) -> ConversionOutcome:
        """Convert ``[m, n]_source`` into an implied ``[m', n']_target``.

        Returns an outcome with ``interval=None`` when the conversion is
        infeasible (target does not cover source) or yields no finite
        bound.  ``mode`` overrides the system-wide conversion strategy.
        """
        src = self.resolve(source)
        tgt = self.resolve(target)
        if src.label == tgt.label:
            return ConversionOutcome(interval=(m, n))
        mode = mode if mode is not None else self.conversion_mode
        if mode not in CONVERSION_MODES:
            raise ValueError("unknown conversion mode %r" % (mode,))
        key = (self._cache_namespace, m, n, src.label, tgt.label, mode)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not self.conversion_feasible(src, tgt):
            outcome = ConversionOutcome(interval=None)
        elif mode == "figure3":
            outcome = convert_interval(m, n, self.table(src), self.table(tgt))
        else:
            try:
                outcome = direct_convert_interval(
                    m, n, src, tgt, self.table(src)
                )
            except ValueError:
                # Horizon too small for a direct scan of this range:
                # fall back to the sound table-based method.
                outcome = convert_interval(
                    m, n, self.table(src), self.table(tgt)
                )
        self._cache.put(key, outcome)
        return outcome

    def size_table_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-label probe counters of the instantiated size tables."""
        return {
            label: table.probe_stats()
            for label, table in sorted(self._tables.items())
        }


def _form_shape(form: PeriodicNormalForm) -> tuple:
    """The instants a normal form denotes, without label or provenance."""
    return (
        form.period_ticks,
        form.period_seconds,
        form.firsts,
        form.lasts,
        form.prefix_firsts,
        form.prefix_lasts,
        form.exact_cover,
        form.cover_set,
    )


def _bounds_or_none(ttype: TemporalType, index: int):
    """A tick's bounds, or None past the end of a finite type."""
    try:
        return ttype.tick_bounds(index)
    except ValueError:
        return None


def standard_system(
    holidays: Iterable[int] = (),
    workdays: Tuple[int, ...] = (0, 1, 2, 3, 4),
    horizon: int = 512,
    conversion_mode: str = "direct",
    cache: Optional[ConversionCache] = None,
) -> GranularitySystem:
    """The paper's working granularity system.

    Contains ``second``, ``minute``, ``hour``, ``day``, ``week``,
    ``month``, ``year`` plus the business types ``b-day``, ``b-week``
    and ``business-month`` built over the given workday pattern and
    holiday list (day indices).
    """
    bday = BusinessDayType(workdays=workdays, holidays=holidays)
    system = GranularitySystem(
        [
            cal.second(),
            cal.minute(),
            cal.hour(),
            cal.day(),
            cal.week(),
            cal.month(),
            cal.year(),
            bday,
            BusinessWeekType(bday=bday),
            BusinessMonthType(bday=bday),
        ],
        horizon=horizon,
        conversion_mode=conversion_mode,
        cache=cache,
    )
    return system
