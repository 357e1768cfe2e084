"""Constraint conversion between granularities (paper appendix A.1).

Implements the Figure 3 algorithm: given a constraint
``Y - X in [m, n]_mu1``, derive an *implied* constraint
``Y - X in [m', n']_mu2``:

* ``n' = min { s : minsize(mu2, s) >= maxsize(mu1, n + 1) - 1 }``
* ``m' = min { r : maxsize(mu2, r) > mingap(mu1, m) } - 1``

with the feasibility precondition that every instant covered by the
source type is covered by the target type (otherwise the derived
constraint's ``ceil`` operator could be undefined for events satisfying
the original constraint, and the conversion would not be implied).
:func:`covered_by` decides that precondition exactly on the types'
normal forms.

Soundness (proved in the module tests by exhaustive/property checks): if
timestamps ``t1 <= t2`` satisfy ``[m, n]_mu1`` and both are covered by
``mu2``, then they satisfy ``[m', n']_mu2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..obs import counter, span
from .base import TemporalType
from .normalform import (
    PeriodicNormalForm,
    cached_normal_form,
    clock_form,
    nf_max_period,
)
from .sizes import SizeTable


@dataclass(frozen=True)
class ConversionOutcome:
    """Result of converting one interval between granularities.

    ``interval`` is None when no finite implied constraint exists within
    the search cap (the conversion is then simply not added, which keeps
    the propagation sound).  ``empty`` is True when the implied interval
    is empty, i.e. the source constraint is unsatisfiable for instants
    covered by the target - an inconsistency witness.
    """

    interval: Optional[Tuple[int, int]]
    empty: bool = False


def convert_interval(
    m: int,
    n: int,
    source_table: SizeTable,
    target_table: SizeTable,
    cap: int = 1 << 24,
) -> ConversionOutcome:
    """Convert ``[m, n]`` from the source type to the target type.

    The caller is responsible for having checked feasibility (see
    :func:`covered_by`); this function is pure table arithmetic.
    """
    if m < 0 or n < m:
        raise ValueError("invalid interval [%r, %r]" % (m, n))
    max_span = source_table.maxsize(n + 1) - 1
    upper = target_table.min_k_with_minsize_at_least(max_span, cap=cap)
    if upper is None:
        return ConversionOutcome(interval=None)
    min_gap = source_table.mingap(m)
    lower_plus_one = target_table.min_k_with_maxsize_greater(min_gap, cap=cap)
    lower = 0 if lower_plus_one is None else max(lower_plus_one - 1, 0)
    if lower > upper:
        return ConversionOutcome(interval=None, empty=True)
    return ConversionOutcome(interval=(lower, upper))


def direct_convert_interval(
    m: int,
    n: int,
    source: TemporalType,
    target: TemporalType,
    source_table: SizeTable,
) -> ConversionOutcome:
    """Tight sound conversion by direct boundary scanning.

    Instead of going through the primitive type twice (Figure 3), this
    computes the implied target interval from the actual positions of
    source-tick boundaries inside the target type:

    * lower bound: 0 when ``m = 0``, else
      ``min_i  tick_tgt(first(src, i+m)) - tick_tgt(last(src, i))``
      (the closest two instants at source distance ``m`` can sit);
    * upper bound:
      ``max_i  tick_tgt(last(src, i+n)) - tick_tgt(first(src, i))``.

    The scan runs over the source table's horizon; for the (eventually)
    periodic calendar types this is exact, and it is what the follow-up
    literature on direct multi-granularity conversions computes.  The
    caller must have established feasibility (target covers source).
    Target ticks are read like TAG clocks (:func:`~repro.granularity.
    normalform.clock_tick_of`): by bisection over the target's form
    under ``exact_cover``, through its own ``tick_of`` otherwise.
    """
    if m < 0 or n < m:
        raise ValueError("invalid interval [%r, %r]" % (m, n))
    scanned = source_table.scanned_ticks()
    if scanned <= n + 1:
        # Not enough exact boundary data: fall back to the table method.
        raise ValueError(
            "horizon %d too small for direct conversion of [%d, %d]"
            % (scanned, m, n)
        )
    form = clock_form(target)
    tick_of = form.tick_of_instant if form is not None else target.tick_of
    count = scanned - n
    bounds = [source_table.bounds(i) for i in range(scanned)]
    # Target ticks of each source tick's first and last instant, over
    # exactly the source ticks the candidates read.
    first_at = set(range(count))
    last_at = set(range(n, scanned))
    if m:
        first_at.update(range(m, m + count))
        last_at.update(range(count))
    firsts = {i: tick_of(bounds[i][0]) for i in first_at}
    lasts = {i: tick_of(bounds[i][1]) for i in last_at}
    if None in firsts.values() or None in lasts.values():
        return ConversionOutcome(interval=None)
    upper = max(lasts[i + n] - firsts[i] for i in range(count))
    lower = 0
    if m:
        lower = max(0, min(firsts[i + m] - lasts[i] for i in range(count)))
    return ConversionOutcome(interval=(lower, upper))


def covered_by(
    source: TemporalType,
    target: TemporalType,
    normal_form: Callable[
        [TemporalType], Optional[PeriodicNormalForm]
    ] = cached_normal_form,
) -> bool:
    """Decide the A.1 feasibility condition: does ``target`` cover ``source``?

    The condition is that every instant of a ``source`` tick belongs to
    some ``target`` tick (Schwer's "covered-by" relation on granules).
    A ``total`` target covers everything.  Otherwise the answer is the
    containment of the two types' cover sets
    (:meth:`~repro.granularity.normalform.PeriodicNormalForm.cover`),
    decided exactly by :meth:`~repro.granularity.normalform.CoverSet.
    contains` over one common cycle.  When either side has no cover
    set, or the sweep would exceed the ``REPRO_NF_MAX_PERIOD`` budget,
    the decision is refused (reason ``no-cover-set`` or
    ``over-budget``): False, which merely drops a conversion - always
    sound.

    ``normal_form`` maps a type to its compiled form (a system passes
    its own cache-aware lookup).  Each decision runs under a
    ``granularity.covers`` span and counts into
    ``repro_covers_decisions_total{method,result}``; refusals also
    count into ``repro_covers_refusals_total{reason}``.
    """
    with span(
        "granularity.covers", source=source.label, target=target.label
    ) as covers_span:
        reason = ""
        if target.total:
            method, result = "total", True
        else:
            target_form = normal_form(target)
            source_form = normal_form(source)
            target_cover = target_form.cover() if target_form else None
            source_cover = source_form.cover() if source_form else None
            if target_cover is None or source_cover is None:
                answer, reason = None, "no-cover-set"
            else:
                answer = target_cover.contains(source_cover, nf_max_period())
                reason = "over-budget" if answer is None else ""
            method = "refused" if answer is None else "form"
            result = bool(answer)
        covers_span.set(method=method, result=result)
        counter(
            "repro_covers_decisions_total",
            "A.1 coverage decisions, by method (total/form/refused) and "
            "result",
            labels={"method": method, "result": str(result).lower()},
        ).inc()
        if reason:
            covers_span.set(reason=reason)
            counter(
                "repro_covers_refusals_total",
                "A.1 coverage decisions refused, by reason",
                labels={"reason": reason},
            ).inc()
        return result
