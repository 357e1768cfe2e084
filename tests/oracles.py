"""Test-side fakes that steer production code onto its reference routes.

Every layer picks its route from its input alone, so the differential
suites reach the reference implementations by handing them inputs the
fast routes do not take:

* :func:`sweep_route` marks types as not lowering - the state a type
  that fails to compile is in - so their size tables sweep and their
  clocks call the types' own ``tick_of``;
* :class:`ObjectSequence` is an event sequence without a columnar
  view, so matchers over it take the per-event object path;
* :func:`reference_scan` is mining step 5 one candidate at a time on
  the object path, a drop-in for the banked frontier scan;
* :func:`brute_force_covered_by` decides A.1 coverage by probing the
  types' own ``tick_of`` over one full common cycle, the oracle of the
  exact decision on normal forms.
"""

from math import gcd

from repro.automata import TagMatcher, build_tag
from repro.constraints import ComplexEventType
from repro.granularity import ConversionCache, standard_system
from repro.granularity.normalform import _FORM_CACHE_ATTR
from repro.mining.events import EventSequence
from repro.parallel.engine import candidate_requirements


def sweep_route(ttype):
    """Make :func:`~repro.granularity.normalform.cached_normal_form`
    answer None for this type instance; returns the type."""
    setattr(ttype, _FORM_CACHE_ATTR, None)
    return ttype


def sweep_system(**kwargs):
    """A fresh standard system with every type on the sweep route."""
    system = standard_system(cache=ConversionCache(), **kwargs)
    for label in system.labels():
        sweep_route(system.get(label))
    return system


def share_coverage(system, twin):
    """Decide ``system``'s A.1 coverage on ``twin``, by label.

    Coverage is decided on normal forms, so a system whose types are
    on the sweep route would refuse it for every gapped target.  Suites
    comparing conversion arithmetic across routes pin that precondition
    to the lowering twin's exact decision (itself checked against
    :func:`brute_force_covered_by`); returns ``system``.
    """

    def feasible(source, target):
        return twin.conversion_feasible(
            system.resolve(source).label, system.resolve(target).label
        )

    system.conversion_feasible = feasible
    return system


def brute_force_covered_by(source, target, cycles, stride=1):
    """Does ``target`` cover every instant ``source`` covers?

    ``cycles`` holds one ``(periodic_start, period_seconds)`` pair per
    type describing its covered instants, known from how the type was
    built (never read off a normal form).  Past the later start both
    sets repeat every lcm of the periods, so probing every ``stride``-th
    instant of ``[0, later start + lcm)`` through the types' own
    ``tick_of`` decides containment; ``stride`` must divide every tick
    boundary of both types.
    """
    starts = [start for start, _ in cycles]
    lcm = 1
    for _, period in cycles:
        lcm = lcm * period // gcd(lcm, period)
    for second in range(0, max(starts) + lcm, stride):
        if source.tick_of(second) is None:
            continue
        if target.tick_of(second) is None:
            return False
    return True


class ObjectSequence(EventSequence):
    """An event sequence offering no columnar view."""

    columnar = None


def reference_scan(
    problem,
    outcome,
    reduced,
    system,
    candidates,
    windows,
    roots,
    total,
    horizon,
    strict,
    anchor_screen,
):
    """Mining step 5 per candidate through ``TagMatcher.match_from``.

    Same signature and outcome accounting as the banked scan in
    :mod:`repro.mining.discovery`: roots are screened with the
    posting-list anchor index, every survivor starts one object-path
    run, and frequencies are hits over all reference occurrences.
    """
    structure = problem.structure
    index = reduced.anchor_index()
    pairs = [(root, reduced[root].time) for root in roots]
    for assignment in candidates:
        cet = ComplexEventType(structure, assignment)
        matcher = TagMatcher(
            build_tag(cet, system=system),
            strict=strict,
            horizon_seconds=horizon,
        )
        requirements = (
            candidate_requirements(assignment, windows, structure.root)
            if anchor_screen and windows
            else ()
        )
        viable = (
            index.viable_anchors(pairs, requirements)
            if requirements
            else list(roots)
        )
        hits = sum(
            1 for root in viable if matcher.match_from(reduced, root).matched
        )
        outcome.candidates_evaluated += 1
        outcome.automaton_starts += len(viable)
        frequency = hits / total
        if frequency > problem.min_confidence:
            outcome.solutions.append(cet)
            outcome.frequencies[cet] = frequency
