"""Seeded input generators for the four workloads.

Nothing here imports ``repro``: inputs are plain ``(type, time)`` lists
made with :class:`random.Random` from the workload seed, so generating
them is never part of the measured set-up time.  The same seed always
gives the same inputs.

Times are integer seconds on the library's timeline, whose day 0 is a
Monday (weekday = day % 7, business days are weekdays 0-4).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

DAY = 86_400
HOUR = 3_600
MINUTE = 60

Event = Tuple[str, int]

# -- mine-calendar -------------------------------------------------------
#: Planted roots per calendar log; noise fills each log up to LOG_EVENTS.
CALENDAR_ROOTS = 12
LOG_EVENTS = 100
#: Distinct logs per calendar pattern; jobs cycle through them.
LOGS_PER_PATTERN = 3

EXAMPLE1_NOISE = ("HP-fall", "DEC-rise", "DEC-fall", "SUN-rise")
MONTH_NOISE = ("AUDIT", "CALL", "MAIL", "VISIT")

# -- mine-store ----------------------------------------------------------
STORE_EVENTS = 100_000
STORE_ROOTS = 500
STORE_MIDS = tuple("MID%d" % i for i in range(8))
STORE_TAILS = tuple("TAIL%d" % i for i in range(8))
#: Scattered (unplanted) events per mid and tail type.
STORE_SCATTERED = 64
STORE_DECOYS = ("DECOY-A", "DECOY-B")
STORE_NOISE = tuple("BG%d" % i for i in range(5))
#: Candidate frontiers (|X1 pool| x |X2 pool|) the store jobs cycle
#: through: 8 to 64 candidates, the same shapes for every seed.
STORE_FRONTIERS = ((2, 4), (8, 8), (4, 6), (6, 6), (4, 4), (8, 5))

# -- stream-long ---------------------------------------------------------
STREAM_EVENTS = 16_000
STREAM_NOISE_PER_CHAIN = 5
#: One chain in this many has no ``b``/``c``, so its anchor never
#: completes.
STREAM_BROKEN_EVERY = 100
STREAM_NOISE = ("n1", "n2", "n3", "n4")

# -- serve-churn ---------------------------------------------------------
CHURN_TENANTS = 1_000
CHURN_WAVES = 4


def _weekday_day(rng: random.Random, lo: int, hi: int, last: int = 4) -> int:
    """A random day in [lo, hi) whose weekday is at most ``last``."""
    day = rng.randrange(lo, hi)
    while day % 7 > last:
        day += 1
    return day


def _fill_noise(
    rng: random.Random, events: List[Event], types, span: int, size: int
) -> List[Event]:
    while len(events) < size:
        t = rng.randrange(0, span)
        events.append((rng.choice(types), t - t % MINUTE))
    return sorted(events, key=lambda event: event[1])


def example1_log(rng: random.Random) -> List[Event]:
    """Example 1 of the paper: IBM rise, earnings report the next
    business day, HP rise, then IBM fall within 8 hours of it.

    Roots fall on Monday-Thursday, so the report's next business day is
    the next calendar day and the fall stays inside the report's week.
    One planted root in six lacks its report.
    """
    events: List[Event] = []
    for index in range(CALENDAR_ROOTS):
        day = _weekday_day(rng, 0, 700, last=3)
        root = day * DAY + rng.randrange(9, 12) * HOUR
        events.append(("IBM-rise", root))
        next_day = (day + 1) * DAY
        if index % 6 != 5:
            events.append(
                ("IBM-earnings-report", next_day + rng.randrange(8, 11) * HOUR)
            )
        hp = next_day + rng.randrange(11, 14) * HOUR
        events.append(("HP-rise", hp))
        events.append(("IBM-fall", hp + rng.randrange(1, 8) * HOUR))
    return _fill_noise(rng, events, EXAMPLE1_NOISE, 710 * DAY, LOG_EVENTS)


def month_log(rng: random.Random) -> List[Event]:
    """The X18 shape: month, quarter and business-month constraints.

    OPEN, UPGRADE 1-6 months later, REVIEW within 2 quarters of the
    upgrade and 1-9 business months after OPEN, CLOSE 2-11 months after
    the review.  OPEN and REVIEW fall on business days.
    """
    events: List[Event] = []
    for index in range(CALENDAR_ROOTS):
        day = _weekday_day(rng, 0, 2_000)
        events.append(("OPEN", day * DAY + rng.randrange(9, 17) * HOUR))
        if index % 6 == 5:
            continue
        events.append(
            ("UPGRADE", (day + rng.randrange(70, 80)) * DAY + 10 * HOUR)
        )
        review = _weekday_day(rng, day + 110, day + 120)
        events.append(("REVIEW", review * DAY + 11 * HOUR))
        events.append(
            ("CLOSE", (review + rng.randrange(120, 180)) * DAY + 12 * HOUR)
        )
    return _fill_noise(rng, events, MONTH_NOISE, 2_300 * DAY, LOG_EVENTS)


def calendar_inputs(seed: int) -> Dict[str, object]:
    """Logs for mine-calendar: ``LOGS_PER_PATTERN`` per pattern."""
    rng = random.Random(seed)
    return {
        "example1": [example1_log(rng) for _ in range(LOGS_PER_PATTERN)],
        "month": [month_log(rng) for _ in range(LOGS_PER_PATTERN)],
    }


def store_inputs(seed: int) -> Dict[str, object]:
    """A 10^5-event store in the X11/X17 shape plus the job frontiers.

    Roots every ~2 hours; two planted (mid, tail) pairs each follow
    60% of the roots (mid within 2 hours, tail within 10 minutes of the
    mid); every mid and tail type is also scattered at random, rare
    decoys too, and background noise fills the store.  Each frontier
    holds both planted pairs plus random other types.
    """
    rng = random.Random(seed)
    span = STORE_ROOTS * 2 * HOUR
    planted = [
        (rng.choice(STORE_MIDS[:4]), rng.choice(STORE_TAILS[:4])),
        (rng.choice(STORE_MIDS[4:]), rng.choice(STORE_TAILS[4:])),
    ]
    roots = [index * 2 * HOUR + rng.randrange(0, 30) * MINUTE
             for index in range(STORE_ROOTS)]
    events: List[Event] = [("ROOT", root) for root in roots]
    for mid_type, tail_type in planted:
        for root in rng.sample(roots, STORE_ROOTS * 3 // 5):
            mid = root + rng.randrange(0, 2 * HOUR)
            events.append((mid_type, mid))
            events.append((tail_type, mid + rng.randrange(0, 10 * MINUTE)))
    # Every type gets the same number of scattered events, so a job's
    # work depends on the frontier's shape, not on which types it holds.
    for etype in STORE_MIDS + STORE_TAILS:
        events.extend(
            (etype, rng.randrange(0, span)) for _ in range(STORE_SCATTERED)
        )
    for etype in STORE_DECOYS:
        events.extend(
            (etype, rng.randrange(0, span)) for _ in range(STORE_ROOTS // 10)
        )
    events = _fill_noise(rng, events, STORE_NOISE, span, STORE_EVENTS)
    frontiers = []
    for n_mids, n_tails in STORE_FRONTIERS:
        mids = {mid for mid, _ in planted}
        tails = {tail for _, tail in planted}
        while len(mids) < n_mids:
            mids.add(rng.choice(STORE_MIDS))
        while len(tails) < n_tails:
            tails.add(rng.choice(STORE_TAILS))
        frontiers.append((sorted(mids), sorted(tails)))
    return {"events": events, "frontiers": frontiers}


def stream_inputs(seed: int) -> Dict[str, object]:
    """One time-ordered stream of ``a -> b -> c`` chains plus noise.

    A chain starts every 4 hours: ``b`` within 2 hours of ``a``, ``c``
    within 2 hours of ``b``.  The middle chain of every
    ``STREAM_BROKEN_EVERY`` has no ``b`` or ``c``, so its anchor stays
    live; how many are live at each point of the stream is the same
    for every seed, which draws the offsets and the noise.
    """
    rng = random.Random(seed)
    events: List[Event] = []
    chain = 0
    per_chain = 3 + STREAM_NOISE_PER_CHAIN
    while len(events) < STREAM_EVENTS + 2 * per_chain:
        start = chain * 4 * HOUR
        events.append(("a", start))
        if chain % STREAM_BROKEN_EVERY != STREAM_BROKEN_EVERY // 2:
            b = start + rng.randrange(0, 2 * HOUR)
            events.append(("b", b))
            events.append(("c", b + rng.randrange(0, 2 * HOUR)))
        for _ in range(STREAM_NOISE_PER_CHAIN):
            events.append(
                (rng.choice(STREAM_NOISE), start + rng.randrange(0, 4 * HOUR))
            )
        chain += 1
    events.sort(key=lambda event: event[1])
    return {"events": events[:STREAM_EVENTS]}


def churn_inputs(seed: int) -> Dict[str, object]:
    """``CHURN_TENANTS`` tenants, one 3-event chain each (the X15 shape).

    Tenants come in ``CHURN_WAVES`` waves; within a wave events go
    round-robin over its tenants (every ``a``, then every ``b``, then
    every ``c``), so with 32 resident sessions nearly every event lands
    on an evicted session.  The waves spread the detections over the
    whole pass instead of its last third.  The seed draws each
    tenant's chain offsets and the round-robin order.
    """
    rng = random.Random(seed)
    tenants = ["tenant-%04d" % index for index in range(CHURN_TENANTS)]
    rng.shuffle(tenants)
    chains = {}
    for tenant in tenants:
        a = rng.randrange(0, DAY)
        b = a + rng.randrange(0, 2 * HOUR)
        chains[tenant] = (("a", a), ("b", b), ("c", b + rng.randrange(0, 2 * HOUR)))
    size = CHURN_TENANTS // CHURN_WAVES
    records = [
        (tenant, "k", etype, t)
        for wave in range(CHURN_WAVES)
        for step in range(3)
        for tenant in tenants[wave * size:(wave + 1) * size]
        for etype, t in (chains[tenant][step],)
    ]
    return {"records": records}
