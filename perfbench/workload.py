"""Seeded open-loop operation streams for the TCP benchmark.

A stream is a list of :class:`Op` records with scheduled send times.  It is
built from the workload parameters and the seed alone; the server receives
only these generated requests.

The model:

* **Pairs.**  Coordination pairs start at a fixed rate.  The first member
  books at the start time; the partner books after a seeded delay drawn
  uniformly from ``partner_delay_s`` (an M/G/infinity population, so the
  number of waiting first members levels off once the longest delay has
  passed — the untimed warm-up covers that).
* **Flights.**  Each pair is pinned to one flight; flights get pairs in
  proportion to a Zipf law with exponent ``zipf_s`` (``0`` is uniform).
* **Reads.**  A fixed share of the op rate: a COLLAPSE read of the booking
  of the user who committed a seeded age ago (``read_age_s``).
* **Check-ins.**  A fixed share of the users (all of them when the check-in
  share equals the commit share) checks in once, a seeded delay
  (``checkin_age_s``) after booking; a check-in grounds the user's
  transaction.
* **Seats.**  Every flight gets enough rows for all of its bookings in the
  whole stream (warm-up, measured window, closed-loop reserve and the
  recovery probes), with one row per pair so every pair can sit together.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import asdict, dataclass
from typing import Iterator

COMMIT = "commit"
READ = "read"
CHECKIN = "checkin"

#: First flight number, matching ``FlightDatabaseSpec``'s default.
FIRST_FLIGHT = 100
#: Seats kept free for the commits sent after each restart.
PROBES = 3


@dataclass(frozen=True)
class WorkloadParams:
    """Parameters of one benchmark workload.

    Attributes:
        flights: number of flights.
        zipf_s: Zipf exponent of flight popularity (``0``: uniform).
        rate_ops_s: offered op rate of the open-loop phases.
        mix: shares of commits, reads and check-ins (sum to 1); the
            check-in share may not exceed the commit share.
        partner_delay_s: (low, high) of the uniform partner delay.
        read_age_s: (min, max) age of a read target's commit, in seconds of
            schedule.
        checkin_age_s: (min, max) delay from a booking to its check-in.
        warmup_s: untimed open-loop warm-up before the measured window, in
            seconds of schedule (the run sends it faster).
        latency_limit_ms: latency a closed-loop answer must meet to count
            towards ``peak_ops_s``.
        closed_loop_reserve_ops: ops generated beyond the open-loop phases
            for the closed loop to consume.
    """

    flights: int
    zipf_s: float
    rate_ops_s: float
    mix: tuple[float, float, float]
    partner_delay_s: tuple[float, float]
    read_age_s: tuple[float, float]
    checkin_age_s: tuple[float, float]
    warmup_s: float
    latency_limit_ms: float
    closed_loop_reserve_ops: int

    def describe(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, WorkloadParams] = {
    # Hundreds of flights, at most a waiting first member each: every
    # admission and every read scans every live partition while each search
    # is tiny.  Reads and check-ins target long-grounded users, so they route
    # but do not collapse anything.
    "book_wide": WorkloadParams(
        flights=300,
        zipf_s=0.0,
        rate_ops_s=30.0,
        mix=(0.6, 0.2, 0.2),
        partner_delay_s=(6.0, 12.0),
        read_age_s=(14.0, 40.0),
        checkin_age_s=(12.5, 14.0),
        warmup_s=14.0,
        latency_limit_ms=500.0,
        closed_loop_reserve_ops=1600,
    ),
    # A handful of Zipf-popular flights: the hot partition holds several
    # waiting transactions, and reads of recent users and a check-in by every
    # user a few seconds after booking force grounding searches over it.
    "collapse_deep": WorkloadParams(
        flights=4,
        zipf_s=1.0,
        rate_ops_s=12.0,
        mix=(0.4, 0.2, 0.4),
        partner_delay_s=(2.0, 8.0),
        read_age_s=(0.25, 8.0),
        checkin_age_s=(0.5, 6.0),
        warmup_s=8.0,
        latency_limit_ms=1000.0,
        closed_loop_reserve_ops=2000,
    ),
}


@dataclass
class Op:
    """One generated request.

    Attributes:
        kind: ``commit``, ``read`` or ``checkin``.
        at: scheduled send time, seconds from the stream start.
        user: the booking user (commit) or the target user (read, check-in).
        partner: the commit's coordination partner.
        flight: the user's flight.
        conn: connection index; every op of one user uses one connection,
            so a read is queued behind that user's commit.
        phase: ``warmup``, ``measure`` or ``reserve``.
    """

    kind: str
    at: float
    user: str
    partner: str
    flight: int
    conn: int
    phase: str


@dataclass
class Stream:
    params: WorkloadParams
    ops: list[Op]
    rows_per_flight: int
    probe_flight: int

    def phase(self, name: str) -> list[Op]:
        return [op for op in self.ops if op.phase == name]


def _zipf_weights(count: int, s: float) -> list[float]:
    return [1.0 / math.pow(rank + 1, s) for rank in range(count)]


def _weighted_round_robin(weights: list[float]) -> Iterator[int]:
    """Indices in proportion to ``weights``, evenly spread (smooth WRR)."""
    total = sum(weights)
    credit = [0.0] * len(weights)
    while True:
        for index, weight in enumerate(weights):
            credit[index] += weight
        best = max(range(len(weights)), key=credit.__getitem__)
        credit[best] -= total
        yield best


def _stratified(rng: random.Random, low: float, high: float, block: int = 16) -> Iterator[float]:
    """Uniform draws on [low, high]: each block of ``block`` draws covers
    every 1/block-wide stratum once, in a seeded order."""
    while True:
        strata = list(range(block))
        rng.shuffle(strata)
        for stratum in strata:
            yield low + (stratum + rng.random()) / block * (high - low)


def build_stream(
    params: WorkloadParams, seed: int, measure_s: float, connections: int
) -> Stream:
    """Generate the op stream for one run.

    Random draws are stratified, so two seeds give different inputs with
    the same load shape: the seed shuffles which flight is hot, the order
    of partner and check-in delays and which earlier user a read targets.
    """
    rng = random.Random(seed)
    flights = [FIRST_FLIGHT + i for i in range(params.flights)]
    rng.shuffle(flights)
    flight_order = _weighted_round_robin(_zipf_weights(params.flights, params.zipf_s))
    delays = _stratified(rng, *params.partner_delay_s)

    open_s = params.warmup_s + measure_s
    reserve_s = params.closed_loop_reserve_ops / params.rate_ops_s
    horizon = open_s + reserve_s
    commit_share, read_share, checkin_share = params.mix
    pair_rate = params.rate_ops_s * commit_share / 2.0

    # Commits: pair starts at a fixed rate plus delayed partners.
    commits: list[tuple[float, str, str, int]] = []
    for pair in range(int(horizon * pair_rate)):
        start = (pair + 0.5) / pair_rate
        flight = flights[next(flight_order)]
        first, second = f"u{2 * pair}", f"u{2 * pair + 1}"
        commits.append((start, first, second, flight))
        partner_at = start + next(delays)
        if partner_at < horizon:
            commits.append((partner_at, second, first, flight))
    commits.sort()

    flight_of = {user: flight for _, user, _, flight in commits}
    ops: list[Op] = []

    # Check-ins: a fixed share of the users (every user when the check-in
    # share equals the commit share) checks in once, a seeded age after
    # booking; every transaction is grounded by then at the latest.
    credit = 0.0
    checkin_delays = _stratified(rng, *params.checkin_age_s)
    for at, user, _, flight in commits:
        credit += checkin_share / commit_share
        if credit >= 1.0:
            credit -= 1.0
            checkin_at = at + next(checkin_delays)
            if checkin_at < horizon:
                ops.append(Op(CHECKIN, checkin_at, user, "", flight, 0, ""))

    # Reads at fixed spacing; each targets the user who committed closest
    # to a stratified age ago.
    read_rate = params.rate_ops_s * read_share
    read_ages = _stratified(rng, *params.read_age_s)
    commit_times = [c[0] for c in commits]
    for slot in range(int(horizon * read_rate)):
        at = (slot + 0.5) / read_rate
        newest = bisect.bisect_right(commit_times, at - params.read_age_s[0]) - 1
        if newest < 0:
            continue
        # Early in the stream there may be no commit as old as the drawn
        # age: fall back to the oldest commit there is.
        index = min(newest, max(0, bisect.bisect_right(commit_times, at - next(read_ages)) - 1))
        user = commits[index][1]
        ops.append(Op(READ, at, user, "", flight_of[user], 0, ""))
    for at, user, partner, flight in commits:
        ops.append(Op(COMMIT, at, user, partner, flight, 0, ""))
    ops.sort(key=lambda op: (op.at, op.kind != COMMIT))
    for op in ops:
        op.conn = int(op.user[1:]) % connections
        if op.at < params.warmup_s:
            op.phase = "warmup"
        elif op.at < open_s:
            op.phase = "measure"
        else:
            op.phase = "reserve"

    # Seat sizing: a row per pair and a seat per booking, plus the recovery
    # probes.
    bookings: dict[int, int] = {}
    for at, user, partner, flight in commits:
        bookings[flight] = bookings.get(flight, 0) + 1
    probe_flight = min(flights, key=lambda f: bookings.get(f, 0))
    bookings[probe_flight] = bookings.get(probe_flight, 0) + PROBES
    busiest = max(bookings.values())
    rows = max(2, busiest // 2 + 2)
    return Stream(params, ops, rows, probe_flight)
