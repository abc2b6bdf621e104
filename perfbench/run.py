"""The repository benchmark: open-loop TCP booking workloads with kill -9 recovery.

One run of one workload:

1. launches the server (``perfbench/server.py``) five times on fresh
   segment directories and keeps the last; ``setup_s`` is the median time
   from launch to the first answered ping;
2. drives it over loopback TCP from this process, over at most ``nproc``
   (and at most two) connections (``repro.server.client.NetClient``) with a
   fixed window of outstanding requests each: an untimed open-loop warm-up,
   then the measured open-loop window of ``--seconds`` seconds, then a
   closed-loop phase for ``peak_ops_s``;
3. waits for every answer, SIGKILLs the server, restarts it on the same
   directory and times the first acknowledged commit (``recovery_s``);
4. grounds everything, reads the final tables back and checks them against
   the acknowledgements (see :func:`check`).

Latencies are timed from each request's scheduled send time.  With
``--trace 1`` the measured window is split: the first half runs untraced,
then the server patches span recorders onto its layers (``spans.py``) and
the second half and the closed loop run traced; the run reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 ran and checked clean, 1 a
correctness check failed, 2 the program to measure is missing or the
arguments are wrong, 3 the run is invalid because the generator fell
behind its schedule (send lag p99 above ``GEN_LAG_LIMIT_MS``).

Run from the repository root::

    python3 perfbench/run.py --workload book_wide --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans as span_analysis  # noqa: E402
from workload import CHECKIN, COMMIT, PROBES, READ, WORKLOADS, Op, Stream, build_stream  # noqa: E402

try:
    from repro.server.client import NetClient
except ImportError:  # no program to measure; main() says so
    NetClient = None

SETUPS = 5
#: Outstanding requests allowed per connection.
WINDOW = 4
#: Length of the closed-loop phase for ``peak_ops_s``.
CLOSED_LOOP_S = 4.0
#: A run whose generator woke this late (p99) for its scheduled sends is
#: invalid.  It sits above the 16 ms seen while other tenants took the CPU,
#: when the server slowed as much as the generator did (see NOTES.md).
GEN_LAG_LIMIT_MS = 20.0
#: How much faster than scheduled the untimed warm-up is sent.
WARMUP_SPEEDUP = 2.0
#: Longest wait for a server line, an answer or a process exit.
TIMEOUT_S = 60.0
PROBE_USER = "probe"
HOST = "127.0.0.1"


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """One ``server.py`` child process."""

    def __init__(self, workdir: Path, segments: Path, stream: Stream, *, recover=False, trace=None):
        self.workdir = workdir
        self.args = [
            sys.executable,
            str(HERE / "server.py"),
            "--dir", str(segments),
            "--flights", str(stream.params.flights),
            "--rows", str(stream.rows_per_flight),
        ]
        if recover:
            self.args.append("--recover")
        if trace:
            self.args += ["--trace", str(trace)]
        self.proc: asyncio.subprocess.Process | None = None
        self.info: dict = {}

    async def start(self) -> dict:
        log = open(self.workdir / "server.log", "ab")
        try:
            self.proc = await asyncio.create_subprocess_exec(
                *self.args, stdout=asyncio.subprocess.PIPE, stderr=log, cwd=str(ROOT)
            )
        finally:
            log.close()
        line = await asyncio.wait_for(self.proc.stdout.readline(), TIMEOUT_S)
        if not line:
            await self.proc.wait()
            raise RuntimeError(f"server exited with {self.proc.returncode} before listening")
        self.info = json.loads(line)
        return self.info

    @property
    def pid(self) -> int:
        return self.proc.pid

    def signal(self, signum: int) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signum)

    async def kill(self) -> None:
        """SIGKILL the process and wait until it has ended (idempotent)."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.signal(signal.SIGKILL)
        await asyncio.wait_for(self.proc.wait(), TIMEOUT_S)


def proc_sample(pid: int) -> dict:
    """CPU seconds, bytes written and peak RSS of a live process, and the
    machine's CPU ticks: all of them and those the hypervisor gave to other
    guests while this one wanted to run (steal)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    with open("/proc/stat") as handle:
        host = [int(value) for value in handle.readline().split()[1:]]
    ticks = os.sysconf("SC_CLK_TCK")
    sample = {
        "cpu_s": (int(fields[11]) + int(fields[12])) / ticks,
        "write_bytes": 0,
        "rss_peak_mb": 0.0,
        "host_ticks": sum(host[:8]),
        "steal_ticks": host[7] if len(host) > 7 else 0,
    }
    try:
        with open(f"/proc/{pid}/io") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key == "write_bytes":
                    sample["write_bytes"] = int(value)
    except OSError:
        pass
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                sample["rss_peak_mb"] = int(line.split()[1]) / 1024.0
    return sample


# ---------------------------------------------------------------------------
# Client side: one NetClient per connection, a fixed window each
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What happened to one request."""

    op: Op
    scheduled: float = 0.0
    answered: float = 0.0
    lag: float = 0.0
    status: str = "unsent"  # ok | rejected | error | timeout | skipped
    value: object = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.answered - self.scheduled) * 1e3


def commit_text(user: str, partner: str, flight: int) -> str:
    """The paper's entangled booking: one seat, preferably next to the partner."""
    return (
        f"-Available({flight}, ?s), +Bookings('{user}', {flight}, ?s) :-1 "
        f"Available({flight}, ?s), [Bookings('{partner}', {flight}, ?s2)], "
        f"[Adjacent({flight}, ?s, ?s2)]"
    )


class LoadGenerator:
    """Sends the stream's ops over the clients and records outcomes."""

    def __init__(self, clients: list) -> None:
        self.clients = clients
        self.windows = [asyncio.Semaphore(WINDOW) for _ in clients]
        self.queues = [asyncio.Queue() for _ in clients]
        self.outcomes: list[Outcome] = []
        #: user -> the commit's ``RemoteCommitResult`` once admitted, else None.
        self.commits: dict[str, asyncio.Future] = {}
        self.inflight: set[asyncio.Task] = set()
        self.closed_loop = False
        self.busy = [False] * len(clients)
        self.senders = [
            asyncio.get_running_loop().create_task(self._sender(i)) for i in range(len(clients))
        ]

    def submit(self, op: Op, scheduled: float, lag: float = 0.0) -> None:
        outcome = Outcome(op, scheduled=scheduled, lag=lag)
        self.outcomes.append(outcome)
        if op.kind == COMMIT:
            self.commits[op.user] = asyncio.get_running_loop().create_future()
        self.queues[op.conn].put_nowait(outcome)

    async def _sender(self, index: int) -> None:
        client, window, queue = self.clients[index], self.windows[index], self.queues[index]
        while True:
            self.busy[index] = False
            outcome = await queue.get()
            self.busy[index] = True
            await window.acquire()
            op = outcome.op
            if op.kind == COMMIT:
                call = client.commit(commit_text(op.user, op.partner, op.flight), client=op.user, partner=op.partner)
            elif op.kind == READ:
                call = client.read("Bookings", [op.user, None, None])
            else:
                commit = await self.commits[op.user]
                if commit is None:
                    outcome.status, outcome.error = "skipped", "target commit not admitted"
                    window.release()
                    continue
                call = client.check_in(commit.transaction_id)
            if self.closed_loop:
                outcome.scheduled = now()
            task = asyncio.get_running_loop().create_task(self._await(window, outcome, call))
            self.inflight.add(task)
            task.add_done_callback(self.inflight.discard)

    async def _await(self, window: asyncio.Semaphore, outcome: Outcome, call) -> None:
        op = outcome.op
        try:
            outcome.value = await asyncio.wait_for(call, TIMEOUT_S)
            outcome.answered = now()
        except asyncio.TimeoutError:
            outcome.status, outcome.error = "timeout", "no answer"
        except Exception as exc:  # an error frame or a lost connection
            outcome.status, outcome.error = "error", f"{type(exc).__name__}: {exc}"
        else:
            rejected = op.kind == COMMIT and not outcome.value.committed
            outcome.status = "rejected" if rejected else "ok"
        finally:
            window.release()
            if op.kind == COMMIT and not self.commits[op.user].done():
                self.commits[op.user].set_result(outcome.value if outcome.status == "ok" else None)

    async def open_loop(self, ops: list[Op], due_at, marks: dict | None = None) -> None:
        """Submit each op at ``due_at(op)``; ``marks`` maps a time to a callback."""
        pending_marks = sorted((marks or {}).items())
        for op in ops:
            due = due_at(op)
            while pending_marks and pending_marks[0][0] <= due:
                mark_at, callback = pending_marks.pop(0)
                await self._sleep_until(mark_at)
                await callback()
            await self._sleep_until(due)
            self.submit(op, due, lag=max(0.0, now() - due))
        for mark_at, callback in pending_marks:
            await self._sleep_until(mark_at)
            await callback()

    @staticmethod
    async def _sleep_until(when: float) -> None:
        delay = when - now()
        if delay > 0:
            await asyncio.sleep(delay)

    async def closed(self, ops: list[Op], seconds: float) -> tuple[float, float]:
        """Keep every window full from ``ops`` for ``seconds``; return the phase bounds."""
        self.closed_loop = True
        start = now()
        for op in ops:
            self.submit(op, start)
        await asyncio.sleep(seconds)
        end = now()
        unsent: set[int] = set()
        for queue in self.queues:  # stop feeding; what was not sent never happened
            while not queue.empty():
                outcome = queue.get_nowait()
                unsent.add(id(outcome))
                if outcome.op.kind == COMMIT:
                    self.commits.pop(outcome.op.user).cancel()
        self.outcomes = [o for o in self.outcomes if id(o) not in unsent]
        return start, end

    async def quiesce(self) -> None:
        """Wait until every submitted request is answered or has timed out."""
        while self.inflight or any(self.busy) or any(not q.empty() for q in self.queues):
            if self.inflight:
                await asyncio.gather(*list(self.inflight), return_exceptions=True)
            else:
                await asyncio.sleep(0.01)
        for sender in self.senders:
            sender.cancel()
        await asyncio.gather(*self.senders, return_exceptions=True)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check(outcomes: list[Outcome], probes: dict[str, int], bookings: list[dict], available: list[dict]) -> list[str]:
    """Compare the recovered, fully grounded tables with the acknowledgements.

    * every commit acknowledged as admitted (the stream's and the recovery
      probes') holds exactly one seat, on its own flight;
    * no user whose commit was not acknowledged as admitted holds a seat;
    * no seat is both ``Available`` and booked;
    * every COLLAPSE read of an admitted user returned exactly one row, on
      the user's flight, and every check-in of one returned its grounding.
    """
    violations: list[str] = []
    admitted: dict[str, int] = dict(probes)
    not_admitted: set[str] = set()
    for outcome in outcomes:
        op = outcome.op
        if op.kind != COMMIT:
            continue
        if outcome.status == "ok":
            admitted[op.user] = op.flight
        else:
            not_admitted.add(op.user)
    seats_of: dict[str, list[tuple[int, str]]] = {}
    for row in bookings:
        seats_of.setdefault(row["_0"], []).append((row["_1"], row["_2"]))
    for user, flight in admitted.items():
        seats = seats_of.get(user, [])
        if len(seats) != 1 or seats[0][0] != flight:
            violations.append(f"admitted {user} (flight {flight}) holds {seats}")
    for user in sorted(not_admitted):
        if user in seats_of:
            violations.append(f"{user} was not acknowledged as admitted but holds {seats_of[user]}")
    for user in seats_of.keys() - admitted.keys() - not_admitted:
        violations.append(f"{user} never committed but holds {seats_of[user]}")
    booked = {(row["_1"], row["_2"]) for row in bookings}
    if len(booked) != len(bookings):
        violations.append("a seat is booked twice")
    for row in available:
        if (row["_0"], row["_1"]) in booked:
            violations.append(f"seat {row['_0']}/{row['_1']} is both Available and booked")
    for outcome in outcomes:
        op = outcome.op
        if outcome.status != "ok" or op.user not in admitted:
            continue
        if op.kind == READ:
            rows = outcome.value
            if len(rows) != 1 or rows[0].get("_1") != op.flight:
                violations.append(f"read of admitted {op.user} returned {rows}")
        elif op.kind == CHECKIN and not (outcome.value and outcome.value.get("valuation")):
            violations.append(f"check-in of admitted {op.user} returned {outcome.value}")
    return violations


def coordination_pct(outcomes: list[Outcome], bookings: list[dict]) -> float:
    """Share of booked users whose booked partner sits next to them, in %."""
    seat = {row["_0"]: (row["_1"], row["_2"]) for row in bookings}
    partner = {o.op.user: o.op.partner for o in outcomes if o.op.kind == COMMIT}
    pairs = adjacent = 0
    for user, other in partner.items():
        if user not in seat or other not in seat:
            continue
        pairs += 1
        (f1, s1), (f2, s2) = seat[user], seat[other]
        if f1 == f2 and s1[:-1] == s2[:-1] and abs(ord(s1[-1]) - ord(s2[-1])) == 1:
            adjacent += 1
    return 100.0 * adjacent / pairs if pairs else 0.0


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    trace: bool
    stream: Stream
    workdir: Path


async def measure_setup(run: Run, index: int, servers: list) -> tuple[ServerProcess, float]:
    segments = run.workdir / f"segments{index}"
    trace_path = run.workdir / "spans.json" if run.trace else None
    server = ServerProcess(run.workdir, segments, run.stream, trace=trace_path)
    servers.append(server)
    started = now()
    info = await server.start()
    client = await NetClient.connect(HOST, info["port"])
    await client.ping()
    elapsed = now() - started
    await client.close()
    return server, elapsed


async def execute(run: Run) -> dict:
    """Run every phase; every server process started is killed and reaped."""
    servers: list[ServerProcess] = []
    try:
        return await _execute(run, servers)
    finally:
        for server in servers:
            await server.kill()


async def _execute(run: Run, servers: list[ServerProcess]) -> dict:
    params, stream = run.stream.params, run.stream
    setups: list[float] = []
    server = None
    for index in range(SETUPS):
        if server is not None:
            await server.kill()
        server, elapsed = await measure_setup(run, index, servers)
        setups.append(elapsed)
    segments = run.workdir / f"segments{SETUPS - 1}"

    clients = [
        await NetClient.connect(HOST, server.info["port"], client=f"perfbench{index}")
        for index in range(connection_count())
    ]
    generator = LoadGenerator(clients)
    stats: dict[str, dict] = {}
    procs: dict[str, dict] = {}
    times: dict[str, float] = {}

    stat_calls: list[asyncio.Task] = []

    async def snapshot(label: str) -> None:
        # Never await the server here: the open loop must keep its schedule.
        times[label] = now()
        procs[label] = proc_sample(server.pid)
        if run.trace:
            stat_calls.append(asyncio.get_running_loop().create_task(fetch_stats(label)))

    async def fetch_stats(label: str) -> None:
        stats[label] = await clients[0].stats()

    # The warm-up replays its part of the stream WARMUP_SPEEDUP times faster:
    # the population of waiting bookings depends on stream time only.
    origin = now() + 0.05
    measure_at = origin + params.warmup_s / WARMUP_SPEEDUP

    def due_at(op: Op) -> float:
        if op.at < params.warmup_s:
            return origin + op.at / WARMUP_SPEEDUP
        return measure_at + op.at - params.warmup_s

    async def enable_trace() -> None:
        await snapshot("traced")
        server.signal(signal.SIGUSR2)

    marks = {measure_at: lambda: snapshot("measure")}
    if run.trace:
        marks[measure_at + run.seconds / 2] = enable_trace
    marks[measure_at + run.seconds] = lambda: snapshot("open_end")
    await generator.open_loop(stream.phase("warmup") + stream.phase("measure"), due_at, marks)
    closed_start, closed_end = await generator.closed(stream.phase("reserve"), CLOSED_LOOP_S)
    await generator.quiesce()
    await snapshot("end")
    await asyncio.gather(*stat_calls)

    spans = None
    if run.trace:
        server.signal(signal.SIGUSR1)
        path = run.workdir / "spans.json"
        deadline = now() + TIMEOUT_S
        while not path.exists() and now() < deadline:
            await asyncio.sleep(0.05)
        spans = json.loads(path.read_text())

    # Crash: SIGKILL with every request answered.  The crashed directory is
    # copied so the same crash is recovered PROBES times, each copy by one
    # restart; recovery_s is the median of the three.  The last restart runs
    # on the original directory and is the one the checks read back.
    for client in clients:
        await client.close()
    killed = now()
    await server.kill()
    kill_s = now() - killed
    copies = [segments.with_name(f"{segments.name}.copy{i}") for i in range(PROBES - 1)]
    for copy in copies:
        shutil.copytree(segments, copy)
    recoveries: list[float] = []
    infos: list[dict] = []
    probes = {f"{PROBE_USER}{i}": stream.probe_flight for i in range(PROBES)}
    for directory, user in zip(copies + [segments], probes):
        server = ServerProcess(run.workdir, directory, stream, recover=True)
        servers.append(server)
        launched = now()
        infos.append(await server.start())
        client = await NetClient.connect(HOST, server.info["port"], client=user)
        probe = await client.commit(commit_text(user, "nobody", probes[user]), client=user)
        recoveries.append(kill_s + now() - launched)
        if not probe.committed:
            raise RuntimeError(f"the recovery probe commit was refused: {probe}")
        if directory is not segments:
            await client.close()
            await server.kill()
    await client.ground_all()
    bookings = await client.read("Bookings", [None, None, None])
    available = await client.read("Available", [None, None])
    await client.close()
    await server.kill()

    outcomes = generator.outcomes
    # Only the last probe committed to the directory that was read back.
    violations = check(outcomes, {user: probes[user] for user in list(probes)[-1:]}, bookings, available)
    return {
        "setups": setups,
        "outcomes": outcomes,
        "violations": violations,
        "coordination_pct": coordination_pct(outcomes, bookings),
        "lag_p99_ms": percentile([o.lag * 1e3 for o in outcomes if o.op.phase == "measure"], 0.99),
        "steal_pct": steal_pct(procs["measure"], procs["open_end"]),
        "recoveries": recoveries,
        "recovery_s": statistics.median(recoveries),
        "infos": infos,
        "recovery": {key: statistics.median(info[key] for info in infos) for key in infos[0] if key != "port"},
        "times": times,
        "closed": (closed_start, closed_end),
        "procs": procs,
        "stats": stats,
        "spans": spans,
    }


def steal_pct(before: dict, after: dict) -> float:
    """Share of the machine's CPU time stolen by the hypervisor, in %."""
    total = after["host_ticks"] - before["host_ticks"]
    return 100.0 * (after["steal_ticks"] - before["steal_ticks"]) / total if total else 0.0


def connection_count() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latencies(outcomes: list[Outcome], kind: str, start: float, end: float) -> list[float]:
    return [
        o.latency_ms
        for o in outcomes
        if o.op.kind == kind and o.status == "ok" and start <= o.scheduled < end
    ]


def end_to_end(run: Run, data: dict) -> dict[str, tuple[float, str]]:
    """Untraced metrics: set-up time, commit and read medians over the
    measured window, coordination and peak memory."""
    outcomes, times = data["outcomes"], data["times"]
    window = (times["measure"], times["open_end"])
    return {
        "setup_s": (statistics.median(data["setups"]), "s"),
        "commit_p50_ms": (percentile(latencies(outcomes, COMMIT, *window), 0.5), "ms"),
        "read_p50_ms": (percentile(latencies(outcomes, READ, *window), 0.5), "ms"),
        "coordination_pct": (data["coordination_pct"], "%"),
        "rss_peak_mb": (data["procs"]["end"]["rss_peak_mb"], "MB"),
    }


def printed_only(run: Run, data: dict) -> dict[str, tuple[float, str]]:
    """Measured and printed but left out of the result line: their spread
    across runs on a shared 2-vCPU machine exceeds any allowed bound (see
    NOTES.md)."""
    outcomes = data["outcomes"]
    closed_start, closed_end = data["closed"]
    within = sum(
        1
        for o in outcomes
        if o.status == "ok" and closed_start <= o.scheduled and o.answered <= closed_end
        and o.latency_ms <= run.stream.params.latency_limit_ms
    )
    window = (data["times"]["measure"], data["times"]["open_end"])
    return {
        "checkin_p50_ms": (percentile(latencies(outcomes, CHECKIN, *window), 0.5), "ms"),
        "peak_ops_s": (within / (closed_end - closed_start), "1/s"),
        "recovery_s": (data["recovery_s"], "s"),
    }


def per_layer(run: Run, data: dict) -> dict[str, tuple[float, str]]:
    outcomes, times, stats, procs = data["outcomes"], data["times"], data["stats"], data["procs"]
    traced = (times["traced"], times["end"])
    untraced = (times["measure"], times["traced"])
    window_ns = (int(traced[0] * 1e9), int(traced[1] * 1e9))
    summary = span_analysis.summarize(data["spans"]["spans"], window_ns)
    samples = [sizes for at, sizes in data["spans"]["samples"] if window_ns[0] <= at <= window_ns[1]]
    before, after = stats["traced"], stats["end"]

    def delta(key: str) -> float:
        return float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    ops = sum(1 for o in outcomes if o.status in ("ok", "rejected") and traced[0] <= o.answered <= traced[1])
    admits = delta("state.admitted") + delta("state.rejected")
    commits = delta("server.commits")
    total, own = summary["total_ms"], summary["self_ms"]
    count = summary["count"]
    waits = summary["queue_wait_ms"]
    wall_ms = (traced[1] - traced[0]) * 1e3
    frames = summary["frames_decoded"]
    checkpoints = [s for s in data["spans"]["spans"] if s[span_analysis.NAME] == "Database.checkpoint"]
    pauses = [
        (s[span_analysis.END] - s[span_analysis.START]) / 1e6
        for s in checkpoints
        if window_ns[0] <= s[span_analysis.START] <= window_ns[1]
    ]
    runs = [
        s[span_analysis.COUNT]
        for s in data["spans"]["spans"]
        if s[span_analysis.NAME] == "QuantumDatabase.commit_batch" and span_analysis.in_window(s, window_ns)
    ]
    p50 = {
        label: percentile(latencies(outcomes, COMMIT, *window), 0.5)
        for label, window in (("untraced", untraced), ("traced", (times["traced"], times["open_end"])))
    }
    metrics: dict[str, tuple[float, str]] = {
        "net.decode_us_per_frame": (ratio(total.get("FrameDecoder.feed", 0) * 1e3, frames), "us"),
        "net.encode_us_per_frame": (ratio(total.get("net.encode_frame", 0) * 1e3, count.get("net.encode_frame", 0)), "us"),
        "net.bytes_per_op": (ratio(delta("net.bytes_in") + delta("net.bytes_out"), ops), "B"),
        "service.queue_wait_ms_p50": (percentile(waits, 0.50), "ms"),
        "service.queue_wait_ms_p99": (percentile(waits, 0.99), "ms"),
        "service.commits_per_run": (ratio(commits, delta("server.commit_runs")), "count"),
        "service.max_commit_run": (float(max(runs, default=0)), "count"),
        "parser.parse_us_per_commit": (ratio(total.get("service.parse_transaction", 0) * 1e3, commits), "us"),
        "partition.live_mean": (ratio(sum(len(sizes) for sizes in samples), len(samples)), "count"),
        "partition.largest_pending_mean": (
            ratio(sum(max(sizes, default=0) for sizes in samples), len(samples)),
            "count",
        ),
        "route.ms_per_admit": (ratio(total.get("PartitionManager.merged_for", 0), admits), "ms"),
        "route.unification_checks_per_admit": (ratio(delta("partitions.unification_checks"), admits), "count"),
        "route.scanned_partitions_per_admit": (ratio(delta("partitions.scanned_partitions"), admits), "count"),
        "core.admit_self_ms": (ratio(own.get("QuantumState.admit", 0), admits), "ms"),
        "cache.ensure_ms_per_admit": (ratio(total.get("SolutionCache.ensure", 0), admits), "ms"),
        "cache.witness_hit_ratio": (
            ratio(delta("cache.witness_hits"), delta("cache.witness_hits") + delta("cache.witness_misses")),
            "ratio",
        ),
        "cache.full_solves_per_admit": (ratio(delta("cache.full_solves"), admits), "count"),
        "solver.search_ms_per_op": (ratio(own.get("GroundingSearch.find_one", 0), ops), "ms"),
        "solver.nodes_per_search": (ratio(delta("search.nodes"), delta("search.searches")), "count"),
        "ground.plan_ms_per_txn": (ratio(total.get("QuantumState.plan_grounding", 0), summary["planned_txns"]), "ms"),
        "ground.apply_ms_per_txn": (ratio(total.get("QuantumState.apply_grounding", 0), summary["applied_txns"]), "ms"),
        "ground.txns_per_read": (ratio(summary["grounded_in_reads"], summary["reads"]), "count"),
        "relational.query_ms_per_read": (ratio(summary["read_query_ms"], summary["reads"]), "ms"),
        "relational.persist_ms_per_run": (ratio(total.get("PendingTransactionStore.persist_many", 0), delta("server.commit_runs")), "ms"),
        "storage.append_us_per_record": (
            ratio(total.get("SegmentedWriteAheadLog.append", 0) * 1e3, count.get("SegmentedWriteAheadLog.append", 0)),
            "us",
        ),
        "storage.fsyncs_per_commit": (ratio(delta("durability.fsyncs"), commits), "count"),
        "storage.write_bytes_per_commit": (
            ratio(procs["end"]["write_bytes"] - procs["traced"]["write_bytes"], commits),
            "B",
        ),
        "storage.checkpoint_pause_ms_max": (max(pauses, default=0.0), "ms"),
        "storage.compaction_busy_frac": (ratio(total.get("SegmentedWriteAheadLog.compact_once", 0), wall_ms), "ratio"),
        "storage.bytes_reclaimed_per_commit": (ratio(delta("durability.bytes_reclaimed"), commits), "B"),
        "recovery.storage_s": (data["recovery"]["recovery_storage_s"], "s"),
        "recovery.readmit_s": (data["recovery"]["recovery_readmit_s"], "s"),
        "proc.server_cpu_s_per_op": (ratio(procs["end"]["cpu_s"] - procs["traced"]["cpu_s"], ops), "s"),
        "proc.gen_lag_p99_ms": (data["lag_p99_ms"], "ms"),
        "proc.achieved_ops_s": (achieved_rate(outcomes, times), "1/s"),
        "trace.overhead_ms": (p50["traced"] - p50["untraced"], "ms"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_ms_per_op"] = (ratio(summary["layer_self_ms"].get(layer, 0.0), ops), "ms")
    return metrics


#: Layers whose self time the traced run reports (see ``spans.TARGETS``).
LAYERS = (
    "net", "service", "parser", "quantum_database", "partition", "quantum_state",
    "solution_cache", "solver", "grounding", "relational", "storage",
)


def offered_rate(run: Run) -> float:
    return len(run.stream.phase("measure")) / run.seconds


def achieved_rate(outcomes: list[Outcome], times: dict) -> float:
    start, end = times["measure"], times["open_end"]
    answered = sum(1 for o in outcomes if o.status in ("ok", "rejected") and start <= o.answered < end)
    return answered / (end - start)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured open-loop window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if NetClient is None:
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    stream = build_stream(WORKLOADS[args.workload], args.seed, args.seconds, connection_count())
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), stream, workdir)
    try:
        data = asyncio.run(execute(run))
    except Exception:
        log = workdir / "server.log"
        if log.exists():
            sys.stderr.write(log.read_text()[-4000:])
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    outcomes, lag_p99 = data["outcomes"], data["lag_p99_ms"]
    failed_ops = [o for o in outcomes if o.status != "ok"]
    attempted = len(outcomes) + PROBES  # the stream plus the recovery probes
    failed = len(failed_ops) + len(data["violations"])

    print(f"workload {run.name} seed {run.seed} trace {int(run.trace)}: {stream.params.describe()}")
    print(
        f"offered {offered_rate(run):.2f} ops/s, achieved {achieved_rate(outcomes, data['times']):.2f} ops/s; "
        f"generator lag p99 {lag_p99:.2f} ms; host steal {data['steal_pct']:.1f}% of CPU time"
    )
    for kind in (COMMIT, READ, CHECKIN):
        sample = latencies(outcomes, kind, data["times"]["measure"], data["times"]["open_end"])
        shown = ", ".join(f"p{round(q * 100)} {percentile(sample, q):.2f}" for q in (0.5, 0.75, 0.9, 0.95, 0.99))
        print(f"{kind} latency ms over {len(sample)} samples: {shown}")
    print("setups s: " + ", ".join(f"{elapsed:.3f}" for elapsed in data["setups"]))
    print(
        "recoveries s: "
        + ", ".join(f"{total:.3f} (storage {info['recovery_storage_s']:.3f}, readmit {info['recovery_readmit_s']:.3f})"
                    for total, info in zip(data["recoveries"], data["infos"]))
    )
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted}: {len(failed_ops)} ops, {len(data['violations'])} violations)")
    for outcome in failed_ops[:5]:
        print(f"  failed {outcome.op.kind} {outcome.op.user}: {outcome.status} {outcome.error[:200]}")
    for violation in data["violations"][:20]:
        print(f"  violation: {violation}")
    if lag_p99 > GEN_LAG_LIMIT_MS:
        print(f"invalid run: the generator fell behind (lag p99 {lag_p99:.1f} ms > {GEN_LAG_LIMIT_MS} ms)")
        return 1 if data["violations"] else 3

    metrics = per_layer(run, data) if run.trace else end_to_end(run, data)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    if not run.trace:
        for name, (value, unit) in printed_only(run, data).items():
            print(f"{name:40s} {value:14.4f} {unit}  (printed only)")
    result = {
        "correct": not data["violations"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
