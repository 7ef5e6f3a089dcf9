"""The four workloads: set-up, timed window, answer checks, metrics.

Every workload returns a :class:`Outcome`.  Its end-to-end metrics are
reported under their own names (``reads_per_s``, ``ingest_ack_p50_ms``,
...) and mapped onto the gated names every workload shares (see
``GATED`` in ``run.py``).

* ``ingest_durable`` — 500-event batches of a seeded feed (recurring
  Zipf keys plus a fixed share of new ones) into a ``serve --sync-ack 1``
  primary with one ``--follow`` follower.
* ``serve_mixed`` — ``sum`` / ``distinct`` / ``similarity`` reads plus
  rare updating writes against one preloaded primary.
* ``routed_read`` — the same preload and reads, without writes, through
  a router and two shards hosted on one asyncio loop.
* ``offline_reproduce`` — passes of the paper's experiments E1..E11 and
  an L* estimate over 1M items, in one process with no serving code.

Every time and rate in ``Outcome.gated`` is scaled by the host probe
(:mod:`probe`) over the interval it times, so a host that runs slow for a
minute does not read as a slower program.  Each process is pinned to a
core (``proc.MAIN`` / ``proc.SIDE``), and the probe of each core is
weighted by the CPU time the processes on it used.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import layers
from loadgen import Op, Window, closed_loop
from probe import REFERENCE_MS, HostProbe
from proc import MAIN, SIDE, Program, cpu_seconds, peak_rss_mb
from stats import drift_ratio, failed_share, median, tail

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Requests in flight and connections, per serving workload.
CONNECTIONS = 2
READ_IN_FLIGHT = 16

GROUPS = tuple(f"g{index}" for index in range(8))
PRELOAD_EVENTS = 120_000
PRELOAD_KEYS = 40_000
SKETCH_K = 512
TAU_STAR = 5.0
BATCH_EVENTS = 500
WRITE_EVENTS = 50
WRITE_EVERY = 1_000
SIMILARITY_EVERY = 200
HORIZONS = 16

#: The ingest feed.  Each batch draws ``BATCH_EVENTS - INGEST_NEW``
#: events Zipf-like from ``INGEST_HOT_KEYS`` recurring keys, which the
#: set-up sends once, and ``INGEST_NEW`` events of keys never sent
#: before.  So every batch of the window has the same mix, however many
#: batches the window manages.  New keys grow the ledgers, so peak
#: memory grows with the batches sent: at 50 new keys per batch it grew
#: by 0.6 MB per 1k events/s and spread 0.03 run to run; 10 keep that to
#: a fifth.  The replication buffer is capped (``--repl-buffer``) so it
#: stops growing early in the window.
INGEST_HOT_KEYS = 10_000
INGEST_NEW = 10
INGEST_REPL_BUFFER = 256

#: Preload batches are larger than ingest batches: set-up is paid three
#: times per run, and batch size does not change what the preload holds.
PRELOAD_BATCH_EVENTS = 2_000

#: Tail percentiles: the highest each workload's ops support with at
#: least ten samples beyond in a 10 s window (about 20k reads on
#: serve_mixed; about 1k reads on routed_read and 1k acks on
#: ingest_durable).  A shorter window reports them as NaN.
READ_TAIL = 99.0
ROUTED_TAIL = 95.0
INGEST_TAIL = 95.0


@dataclass
class Context:
    """What one run works with."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    src: Path
    workdir: Path
    programs: List[Program] = field(default_factory=list)
    probe: Optional[HostProbe] = None

    def launch(
        self, role: str, args: Sequence[str], traced: bool, cpu: int = MAIN
    ) -> Program:
        """Start a program process pinned to core ``cpu``; ``run.py``
        kills any still running."""
        spans = self.workdir / f"spans-{role}.npz" if traced else None
        program = Program(
            role, args, src=self.src, workdir=self.workdir, cpu=cpu,
            spans=spans,
        )
        self.programs.append(program)
        return program


@dataclass
class Outcome:
    """Everything a workload measured and checked."""

    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    gated: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Shared serving plumbing
# ----------------------------------------------------------------------
async def connect(address, count: int = CONNECTIONS):
    from repro.serving import ServingClient

    return [await ServingClient.connect(*address) for _ in range(count)]


async def close_all(clients) -> None:
    for client in clients:
        await client.close()


async def send_batches(
    clients, batches: Sequence[List[Dict[str, Any]]], in_flight: int
) -> List[Tuple[int, int, bool]]:
    """Ingest ``batches`` with ``in_flight`` outstanding; returns
    ``(batch index, ack watermark, durable)`` per batch."""
    acks: List[Tuple[int, int, bool]] = []
    next_index = 0

    async def worker(client) -> None:
        nonlocal next_index
        while next_index < len(batches):
            index = next_index
            next_index += 1
            response = await client.request("ingest", events=batches[index])
            acks.append(
                (index, int(response["watermark"]),
                 response.get("durable") is not False)
            )

    await asyncio.gather(
        *(worker(clients[i % len(clients)]) for i in range(in_flight))
    )
    return acks


def event_batches(events, size: int) -> List[List[Dict[str, Any]]]:
    dicts = [event.to_dict() for event in events]
    return [dicts[i:i + size] for i in range(0, len(dicts), size)]


def replay_order(
    batches: Sequence[List[Dict[str, Any]]], acks
) -> List[List[Dict[str, Any]]]:
    """The batches in the order the server applied them (by watermark)."""
    return [batches[index] for index, _, _ in sorted(acks, key=lambda a: a[1])]


def sample_cpu(programs: Sequence[Program]) -> Dict[str, float]:
    return {p.role: cpu_seconds(p.pid) for p in programs}


def cpu_delta(after, before) -> Dict[str, float]:
    return {role: after[role] - before[role] for role in after}


def load_spans(programs: Sequence[Program]) -> Dict[str, layers.Spans]:
    return {
        p.role: layers.Spans(p.spans)
        for p in programs
        if p.spans is not None and p.spans.exists()
    }


class Marks:
    """CPU samples and trace switches at the window's start, middle, end.

    In a traced run the first half runs with the wrappers installed but
    idle and the second half records spans, so the two halves give the
    untraced and traced work rates behind ``tracing.overhead_ratio``.
    """

    def __init__(self, programs: Sequence[Program], trace: bool) -> None:
        self.programs = programs
        self.trace = trace
        self.cpu: Dict[str, Dict[str, float]] = {}
        self.times: Dict[str, float] = {}
        self.generator_cpu: Dict[str, float] = {}

    def mark(self, name: str) -> None:
        self.times[name] = time.perf_counter()
        self.cpu[name] = sample_cpu(self.programs)
        self.generator_cpu[name] = time.process_time()

    def middle(self) -> None:
        self.mark("middle")
        if self.trace:
            for program in self.programs:
                program.start_trace()

    def finish(self) -> None:
        if self.trace:
            for program in self.programs:
                program.stop_trace()
        self.mark("end")


def window_diagnostics(
    outcome: Outcome, marks: Marks, completions: Sequence[float],
    window: Window,
) -> None:
    wall = marks.times["end"] - marks.times["start"]
    used = cpu_delta(marks.cpu["end"], marks.cpu["start"])
    for role, seconds in used.items():
        outcome.diagnostics[f"cpu_share.{role}"] = seconds / wall
    outcome.diagnostics["loadgen.cpu_share"] = (
        marks.generator_cpu["end"] - marks.generator_cpu["start"]
    ) / wall
    outcome.diagnostics["window.drift_ratio"] = drift_ratio(
        completions, window.start, window.end
    )


def traced_layers(
    ctx: Context, outcome: Outcome, programs: Sequence[Program],
    marks: Marks, window: Window, server_role: str, ops: int,
    extra: Dict[str, float],
) -> None:
    """Per-layer metrics of the traced second half of the window."""
    roles = load_spans(programs)
    cpu = cpu_delta(marks.cpu["end"], marks.cpu["middle"])
    middle = marks.times["middle"]

    def rate(lo: float, hi: float) -> float:
        return len(window.completed(lo, hi)) / (hi - lo)

    untraced = rate(window.start, middle)
    traced = rate(middle, window.end)
    extra = dict(extra)
    extra["tracing.overhead_ratio"] = untraced / traced if traced else 0.0
    outcome.per_layer = layers.per_layer(
        ctx.workload, roles, server_role, ops, cpu, extra
    )
    outcome.problems += layers.cpu_check(roles, cpu)


def stop_programs(programs: Sequence[Program], addresses) -> None:
    """Ask each program to shut down (in order) and wait for its exit."""

    async def shutdown() -> None:
        for address in addresses:
            clients = await connect(address, 1)
            try:
                await clients[0].request("shutdown")
            finally:
                await close_all(clients)

    asyncio.run(shutdown())
    for program in programs:
        program.wait(30.0)


def latency_ms(ops: Sequence[Op]) -> List[float]:
    return [(op.end - op.start) * 1000.0 for op in ops]


#: One set-up: when it started and ended, and the CPU seconds used on
#: each core meanwhile (the weights of the host probe's cores).
Setup = Tuple[float, float, Dict[int, float]]


def busy(
    programs: Sequence[Program], used: Dict[str, float], generator_s: float
) -> Dict[int, float]:
    """CPU seconds per core: each program's ``used[role]`` on its core,
    and the load generator's on ``SIDE``."""
    cores = {SIDE: generator_s}
    for program in programs:
        cores[program.cpu] = cores.get(program.cpu, 0.0) + used[program.role]
    return cores


def setup_busy(programs: Sequence[Program], generator_start: float):
    """:func:`busy` of programs launched since ``generator_start`` (the
    generator's ``process_time`` then)."""
    return busy(
        programs, {p.role: cpu_seconds(p.pid) for p in programs},
        time.process_time() - generator_start,
    )


def setup_s(probe: HostProbe, setups: Sequence[Setup]) -> float:
    """The median set-up time, each set-up scaled by the host probe."""
    return median([(hi - lo) * probe.scale(lo, hi, w) for lo, hi, w in setups])


def host_diagnostics(
    outcome: Outcome, probe: HostProbe, setups: Sequence[Setup],
    scale: float, lo: float, hi: float,
) -> None:
    outcome.diagnostics["host.calib_ms"] = REFERENCE_MS / scale
    for name, cpu in (("main", MAIN), ("side", SIDE)):
        outcome.diagnostics[f"host.calib_ms.{name}"] = probe.ms(lo, hi, cpu)
        outcome.diagnostics[f"host.steal_share.{name}"] = probe.steal(lo, hi, cpu)
    outcome.diagnostics["host.calib_ms.setup"] = median(
        [REFERENCE_MS / probe.scale(lo, hi, w) for lo, hi, w in setups]
    )
    outcome.diagnostics["setup_s.spread"] = (
        max(hi - lo for lo, hi, _ in setups)
        - min(hi - lo for lo, hi, _ in setups)
    )


#: The window is scaled one second at a time, so a change in the host's
#: speed within a window is scaled away too.
BUCKET_S = 1.0


class WindowScale:
    """The host probe's scale over the window and over each second of it.

    The cores are weighted by the CPU seconds used on each over the
    whole window.  ``of(t)`` is the scale of the second holding ``t``;
    an op answered after the window ends takes the last second's.
    """

    def __init__(self, ctx: Context, marks: "Marks", window: Window) -> None:
        weights = busy(
            marks.programs, cpu_delta(marks.cpu["end"], marks.cpu["start"]),
            marks.generator_cpu["end"] - marks.generator_cpu["start"],
        )
        self.start = window.start
        self.whole = ctx.probe.scale(window.start, window.end, weights)
        # Equal buckets of about BUCKET_S, none cut short at the end.
        count = max(1, round((window.end - window.start) / BUCKET_S))
        self.width = (window.end - window.start) / count
        self.buckets = [
            ctx.probe.scale(
                window.start + i * self.width,
                window.start + (i + 1) * self.width, weights,
            )
            for i in range(count)
        ]

    def of(self, t: float) -> float:
        index = int((t - self.start) // self.width)
        return self.buckets[min(max(index, 0), len(self.buckets) - 1)]

    def rate(self, ops: Sequence[Op], work, seconds: float) -> float:
        """Work per second of ``ops``, each op's ``work(op)`` scaled by
        the second it was answered in."""
        return sum(work(op) / self.of(op.end) for op in ops) / seconds

    def p50_ms(self, ops: Sequence[Op]) -> float:
        """Median latency of ``ops``, each scaled by its second."""
        return median([
            (op.end - op.start) * 1000.0 * self.of(op.end) for op in ops
        ])


# ----------------------------------------------------------------------
# serve_mixed and routed_read: preload, then reads (and writes)
# ----------------------------------------------------------------------
class ReadMix:
    """The seeded request sequence of the read workloads.

    Request ``i`` is a write every :data:`WRITE_EVERY` requests (when
    writes are on), a ``similarity`` every :data:`SIMILARITY_EVERY`, and
    otherwise a ``sum`` or a ``distinct`` of one group, the latter with
    one of :data:`HORIZONS` seeded horizons.  Writes add weight to keys
    the preload already holds, so the ledger stays the same size and
    per-op cost does not drift across the window.

    The mix is balanced and the seed only orders it: every block of 16
    read slots holds each group's ``sum`` and ``distinct`` once and
    assigns each horizon once, the horizons are one per sixteenth of the
    preload, and the similarities cycle through the 28 group pairs.  With independent draws, the share of each shape in a
    window, and so its cost, moved with the seed by more than the host
    did.
    """

    def __init__(self, seed: int, writes: bool) -> None:
        from repro.serving import Event, synthetic_feed

        self.preload = synthetic_feed(
            PRELOAD_EVENTS, num_keys=PRELOAD_KEYS, groups=GROUPS, seed=seed
        )
        self.batches = event_batches(self.preload, PRELOAD_BATCH_EVENTS)
        rng = np.random.default_rng([seed, 1])
        self.horizons = [
            float((j + u) * PRELOAD_EVENTS / HORIZONS)
            for j, u in enumerate(rng.random(HORIZONS))
        ]
        self.pairs = [
            (a, b) for i, a in enumerate(GROUPS) for b in GROUPS[i + 1:]
        ]
        blocks = 6_250  # 100,000 read slots
        # Shape s < 8 is a sum of group s, s >= 8 a distinct of s - 8.
        self.shape = np.argsort(
            rng.random((blocks, 2 * len(GROUPS))), axis=1
        ).ravel()
        self.horizon = np.argsort(
            rng.random((blocks, HORIZONS)), axis=1
        ).ravel()
        self.pair_order = rng.permutation(len(self.pairs))
        self.writes: List[List[Dict[str, Any]]] = []
        if writes:
            cells = sorted({(e.group, e.key) for e in self.preload})
            for index in range(64):
                chosen = rng.choice(len(cells), WRITE_EVENTS, replace=False)
                weights = rng.lognormal(0.0, 0.75, WRITE_EVENTS)
                self.writes.append([
                    Event(
                        key=cells[c][1], weight=float(w),
                        timestamp=float(PRELOAD_EVENTS + index),
                        group=cells[c][0],
                    ).to_dict()
                    for c, w in zip(chosen, weights)
                ])

    def shapes(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Every read shape once (the warm-up).

        The rare ``similarity`` shapes go first, the pairs the window
        asks for first last.  The router caches the views of its 32
        latest shapes, fewer than the mix's 44, so this order leaves
        every ``sum`` and ``distinct`` view and the window's first 16
        pairs in its cache when the window starts.
        """
        shapes = [
            ("query", {"kind": "similarity",
                       "groups": list(self.pairs[p])})
            for p in self.pair_order[::-1]
        ]
        shapes += [("query", {"kind": "sum", "groups": [g]}) for g in GROUPS]
        shapes += [
            ("query", {"kind": "distinct", "groups": [g], "until": h})
            for g in GROUPS for h in self.horizons
        ]
        return shapes

    def request(self, index: int) -> Tuple[str, Dict[str, Any]]:
        if self.writes and index % WRITE_EVERY == WRITE_EVERY - 1:
            batch = self.writes[(index // WRITE_EVERY) % len(self.writes)]
            return "ingest", {"events": batch}
        if index % SIMILARITY_EVERY == SIMILARITY_EVERY - 1:
            number = index // SIMILARITY_EVERY
            pair = self.pairs[self.pair_order[number % len(self.pairs)]]
            return "query", {"kind": "similarity", "groups": list(pair)}
        slot = index % len(self.shape)
        shape = int(self.shape[slot])
        group = GROUPS[shape % len(GROUPS)]
        if shape < len(GROUPS):
            return "query", {"kind": "sum", "groups": [group]}
        return "query", {
            "kind": "distinct", "groups": [group],
            "until": self.horizons[self.horizon[slot]],
        }


def check_reads(preload_order, window: Window) -> List[str]:
    """Every answer against an in-process store at the answer's watermark.

    Writes are replayed into the oracle in the order the server applied
    them (their ack watermarks); answers are compared with ``==``.
    """
    from repro.serving import Event, SketchStore, StoreConfig

    oracle = SketchStore(StoreConfig(k=SKETCH_K, tau_star=TAU_STAR))
    for batch in preload_order:
        oracle.ingest(Event.from_dict(e) for e in batch)
    writes = sorted(
        (int(op.response["watermark"]), op.fields["events"])
        for op in window.ops
        if op.op == "ingest" and op.error is None
    )
    reads = sorted(
        (op for op in window.ops if op.op == "query" and op.error is None),
        key=lambda op: int(op.response["watermark"]),
    )
    problems: List[str] = []
    memo: Dict[str, Any] = {}
    pending = list(writes)
    for op in reads:
        watermark = int(op.response["watermark"])
        while pending and pending[0][0] <= watermark:
            applied, events = pending.pop(0)
            oracle.ingest(Event.from_dict(e) for e in events)
            memo.clear()
            if oracle.events_ingested != applied:
                problems.append(
                    f"write acked at watermark {applied} replays to "
                    f"{oracle.events_ingested}"
                )
        if oracle.events_ingested != watermark:
            problems.append(
                f"answer at watermark {watermark}, oracle at "
                f"{oracle.events_ingested}"
            )
            continue
        key = json.dumps(op.fields, sort_keys=True)
        if key not in memo:
            memo[key] = oracle.query(
                op.fields["kind"], groups=op.fields["groups"],
                until=op.fields.get("until"),
            )
        if op.response["result"] != memo[key]:
            problems.append(
                f"{key} at watermark {watermark}: served "
                f"{op.response['result']!r}, oracle {memo[key]!r}"
            )
        if len(problems) > 20:
            break
    return problems


def read_workload(ctx: Context, routed: bool) -> Outcome:
    outcome = Outcome()
    mix = ReadMix(ctx.seed, writes=not routed)
    config_flags = ["--k", str(SKETCH_K), "--tau-star", str(TAU_STAR)]
    setups: List[Setup] = []
    for attempt in range(SETUPS):
        root = ctx.workdir / f"store{attempt}"
        last = attempt == SETUPS - 1
        traced = ctx.trace and last
        generator_start = time.process_time()
        started = time.perf_counter()
        if routed:
            server = ctx.launch(
                "server", ["routed", "--root", str(root), *config_flags], traced
            )
            address = server.address("routing")
        else:
            server = ctx.launch(
                "server", ["serve", "--store", str(root), *config_flags], traced
            )
            address = server.address("serving")

        async def set_up():
            clients = await connect(address)
            # A routed batch splits across shards, and two in flight
            # could reach the shards in different orders; one at a time
            # keeps the unsharded oracle's order exact.
            acks = await send_batches(
                clients, mix.batches, 1 if routed else CONNECTIONS
            )
            for op, fields in mix.shapes():
                await clients[0].request(op, **fields)
            await close_all(clients)
            return acks

        acks = asyncio.run(set_up())
        setups.append((
            started, time.perf_counter(), setup_busy([server], generator_start)
        ))
        if not last:
            stop_programs([server], [address])
            server.close()
            shutil.rmtree(root, ignore_errors=True)
    programs = [server]
    marks = Marks(programs, ctx.trace)

    async def timed() -> Window:
        clients = await connect(address)
        marks.mark("start")
        window = await closed_loop(
            clients, mix.request, READ_IN_FLIGHT, ctx.seconds,
            marks=[(ctx.seconds / 2.0, marks.middle)],
        )
        marks.finish()
        await close_all(clients)
        return window

    window = asyncio.run(timed())
    ctx.probe.stop()
    rss = sum(peak_rss_mb(p.pid) for p in programs)
    stop_programs(programs, [address])

    reads = [
        op for op in window.ops
        if op.op == "query" and op.fields["kind"] != "similarity"
    ]
    similarity = [op for op in window.ops if op.fields.get("kind") == "similarity"]
    outcome.attempted = len(window.ops)
    outcome.failed = sum(1 for op in window.ops if op.error is not None)
    answered = [op for op in window.ops if op.error is None and op.op == "query"]
    read_ms = latency_ms([op for op in reads if op.error is None])
    tail_q = ROUTED_TAIL if routed else READ_TAIL
    reads_per_s = len(answered) / ctx.seconds
    outcome.named = {
        "setup_s": (median([hi - lo for lo, hi, _ in setups]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_share": (
            failed_share(outcome.attempted, outcome.failed), "ratio"
        ),
        "reads_per_s": (reads_per_s, "1/s"),
        "read_p50_ms": (median(read_ms), "ms"),
        f"read_p{tail_q:g}_ms": (tail(read_ms, tail_q), "ms"),
    }
    if not routed:
        sim_ms = latency_ms([op for op in similarity if op.error is None])
        outcome.named["similarity_p50_ms"] = (median(sim_ms), "ms")
    scale = WindowScale(ctx, marks, window)
    outcome.gated = {
        "setup_s": setup_s(ctx.probe, setups),
        "peak_rss_mb": rss,
        "work_per_s": scale.rate(answered, lambda op: 1.0, ctx.seconds),
        "op_p50_ms": scale.p50_ms([op for op in reads if op.error is None]),
    }
    outcome.diagnostics["samples.op"] = len(read_ms)
    host_diagnostics(
        outcome, ctx.probe, setups, scale.whole, window.start, window.end
    )
    window_diagnostics(
        outcome, marks, [op.end for op in answered], window
    )
    if ctx.trace:
        traced_ops = len(window.completed(marks.times["middle"], window.end))
        traced_layers(
            ctx, outcome, programs, marks, window, "server", traced_ops, {}
        )
    outcome.problems += check_reads(replay_order(mix.batches, acks), window)
    return outcome


def serve_mixed(ctx: Context) -> Outcome:
    return read_workload(ctx, routed=False)


def routed_read(ctx: Context) -> Outcome:
    return read_workload(ctx, routed=True)


# ----------------------------------------------------------------------
# ingest_durable
# ----------------------------------------------------------------------
class IngestFeed:
    """The seeded ingest feed, built one batch at a time.

    Batch ``i`` is a pure function of the seed and ``i``: it holds
    ``BATCH_EVENTS - INGEST_NEW`` events of the recurring keys
    ``k00000``... (Zipf-like, as in ``synthetic_feed``) and
    ``INGEST_NEW`` events of keys ``n...`` that no other batch holds.  A
    key's group is fixed by the key, so once :meth:`warm_up` has sent
    every recurring key, each batch updates the same number of ledger
    entries and adds the same number, wherever in the window it falls.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        ranks = np.arange(1, INGEST_HOT_KEYS + 1, dtype=float)
        self.cdf = np.cumsum(1.0 / ranks)
        self.cdf /= self.cdf[-1]

    @staticmethod
    def event(key: str, number: int, weight: float, stamp: float):
        return {
            "key": key, "weight": weight, "timestamp": stamp,
            "group": GROUPS[number % len(GROUPS)],
        }

    def warm_up(self) -> List[List[Dict[str, Any]]]:
        """Every recurring key once, in ``BATCH_EVENTS``-event batches."""
        events = [
            self.event(f"k{number:05d}", number, 1.0, 0.0)
            for number in range(INGEST_HOT_KEYS)
        ]
        return [
            events[i:i + BATCH_EVENTS]
            for i in range(0, len(events), BATCH_EVENTS)
        ]

    def batch(self, index: int) -> List[Dict[str, Any]]:
        rng = np.random.default_rng([self.seed, index])
        hot = np.searchsorted(self.cdf, rng.random(BATCH_EVENTS - INGEST_NEW))
        new = INGEST_HOT_KEYS + index * INGEST_NEW + np.arange(INGEST_NEW)
        numbers = np.concatenate([hot, new])[rng.permutation(BATCH_EVENTS)]
        weights = rng.lognormal(0.0, 0.75, BATCH_EVENTS)
        return [
            self.event(
                f"k{number:05d}" if number < INGEST_HOT_KEYS
                else f"n{number:09d}",
                int(number), float(weight),
                float(1 + index * BATCH_EVENTS + j),
            )
            for j, (number, weight) in enumerate(zip(numbers, weights))
        ]


async def subscribe_and_warm(address, batches) -> List[Tuple[int, int, bool]]:
    """Wait until the follower has subscribed, then ingest ``batches``."""
    clients = await connect(address)
    try:
        deadline = time.monotonic() + 30.0
        while (await clients[0].info())["durability"]["ack_subscribers"] < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("the follower never subscribed")
            await asyncio.sleep(0.01)
        return await send_batches(clients, batches, CONNECTIONS)
    finally:
        await close_all(clients)


def ingest_durable(ctx: Context) -> Outcome:
    from repro.serving import Event, SketchStore, StoreConfig

    outcome = Outcome()
    feed = IngestFeed(ctx.seed)
    warm_batches = feed.warm_up()
    setups: List[Setup] = []
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        primary_dir = ctx.workdir / f"primary{attempt}"
        follower_dir = ctx.workdir / f"follower{attempt}"

        generator_start = time.process_time()
        started = time.perf_counter()
        # The ack timeout is 10 s, not the default 1 s: a host stall of
        # over a second would otherwise degrade an ack to durable: false
        # and fail the run's every-ack-durable check.  The pending-event
        # cap admits both connections' batches at once.
        primary = ctx.launch(
            "server",
            ["serve", "--store", str(primary_dir), "--sync-ack", "1",
             "--ack-timeout", "10", "--max-pending-events", "100000",
             "--repl-buffer", str(INGEST_REPL_BUFFER)],
            ctx.trace and last,
        )
        primary_address = primary.address("serving")
        follower = ctx.launch(
            "follower",
            ["serve", "--store", str(follower_dir), "--follow",
             "%s:%d" % primary_address],
            ctx.trace and last, cpu=SIDE,
        )
        follower_address = follower.address("serving")
        follower.wait_for("following", 60.0)
        warm = asyncio.run(subscribe_and_warm(primary_address, warm_batches))
        setups.append((
            started, time.perf_counter(),
            setup_busy([primary, follower], generator_start),
        ))
        if last:
            break
        stop_programs([follower, primary], [follower_address, primary_address])
        primary.close()
        follower.close()
        shutil.rmtree(primary_dir, ignore_errors=True)
        shutil.rmtree(follower_dir, ignore_errors=True)

    programs = [primary, follower]
    marks = Marks(programs, ctx.trace)
    wal = primary_dir / "events.jsonl"
    sizes: Dict[str, float] = {}

    def middle() -> None:
        sizes["middle"] = wal.stat().st_size
        marks.middle()

    async def timed() -> Window:
        clients = await connect(primary_address)
        marks.mark("start")
        window = await closed_loop(
            clients, lambda i: ("ingest", {"events": feed.batch(i)}),
            CONNECTIONS, ctx.seconds,
            marks=[(ctx.seconds / 2.0, middle)],
        )
        marks.finish()
        sizes["end"] = wal.stat().st_size
        await close_all(clients)
        return window

    window = asyncio.run(timed())
    ctx.probe.stop()
    rss = sum(peak_rss_mb(p.pid) for p in programs)
    final_watermark, answers = asyncio.run(
        final_answers(primary_address, follower_address)
    )
    stop_programs(programs, [follower_address, primary_address])

    acked = [op for op in window.ops if op.error is None]
    durable = [op for op in acked if op.response.get("durable") is True]
    outcome.attempted = len(window.ops)
    outcome.failed = len(window.ops) - len(durable)
    ack_ms = latency_ms(durable)
    events_per_s = sum(len(op.fields["events"]) for op in durable) / ctx.seconds
    outcome.named = {
        "setup_s": (median([hi - lo for lo, hi, _ in setups]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "failed_share": (
            failed_share(outcome.attempted, outcome.failed), "ratio"
        ),
        "ingest_events_per_s": (events_per_s, "1/s"),
        "ingest_ack_p50_ms": (median(ack_ms), "ms"),
        f"ingest_ack_p{INGEST_TAIL:g}_ms": (tail(ack_ms, INGEST_TAIL), "ms"),
    }
    scale = WindowScale(ctx, marks, window)
    outcome.gated = {
        "setup_s": setup_s(ctx.probe, setups),
        "peak_rss_mb": rss,
        "work_per_s": scale.rate(
            durable, lambda op: len(op.fields["events"]), ctx.seconds
        ),
        "op_p50_ms": scale.p50_ms(durable),
    }
    outcome.diagnostics["samples.op"] = len(ack_ms)
    outcome.diagnostics["ingest.new_key_share"] = INGEST_NEW / BATCH_EVENTS
    host_diagnostics(
        outcome, ctx.probe, setups, scale.whole, window.start, window.end
    )
    window_diagnostics(outcome, marks, [op.end for op in durable], window)

    if ctx.trace:
        middle_t = marks.times["middle"]
        traced = [op for op in durable if op.start >= middle_t]
        traced_events = sum(len(op.fields["events"]) for op in traced)
        traced_layers(
            ctx, outcome, programs, marks, window, "server", len(traced),
            {"wal.bytes_per_event": (sizes["end"] - sizes["middle"])
             / max(1, traced_events)},
        )

    # Correctness: oracle replay, follower == primary, every ack
    # durable, and the primary's directory recovers the acked watermark.
    all_acks = [
        (int(response_watermark), durable_flag, warm_batches[index])
        for index, response_watermark, durable_flag in warm
    ] + [
        (int(op.response["watermark"]), op.response.get("durable") is True,
         op.fields["events"])
        for op in acked
    ]
    all_acks.sort(key=lambda ack: ack[0])
    oracle = SketchStore(StoreConfig())
    for _, _, batch in all_acks:
        oracle.ingest(Event.from_dict(e) for e in batch)
    if any(not d for _, d, _ in all_acks):
        outcome.problems.append("an ingest ack was not durable: true")
    acked_watermark = all_acks[-1][0]
    if final_watermark != acked_watermark or oracle.events_ingested != acked_watermark:
        outcome.problems.append(
            f"primary at {final_watermark}, acks at {acked_watermark}, "
            f"oracle at {oracle.events_ingested}"
        )
    expected = [
        oracle.query(kind, groups=list(groups)) for kind, groups in FINAL_QUERIES
    ]
    for name in ("primary", "follower"):
        served = [answer["result"] for answer in answers[name]]
        if served != expected:
            outcome.problems.append(f"{name} answers differ from the oracle")
    reopened = SketchStore.open(primary_dir)
    try:
        if reopened.events_ingested != acked_watermark:
            outcome.problems.append(
                f"reopened primary recovers {reopened.events_ingested}, "
                f"acked {acked_watermark}"
            )
        recovered = [
            reopened.query(kind, groups=list(groups))
            for kind, groups in FINAL_QUERIES
        ]
        if recovered != expected:
            outcome.problems.append("reopened primary differs from the oracle")
    finally:
        reopened.close()
    return outcome


FINAL_QUERIES = [
    ("sum", GROUPS),
    ("distinct", GROUPS),
    ("similarity", GROUPS[:2]),
    ("similarity", GROUPS[2:4]),
]


async def final_answers(primary_address, follower_address):
    """The primary's watermark, and both servers' answers to
    :data:`FINAL_QUERIES` once the follower has caught up with it."""
    primary, follower = [
        (await connect(address, 1))[0]
        for address in (primary_address, follower_address)
    ]
    try:
        watermark = (await primary.info())["events_ingested"]
        deadline = time.monotonic() + 60.0
        while (await follower.info())["events_ingested"] < watermark:
            if time.monotonic() > deadline:
                raise RuntimeError("the follower never caught up")
            await asyncio.sleep(0.05)
        answers = {
            name: [
                await client.query(kind, groups=list(groups))
                for kind, groups in FINAL_QUERIES
            ]
            for name, client in (("primary", primary), ("follower", follower))
        }
    finally:
        await close_all([primary, follower])
    return watermark, answers


# ----------------------------------------------------------------------
# offline_reproduce
# ----------------------------------------------------------------------
DIGEST_FILE = Path(__file__).resolve().parent / "offline_digest.json"


def offline_reproduce(ctx: Context) -> Outcome:
    outcome = Outcome()
    setups: List[Setup] = []
    only_main = {MAIN: 1.0}  # the generator only waits
    for attempt in range(SETUPS):
        last = attempt == SETUPS - 1
        args = ["offline", "--seed", str(ctx.seed), "--seconds", str(ctx.seconds)]
        if not last:
            args.append("--setup-only")
        started = time.perf_counter()
        program = ctx.launch("offline", args, ctx.trace and last)
        program.wait_for('{"ready"', 120.0)
        setups.append((started, time.perf_counter(), only_main))
        program.wait(60.0 if not last else 170.0)
    ctx.probe.stop()
    lines = program.json_lines()
    passes = [line for line in lines if "pass" in line]
    done = next(line for line in lines if line.get("done"))
    if not passes:
        raise RuntimeError("no offline pass completed")
    reproduce = [p["reproduce_s"] for p in passes]
    items = sum(p["items"] for p in passes)
    outcome.attempted = len(passes)
    outcome.failed = 0
    outcome.named = {
        "setup_s": (median([hi - lo for lo, hi, _ in setups]), "s"),
        "peak_rss_mb": (done["peak_rss_mb"], "MB"),
        "failed_share": (failed_share(len(passes), 0), "ratio"),
        "reproduce_s": (median(reproduce), "s"),
        "estimate_items_per_s": (
            items / sum(p["estimate_s"] for p in passes), "1/s"
        ),
    }
    # Each pass's two phases are scaled by the probe over their own span.
    probe = ctx.probe
    middles = [p["start"] + p["reproduce_s"] for p in passes]
    outcome.gated = {
        "setup_s": setup_s(probe, setups),
        "peak_rss_mb": done["peak_rss_mb"],
        "work_per_s": items / sum(
            p["estimate_s"] * probe.scale(m, p["end"], only_main)
            for p, m in zip(passes, middles)
        ),
        "op_p50_ms": 1000.0 * median([
            p["reproduce_s"] * probe.scale(p["start"], m, only_main)
            for p, m in zip(passes, middles)
        ]),
    }
    window_start = passes[0]["start"]
    window_end = passes[-1]["end"]
    outcome.diagnostics["samples.op"] = len(passes)
    host_diagnostics(
        outcome, probe, setups,
        probe.scale(window_start, window_end, only_main),
        window_start, window_end,
    )
    outcome.diagnostics["cpu_share.offline"] = (
        sum(p["cpu_s"] for p in passes) / (window_end - window_start)
    )
    outcome.diagnostics["loadgen.cpu_share"] = 0.0
    outcome.diagnostics["window.drift_ratio"] = drift_ratio(
        [p["end"] for p in passes], window_start, window_end + 1e-9
    )
    if ctx.trace:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        roles = load_spans([program])
        cpu = {"offline": sum(p["cpu_s"] for p in traced)}

        def pass_rate(group) -> float:
            return len(group) / sum(p["end"] - p["start"] for p in group)

        extra = {
            "tracing.overhead_ratio": (
                pass_rate(plain) / pass_rate(traced) if plain and traced else 0.0
            )
        }
        outcome.per_layer = layers.per_layer(
            ctx.workload, roles, None, len(traced), cpu, extra
        )
        outcome.problems += layers.cpu_check(roles, cpu)

    reference = json.loads(DIGEST_FILE.read_text())["records_sha256"]
    for p in passes:
        if p["digest"] != reference:
            outcome.problems.append(
                f"pass {p['pass']}: records digest {p['digest']} != "
                f"reference {reference}"
            )
    fast, slow = done["scalar_check"]
    if abs(fast - slow) > 1e-9 * max(1.0, abs(slow)):
        outcome.problems.append(
            f"engine L* total {fast!r} != scalar lstar_closed {slow!r}"
        )
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "ingest_durable": ingest_durable,
    "serve_mixed": serve_mixed,
    "routed_read": routed_read,
    "offline_reproduce": offline_reproduce,
}
