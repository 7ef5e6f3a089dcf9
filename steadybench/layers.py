"""Per-layer metrics from the spans of a traced run.

Each program process writes its spans when it exits (see
:mod:`tracing`); this module loads them per role and folds them into
the per-layer metrics, each divided by the end-to-end ops completed in
the traced part of the window.  A layer that did no work reads 0.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from proc import CLOCK_TICKS
from stats import median, self_times, tail, union_length

#: Layers whose spans wait on other tasks (``async`` wrappers); their
#: spans are wall time, never CPU, and may overlap one another.
AWAITING = {"batcher.submit", "repl.ack_wait", "router.request"}

SEED_LAYERS = ("seeds.seeds_for", "seeds.seed_for")
SKETCH_LAYERS = (
    "sketches.bottom_k", "sketches.pps", "sketches.ads",
    "sketches.merge_bottom_k", "sketches.merge_pps", "sketches.merge_ads",
)
INTEGRATION_LAYERS = (
    "core.piecewise_quad", "core.integral_lb_u2", "core.expectation_on_grid",
)
EXPERIMENT_LAYERS = tuple(f"experiments.E{n}" for n in range(1, 12))

#: Every per-layer metric, with the wrapped layers it is measured
#: around and the workload on which at least one of them must fire.
METRICS: Dict[str, tuple] = {
    "server.cpu_ms_per_op": ((), None),
    "server.unattributed_ms_per_op": ((), None),
    "events.decode_ms_per_op": (("events.decode",), "ingest_durable"),
    "events.decoded_per_op": (("events.decode",), "ingest_durable"),
    "admission.shed_ratio": (("admission.try_admit",), "ingest_durable"),
    "batcher.requests_per_dispatch": (("batcher.execute",), "serve_mixed"),
    "batcher.execute_ms_per_op": (("batcher.execute",), "serve_mixed"),
    "batcher.wait_ms_per_op": (("batcher.submit",), "serve_mixed"),
    "store.ingest_ms_per_op": (("store.ingest",), "ingest_durable"),
    "store.view_miss_ratio": (("store.sketch",), "serve_mixed"),
    "store.view_derive_ms_per_op": (("store.sketch",), "serve_mixed"),
    "store.view_payload_ms_per_op": (("store.view_payload",), "routed_read"),
    "seeds.hash_calls_per_op": (SEED_LAYERS, "serve_mixed"),
    "seeds.hash_ms_per_op": (SEED_LAYERS, "serve_mixed"),
    "sketches.build_ms_per_op": (SKETCH_LAYERS, "serve_mixed"),
    "wal.append_ms_per_op": (("wal.append",), "ingest_durable"),
    "wal.bytes_per_event": (("wal.append",), "ingest_durable"),
    "repl.ack_wait_p50_ms": (("repl.ack_wait",), "ingest_durable"),
    "repl.ack_wait_p95_ms": (("repl.ack_wait",), "ingest_durable"),
    "repl.degraded_ratio": (("repl.ack_wait",), "ingest_durable"),
    "repl.follower_cpu_ms_per_op": ((), None),
    "router.gather_ms_per_op": (("router.request",), "routed_read"),
    "router.view_unchanged_ratio": (("router.request",), "routed_read"),
    "router.fuse_ms_per_op": (("router.merge_views",), "routed_read"),
    "aggregates.similarity_ms_per_op": (
        ("aggregates.estimate",), "serve_mixed"),
    "engine.serving_ms_per_op": (
        ("engine.ht_sums", "engine.hip_counts"), "serve_mixed"),
    "engine.kernel_ms_per_op": (("engine.kernel",), "offline_reproduce"),
    **{
        f"experiments.E{n}_s": ((f"experiments.E{n}",), "offline_reproduce")
        for n in range(1, 12)
    },
    "core.lower_hull_ms_per_op": (("core.lower_hull",), "offline_reproduce"),
    "core.integration_ms_per_op": (INTEGRATION_LAYERS, "offline_reproduce"),
    "api.runner_overhead_ms_per_op": (("api.run_batch",), "offline_reproduce"),
    "tracing.overhead_ratio": ((), None),
}


class Spans:
    """The spans one process recorded, as NumPy columns."""

    def __init__(self, path: Optional[Path] = None) -> None:
        if path is None:  # a role that was not traced
            self.names, self.calls = [], {}
            self.name = self.parent = np.zeros(0, dtype=np.int32)
            self.start = self.end = self.cpu = self.count = np.zeros(0)
            self.flag = np.zeros(0, dtype=np.int8)
            return
        with np.load(path) as data:
            self.names: List[str] = json.loads(str(data["names"]))
            self.calls: Dict[str, int] = json.loads(str(data["calls"]))
            self.name = data["name"].copy()
            self.start = data["start"].copy()
            self.end = data["end"].copy()
            self.cpu = data["cpu"].copy()
            self.parent = data["parent"].copy()
            self.count = data["count"].copy()
            self.flag = data["flag"].copy()

    def __len__(self) -> int:
        return len(self.start)

    def mask(self, layers: Iterable[str]) -> np.ndarray:
        ids = [self.names.index(n) for n in layers if n in self.names]
        return np.isin(self.name, ids)

    def total(self, layers: Iterable[str]) -> float:
        """Seconds covered by the layers' spans.

        Synchronous spans of one thread only overlap by nesting, so the
        union of their intervals counts a recursive or nested call once;
        awaiting spans overlap across tasks and are summed.
        """
        layers = list(layers)
        awaiting = [n for n in layers if n in AWAITING]
        sync = [n for n in layers if n not in AWAITING]
        total = 0.0
        if awaiting:
            m = self.mask(awaiting)
            total += float((self.end[m] - self.start[m]).sum())
        if sync:
            m = self.mask(sync)
            total += union_length(zip(self.start[m], self.end[m]))
        return total

    def children_of(self, layers: Iterable[str]) -> np.ndarray:
        """Per span: does it have a child span (any layer)?"""
        has_child = np.zeros(len(self), dtype=bool)
        parents = self.parent[self.parent >= 0]
        has_child[parents] = True
        return has_child & self.mask(layers)

    def self_cpu(self) -> float:
        """Thread CPU seconds of synchronous spans, minus their children.

        A synchronous span's children run inside it on the same thread,
        so subtracting their CPU leaves the layer's own; the sum over
        all spans is then CPU that no two spans share.
        """
        sync = self.cpu >= 0
        nested = np.nonzero(sync & (self.parent >= 0))[0]
        nested = nested[self.cpu[self.parent[nested]] >= 0]
        child_cpu = np.zeros(len(self))
        np.add.at(child_cpu, self.parent[nested], self.cpu[nested])
        return float(np.clip(self.cpu[sync] - child_cpu[sync], 0, None).sum())

    def minus_children(self, layer: str, child: str) -> float:
        """Seconds of ``layer``'s spans not covered by ``child`` spans
        directly under them."""
        outer = np.nonzero(self.mask([layer]))[0]
        inner = np.nonzero(
            self.mask([child]) & np.isin(self.parent, outer)
        )[0]
        position = {int(index): i for i, index in enumerate(outer)}
        rows = list(outer) + list(inner)
        parents = [-1] * len(outer) + [
            position[int(self.parent[index])] for index in inner
        ]
        own = self_times(
            [self.start[i] for i in rows], [self.end[i] for i in rows], parents
        )
        return float(sum(own[: len(outer)]))


def span_cost_s() -> float:
    """CPU seconds one recorded span adds, measured on a no-op."""
    from tracing import Recorder, wrap

    def noop() -> None:
        return None

    recorder = Recorder()
    recorder.active = True
    wrapped = wrap(recorder, "calibration", noop)
    calls = 20_000
    start = time.process_time()
    for _ in range(calls):
        wrapped()
    traced = time.process_time() - start
    start = time.process_time()
    for _ in range(calls):
        noop()
    bare = time.process_time() - start
    return max(0.0, (traced - bare) / calls)


def per_layer(
    workload: str,
    roles: Mapping[str, Spans],
    server_role: Optional[str],
    ops: int,
    cpu: Mapping[str, float],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Fold the roles' spans into every per-layer metric.

    ``cpu`` holds each role's CPU seconds over the traced part of the
    window and ``extra`` the metrics measured outside the spans
    (``wal.bytes_per_event``, ``tracing.overhead_ratio``).  Raises when
    a wrapper that the metric table expects on this workload was never
    called.
    """
    if ops <= 0:
        raise ValueError("no op completed in the traced window")
    main = roles.get(server_role) or Spans()
    everyone = list(roles.values())

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    def total(layers: Sequence[str]) -> float:
        return sum(s.total(layers) for s in everyone)

    def calls(layers: Sequence[str]) -> int:
        return sum(s.calls.get(n, 0) for s in everyone for n in layers)

    metrics: Dict[str, float] = {}
    server_cpu = cpu.get(server_role, 0.0) if server_role else 0.0
    metrics["server.cpu_ms_per_op"] = ms(server_cpu)
    if server_role and server_role in roles:
        cost = span_cost_s()
        unattributed = server_cpu - main.self_cpu() - len(main) * cost
        metrics["server.unattributed_ms_per_op"] = ms(max(0.0, unattributed))
    else:
        metrics["server.unattributed_ms_per_op"] = 0.0

    metrics["events.decode_ms_per_op"] = ms(main.total(["events.decode"]))
    metrics["events.decoded_per_op"] = (
        float(main.mask(["events.decode"]).sum()) / ops
    )
    admits = main.mask(["admission.try_admit"])
    metrics["admission.shed_ratio"] = _ratio(
        (main.flag[admits] == 1).sum(), admits.sum()
    )

    executes = main.mask(["batcher.execute"])
    executed = float(main.count[executes].sum())
    metrics["batcher.requests_per_dispatch"] = _ratio(executed, executes.sum())
    metrics["batcher.execute_ms_per_op"] = ms(main.total(["batcher.execute"]))
    served = float(
        ((main.end - main.start)[executes] * main.count[executes]).sum()
    )
    metrics["batcher.wait_ms_per_op"] = ms(
        max(0.0, main.total(["batcher.submit"]) - served)
    )

    metrics["store.ingest_ms_per_op"] = ms(
        main.minus_children("store.ingest", "wal.append")
    )

    sketch_calls = 0
    misses = 0
    derive = 0.0
    for spans in everyone:
        views = spans.mask(["store.sketch"])
        missed = spans.children_of(["store.sketch"])
        sketch_calls += int(views.sum())
        misses += int(missed.sum())
        derive += union_length(zip(spans.start[missed], spans.end[missed]))
    metrics["store.view_miss_ratio"] = _ratio(misses, sketch_calls)
    metrics["store.view_derive_ms_per_op"] = ms(derive)
    metrics["store.view_payload_ms_per_op"] = ms(total(["store.view_payload"]))

    hashed = 0.0
    for spans in everyone:
        hashed += float(spans.count[spans.mask(["seeds.seeds_for"])].sum())
        hashed += float(spans.mask(["seeds.seed_for"]).sum())
    metrics["seeds.hash_calls_per_op"] = hashed / ops
    metrics["seeds.hash_ms_per_op"] = ms(total(SEED_LAYERS))
    metrics["sketches.build_ms_per_op"] = ms(total(SKETCH_LAYERS))

    metrics["wal.append_ms_per_op"] = ms(main.total(["wal.append"]))
    metrics["wal.bytes_per_event"] = float(extra.get("wal.bytes_per_event", 0.0))

    waits = main.mask(["repl.ack_wait"])
    wait_ms = list((main.end - main.start)[waits] * 1000.0)
    metrics["repl.ack_wait_p50_ms"] = median(wait_ms) if wait_ms else 0.0
    metrics["repl.ack_wait_p95_ms"] = tail(wait_ms, 95.0) if wait_ms else 0.0
    metrics["repl.degraded_ratio"] = _ratio(
        (main.flag[waits] == 1).sum(), waits.sum()
    )
    metrics["repl.follower_cpu_ms_per_op"] = ms(cpu.get("follower", 0.0))

    requests = main.mask(["router.request"]) & (main.flag != 2)
    metrics["router.gather_ms_per_op"] = ms(
        float((main.end - main.start)[requests].sum())
    )
    metrics["router.view_unchanged_ratio"] = _ratio(
        (main.flag[requests] == 1).sum(), requests.sum()
    )
    # The router's fused-store query runs outside any batcher window;
    # a server's queries all run inside one.
    top_queries = main.mask(["store.query"]) & (main.parent < 0)
    if not main.mask(["router.merge_views"]).any():
        top_queries[:] = False
    metrics["router.fuse_ms_per_op"] = ms(
        main.total(["router.merge_views"])
        + union_length(zip(main.start[top_queries], main.end[top_queries]))
    )

    metrics["aggregates.similarity_ms_per_op"] = ms(
        total(["aggregates.estimate"])
    )
    metrics["engine.serving_ms_per_op"] = ms(
        total(["engine.ht_sums", "engine.hip_counts"])
    )
    metrics["engine.kernel_ms_per_op"] = ms(total(["engine.kernel"]))
    for n in range(1, 12):
        metrics[f"experiments.E{n}_s"] = total([f"experiments.E{n}"]) / ops
    metrics["core.lower_hull_ms_per_op"] = ms(total(["core.lower_hull"]))
    metrics["core.integration_ms_per_op"] = ms(total(INTEGRATION_LAYERS))
    metrics["api.runner_overhead_ms_per_op"] = ms(
        max(0.0, total(["api.run_batch"]) - total(EXPERIMENT_LAYERS))
    )
    metrics["tracing.overhead_ratio"] = float(
        extra.get("tracing.overhead_ratio", 0.0)
    )

    idle = [
        name
        for name, (layers, expected_on) in METRICS.items()
        if expected_on == workload and layers and calls(layers) == 0
    ]
    if idle:
        raise RuntimeError(
            f"wrappers never fired on {workload} for: {', '.join(idle)}"
        )
    return metrics


def cpu_check(roles: Mapping[str, Spans], cpu: Mapping[str, float]) -> List[str]:
    """Roles whose wrapped self CPU exceeds the role's measured CPU.

    ``/proc`` counts CPU in clock ticks, so two ticks of slack are
    allowed.
    """
    problems = []
    for role, spans in roles.items():
        wrapped = spans.self_cpu()
        measured = cpu.get(role, 0.0)
        if wrapped > measured + 2.0 / CLOCK_TICKS:
            problems.append(
                f"{role}: wrapped self CPU {wrapped:.3f} s exceeds the "
                f"role's CPU {measured:.3f} s"
            )
    return problems


def _ratio(numerator, denominator) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
