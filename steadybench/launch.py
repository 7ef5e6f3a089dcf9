"""Start one program process for the benchmark, optionally traced.

    python3 launch.py [--spans FILE] serve ARGS...     # repro.serving.cli
    python3 launch.py [--spans FILE] routed --root DIR --k K --tau-star T
    python3 launch.py [--spans FILE] offline --seed N --seconds S [--setup-only]

With ``--spans`` the span wrappers of :mod:`tracing` are installed before
the program starts and the spans are written to ``FILE`` at exit.
Recording starts on ``SIGUSR1`` and stops on ``SIGUSR2``, so only spans
that start inside the benchmark's timed window are kept; the offline
mode switches recording itself, half-way through its window.

``routed`` hosts a :class:`~repro.serving.router.ShardRouter` and both of
its shard servers on one asyncio loop, so the routed topology takes one
core of a two-core host and the load generator the other.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from proc import peak_rss_mb  # noqa: E402
from tracing import Recorder, install  # noqa: E402

#: The experiments one offline pass reproduces.
EXPERIMENTS = [f"E{number}" for number in range(1, 12)]

#: Items of the offline L* estimate, and of its scalar cross-check.
OFFLINE_ITEMS = 1_000_000
SCALAR_CHECK_ITEMS = 2_000

#: L* estimates per pass.  One estimate takes about 0.35 s, short enough
#: for the host's own jitter to show; two per pass halve that.
ESTIMATES_PER_PASS = 2


def records_digest(results) -> str:
    """SHA-256 of every result's key, scale and records (no timings)."""
    payload = [
        {"key": r.key, "scale": r.scale, "records": [dict(x) for x in r.records]}
        for r in results
    ]
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_routed(args: argparse.Namespace) -> int:
    from repro.serving import ShardRouter, SketchServer, SketchStore, StoreConfig

    config = StoreConfig(k=args.k, tau_star=args.tau_star)

    async def run() -> None:
        stores = [
            SketchStore.open(Path(args.root) / f"shard{index}", config=config)
            for index in range(2)
        ]
        shards = [SketchServer(store) for store in stores]
        try:
            addresses = [await shard.start() for shard in shards]
            router = ShardRouter([[address] for address in addresses])
            host, port = await router.start()
            print(f"routing 2 shard(s) on {host}:{port}", flush=True)
            await router.serve_forever()
        finally:
            for shard in shards:
                await shard.stop()
            for store in stores:
                store.close()

    asyncio.run(run())
    return 0


def run_offline(args: argparse.Namespace, recorder: Optional[Recorder]) -> int:
    import numpy as np

    from repro.api import EstimationSession
    from repro.api.experiments import ExperimentRunner, resolve_spec
    from repro.datasets.synthetic import surname_pairs

    for key in EXPERIMENTS:
        resolve_spec(key)

    def session(backend: str) -> EstimationSession:
        return (
            EstimationSession([1.0, 1.0], backend=backend)
            .target("one_sided_range", p=1.0)
            .estimator("lstar_closed")
        )

    # Warm-up: one small estimate on each backend.
    small = surname_pairs(1_000, rng=np.random.default_rng(0), normalise_to=200.0)
    session("vectorized").estimate(small, rng=np.random.default_rng(0))
    session("scalar").estimate(small, rng=np.random.default_rng(0))
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    started = time.perf_counter()
    dataset = surname_pairs(
        OFFLINE_ITEMS,
        rng=np.random.default_rng(args.seed),
        normalise_to=OFFLINE_ITEMS / 5.0,
    )
    print(json.dumps({"inputs_s": time.perf_counter() - started}), flush=True)

    runner = ExperimentRunner(jobs=1, cost_model=False)
    engine = session("auto")
    window_start = time.perf_counter()
    trace_from = window_start + args.seconds / 2.0
    number = 0
    traced_passes = 0
    # A traced run needs at least one pass on each side of ``trace_from``
    # for tracing.overhead_ratio, however short the window.
    while time.perf_counter() < window_start + args.seconds or (
        recorder is not None and traced_passes == 0
    ):
        if recorder is not None:
            recorder.active = number > 0 and time.perf_counter() >= trace_from
        traced = recorder is not None and recorder.active
        traced_passes += traced
        cpu_start = time.process_time()
        start = time.perf_counter()
        batch = runner.run_batch(EXPERIMENTS, scale="full")
        middle = time.perf_counter()
        results = [
            engine.estimate(
                dataset,
                rng=np.random.default_rng(
                    [args.seed, number * ESTIMATES_PER_PASS + repeat]
                ),
            )
            for repeat in range(ESTIMATES_PER_PASS)
        ]
        end = time.perf_counter()
        if not batch.ok:
            raise RuntimeError(f"experiments failed: {batch.failures}")
        print(
            json.dumps(
                {
                    "pass": number,
                    "start": start,
                    "end": end,
                    "reproduce_s": middle - start,
                    "estimate_s": end - middle,
                    "items": sum(r.items_seen for r in results),
                    "values": [r.value for r in results],
                    "cpu_s": time.process_time() - cpu_start,
                    "traced": traced,
                    "digest": records_digest(batch.results),
                }
            ),
            flush=True,
        )
        number += 1
    if recorder is not None:
        recorder.active = False

    # The engine's L* total against the scalar reference on a sub-sample.
    sub = dataset.restrict(dataset.items[:SCALAR_CHECK_ITEMS])
    fast = session("vectorized").estimate(sub, rng=np.random.default_rng(1))
    slow = session("scalar").estimate(sub, rng=np.random.default_rng(1))
    print(
        json.dumps(
            {
                "done": True,
                "scalar_check": [fast.value, slow.value],
                "peak_rss_mb": peak_rss_mb(os.getpid()),
            }
        ),
        flush=True,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spans = None
    if argv[:1] == ["--spans"]:
        spans = argv[1]
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    recorder = None
    if spans is not None:
        recorder = Recorder()
        install(recorder)

        def start(signum, frame) -> None:
            recorder.active = True

        def stop(signum, frame) -> None:
            recorder.active = False

        signal.signal(signal.SIGUSR1, start)
        signal.signal(signal.SIGUSR2, stop)
    try:
        if mode == "serve":
            from repro.serving.cli import main as cli_main

            return cli_main(["serve", *rest])
        parser = argparse.ArgumentParser(prog=f"launch.py {mode}")
        if mode == "routed":
            parser.add_argument("--root", required=True)
            parser.add_argument("--k", type=int, required=True)
            parser.add_argument("--tau-star", type=float, required=True)
            return run_routed(parser.parse_args(rest))
        if mode == "offline":
            parser.add_argument("--seed", type=int, required=True)
            parser.add_argument("--seconds", type=float, required=True)
            parser.add_argument("--setup-only", action="store_true")
            return run_offline(parser.parse_args(rest), recorder)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if recorder is not None:
            recorder.active = False
            recorder.dump(spans)
            sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
