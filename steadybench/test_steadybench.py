"""Tests for the benchmark's own arithmetic, and a smoke run per workload.

    python3 -m pytest steadybench -q

The arithmetic tests run in milliseconds on synthetic samples and spans.
The smoke tests start the real program for a two-second window each and
check that every named metric appears and every answer checks out.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_MS, HostProbe, trimmed_mean  # noqa: E402
from proc import MAIN, SIDE  # noqa: E402
from stats import (  # noqa: E402
    beyond,
    drift_ratio,
    failed_share,
    nearest_rank,
    self_times,
    tail,
    union_length,
)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_a_sample_never_an_interpolation():
    samples = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(samples, 50) == 50.0
    assert nearest_rank(samples, 99) == 99.0
    assert nearest_rank(samples, 100) == 100.0
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_tail_needs_ten_samples_beyond():
    samples = [float(v) for v in range(1, 1001)]  # 1000 samples
    assert beyond(1000, 99) == 10
    assert tail(samples, 99) == 990.0
    assert beyond(999, 99) == 9
    assert math.isnan(tail(samples[:999], 99))


def test_tail_keeps_its_percentile_and_never_steps_down():
    samples = [float(v) for v in range(1, 201)]
    assert tail(samples, 95) == 190.0
    assert math.isnan(tail(samples, 99))
    assert math.isnan(tail([5.0, 1.0, 9.0], 50))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    # parent [0, 10) with children [1, 3) and [5, 6)
    own = self_times([0.0, 1.0, 5.0], [10.0, 3.0, 6.0], [-1, 0, 0])
    assert own == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # two concurrent children [2, 6) and [4, 8) under one awaiting parent
    own = self_times([0.0, 2.0, 4.0], [10.0, 6.0, 8.0], [-1, 0, 0])
    assert own[0] == pytest.approx(4.0)


def test_self_time_clips_children_that_outlive_the_parent():
    own = self_times([0.0, 3.0], [5.0, 9.0], [-1, 0])
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(6.0)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


# ----------------------------------------------------------------------
# Shares and drift
# ----------------------------------------------------------------------
def test_failed_share():
    assert failed_share(200, 0) == 0.0
    assert failed_share(200, 3) == pytest.approx(0.015)
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(10, 11)


def test_drift_ratio_of_a_steady_window_is_one():
    completions = [i * 0.01 for i in range(900)]
    assert drift_ratio(completions, 0.0, 9.0) == pytest.approx(1.0, abs=0.01)


def test_drift_ratio_rises_when_ops_slow_down():
    # 300 ops in the first third, 150 in the last: per-op time doubled
    first = [i * 0.01 for i in range(300)]
    middle = [3.0 + i * 0.015 for i in range(200)]
    last = [6.0 + i * 0.02 for i in range(150)]
    assert drift_ratio(first + middle + last, 0.0, 9.0) == pytest.approx(2.0)


def test_drift_ratio_without_ops_in_a_third_is_nan():
    assert math.isnan(drift_ratio([0.5], 0.0, 9.0))


# ----------------------------------------------------------------------
# Host probe
# ----------------------------------------------------------------------
def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [1.0] * 18 + [0.0, 100.0]
    assert trimmed_mean(values) == 1.0
    assert trimmed_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_probe_times_each_core_on_the_shared_clock(tmp_path):
    import time

    probe = HostProbe(tmp_path, sorted({MAIN, SIDE}))
    start = time.perf_counter()
    time.sleep(0.5)
    end = time.perf_counter()
    probe.stop()
    for cpu in (MAIN, SIDE):
        inside = [s for s in probe.samples[cpu] if start <= s[0] < end]
        assert len(inside) >= 5
    main, side = probe.ms(start, end, MAIN), probe.ms(start, end, SIDE)
    assert main > 0 and side > 0
    assert probe.scale(start, end, {MAIN: 1.0}) == pytest.approx(
        REFERENCE_MS / main
    )
    # weighted by CPU seconds per core, zero weights ignored
    assert probe.scale(start, end, {MAIN: 3.0, SIDE: 1.0}) == pytest.approx(
        REFERENCE_MS / ((3.0 * main + side) / 4.0)
    )
    assert 0.0 <= probe.steal(start, end, MAIN) < 1.0


def test_probe_divides_by_the_unstolen_share():
    probe = HostProbe.__new__(HostProbe)
    # five 1 ms chunks; 40 of the core's 200 busy jiffies were stolen
    probe.samples = {
        0: [(t, 1.0, 10 + 10 * t, 100 + 50 * t) for t in range(5)]
    }
    assert probe.steal(0, 5, 0) == pytest.approx(0.2)
    assert probe.ms(0, 5, 0) == pytest.approx(1.0 / 0.8)
    assert probe.steal(0, 1, 0) == 0.0  # one chunk: no interval to measure



# ----------------------------------------------------------------------
# Smoke runs: every named metric appears and every answer checks out
# ----------------------------------------------------------------------
NAMED = {
    "ingest_durable": [
        "ingest_events_per_s", "ingest_ack_p50_ms", "ingest_ack_p95_ms"],
    "serve_mixed": [
        "reads_per_s", "read_p50_ms", "read_p99_ms", "similarity_p50_ms"],
    "routed_read": ["reads_per_s", "read_p50_ms", "read_p95_ms"],
    "offline_reproduce": ["reproduce_s", "estimate_items_per_s"],
}
SHARED = ["setup_s", "peak_rss_mb", "failed_share"]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=str(HERE.parent),
    )


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_smoke_untraced_run_prints_every_metric(workload):
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = _run(workload, 0)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    gated = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = " ".join(lines[:-1])
    for name in SHARED + NAMED[workload]:
        assert f"{workload} {name} = " in printed
    assert "loadgen.cpu_share" in printed and "host.calib_ms" in printed


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_smoke_traced_run_prints_every_layer_metric(workload):
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    done = _run(workload, 1)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    names = {m["name"] for m in benchmark["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["tracing.overhead_ratio"]["value"] > 0
