"""The benchmark's arithmetic: percentiles, span self time, shares, drift.

Pure functions over plain numbers, so ``test_steadybench.py`` can pin each one
on synthetic samples and spans without starting a process.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A latency percentile is reported only when at least this many samples
#: lie beyond it; below that a single slow sample would decide it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The value at rank ``ceil(q / 100 * n)`` of the sorted samples: always
    one of the samples, never an interpolation between two.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} is outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile, or NaN when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if beyond(len(samples), q) < MIN_BEYOND:
        return math.nan
    return nearest_rank(samples, q)


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (one of the samples)."""
    return nearest_rank(samples, 50.0)


def failed_share(attempted: int, failed: int) -> float:
    """Failed, shed, refused or non-durable ops per op attempted."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def drift_ratio(
    completions: Sequence[float], start: float, end: float
) -> float:
    """Per-op time of the window's last third over its first third.

    ``completions`` are the times ops completed in ``[start, end)``.  A
    stationary workload reads about 1; a ledger that grows under the
    reads, or a warm-up that leaks into the window, reads above 1.
    """
    if end <= start:
        raise ValueError("empty window")
    third = (end - start) / 3.0
    first = sum(1 for t in completions if start <= t < start + third)
    last = sum(1 for t in completions if end - third <= t < end)
    if first == 0 or last == 0:
        return math.nan
    return first / last


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if current_start is None or lo > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = lo, hi
        elif hi > current_end:
            current_end = hi
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> List[float]:
    """Each span's duration minus the part its child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``.
    Children may overlap one another (concurrent tasks under one
    awaiting parent) and may outlive the parent; only their union inside
    the parent's own interval is taken away, so a self time is never
    negative and never counts one instant twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(
                (starts[index], ends[index])
            )
    result = []
    for index, (lo, hi) in enumerate(zip(starts, ends)):
        covered = union_length(
            (max(lo, c_lo), min(hi, c_hi))
            for c_lo, c_hi in children.get(index, ())
        )
        result.append((hi - lo) - covered)
    return result
