"""The append-only event feed a :class:`~repro.serving.store.SketchStore` ingests.

An event is the serving layer's unit of input: item ``key`` gained
``weight`` at ``timestamp`` within ``group`` (one group per sketch, e.g.
one per user or per metric).  Feeds are JSON-lines files — one event per
line — which keeps them appendable, greppable, and streamable.

:func:`shard_events` routes events to shards *by key*, not round-robin.
That choice is what makes distributed ingestion bit-reproducible: all of
a key's weight accumulates on a single shard in arrival order, so the
shard-then-merge ledger holds exactly the floats a single-pass ingest
would hold (float addition is not associative, so splitting one key's
events across shards would only agree up to rounding).  The mergeability
property suite relies on this.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Union

import numpy as np

from ..core.seeds import hash_to_unit

__all__ = [
    "Event",
    "read_events",
    "shard_events",
    "synthetic_feed",
    "write_events",
]

#: Salt mixed into the key hash used for shard routing, kept distinct
#: from the sampling salt so routing never correlates with inclusion.
ROUTING_SALT = "serving-shard-router"


@dataclass(frozen=True)
class Event:
    """One feed record: ``key`` gained ``weight`` at ``timestamp`` in ``group``."""

    key: str
    weight: float
    timestamp: float
    group: str = "default"

    def __post_init__(self) -> None:
        # The one domain check every feed, wire, log and replication
        # path passes through: the paper's weights are finite and
        # nonnegative.  NaN fails every comparison.
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(
                f"event weight must be finite and nonnegative, "
                f"got {self.weight!r}"
            )
        if not -math.inf < self.timestamp < math.inf:
            raise ValueError(
                f"event timestamp must be finite, got {self.timestamp!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The event's JSON-line payload."""
        return {
            "key": self.key,
            "weight": self.weight,
            "timestamp": self.timestamp,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            key=str(payload["key"]),
            weight=float(payload["weight"]),
            timestamp=float(payload["timestamp"]),
            group=str(payload.get("group", "default")),
        )


def write_events(path: Union[str, os.PathLike], events: Iterable[Event]) -> Path:
    """Write a feed file: one JSON event per line.

    Parameters
    ----------
    path:
        Destination ``.jsonl`` file (parent directories are created).
    events:
        The events, written in iteration order.

    Returns
    -------
    Path
        The written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return path


def read_events(path: Union[str, os.PathLike]) -> Iterator[Event]:
    """Iterate a feed file's events in order.

    Blank lines are skipped; a malformed line raises :class:`ValueError`
    (feed files are complete documents — torn-write tolerance belongs to
    the write-ahead log in :mod:`repro.serving.persistence`).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                event = Event.from_dict(json.loads(line))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed feed line: {exc}"
                ) from None
            yield event


def shard_events(
    events: Iterable[Event], num_shards: int, salt: str = ROUTING_SALT
) -> List[List[Event]]:
    """Split a feed into key-routed shards.

    Every event of a given ``(group, key)`` pair lands on the same shard
    (a deterministic hash route), and within a shard events keep their
    arrival order.  Ingesting the shards into separate stores and merging
    them therefore reproduces the single-pass ledger bit for bit — the
    guarantee ``tests/serving/test_merge_properties.py`` enforces.

    Parameters
    ----------
    events:
        The feed, in arrival order.
    num_shards:
        Number of shards (positive).
    salt:
        Routing-hash salt; change it to re-balance without touching the
        sampling seeds.

    Returns
    -------
    list of list of Event
        ``num_shards`` sub-feeds, order-preserving within each.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    shards: List[List[Event]] = [[] for _ in range(num_shards)]
    for event in events:
        route = hash_to_unit(f"{event.group}\x00{event.key}", salt)
        index = min(num_shards - 1, int(route * num_shards))
        shards[index].append(event)
    return shards


def synthetic_feed(
    num_events: int,
    num_keys: int = 100,
    groups: Sequence[str] = ("default",),
    seed: int = 0,
    start: float = 0.0,
    step: float = 1.0,
) -> List[Event]:
    """A deterministic synthetic feed for tests, demos, and benchmarks.

    Keys are drawn Zipf-like (a few heavy hitters, a long tail of rare
    keys), weights are log-normal, timestamps increase by ``step`` per
    event, and groups rotate pseudo-randomly — a caricature of the
    per-user activity feeds the paper's deployments summarise.  The same
    arguments always produce the same feed.

    Parameters
    ----------
    num_events:
        Feed length.
    num_keys:
        Size of the key universe (``k000``...).
    groups:
        Group names to rotate through.
    seed:
        Generator seed; the feed is a pure function of all arguments.
    start, step:
        Timestamp of the first event and the increment per event.

    Returns
    -------
    list of Event
        The feed, in timestamp order.
    """
    if num_events < 0:
        raise ValueError("num_events must be nonnegative")
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    if not groups:
        raise ValueError("at least one group is required")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_keys + 1, dtype=float)
    probabilities = (1.0 / ranks) / np.sum(1.0 / ranks)
    key_ids = rng.choice(num_keys, size=num_events, p=probabilities)
    weights = rng.lognormal(mean=0.0, sigma=0.75, size=num_events)
    group_ids = rng.integers(0, len(groups), size=num_events)
    width = len(str(max(num_keys - 1, 1)))
    return [
        Event(
            key=f"k{int(key_ids[i]):0{width}d}",
            weight=float(weights[i]),
            timestamp=start + step * i,
            group=groups[int(group_ids[i])],
        )
        for i in range(num_events)
    ]
