"""Key-partitioned shard router: one protocol front-end, many primaries.

:class:`ShardRouter` speaks the same JSON-lines protocol as
:class:`~repro.serving.server.SketchServer` (it extends the same
:class:`~repro.serving.server.JSONLinesServer` shell), but owns no
store.  Behind it sit *shards* — independent primaries, each optionally
trailed by its own follower chain — and the router's job is to make
them answer as one store:

* **Ingest routing** — every batch is split with the same key-routed
  hash the merge suite pins
  (:func:`~repro.serving.events.shard_events`): a ``(group, key)`` pair
  always lands on the same shard, so each key's accumulated weight
  lives in exactly one place.  Sub-batches ship to their shards
  concurrently; the acknowledgement carries the per-shard watermark
  vector and their sum as the routed watermark.
* **Scatter-gather queries** — ``sum``/``distinct``/``similarity`` are
  answered by gathering each shard's *serialized sketch views*
  (``shard_view`` responses), fusing them per group with
  :func:`~repro.serving.store.merge_sketch_views`, and running the
  fused groups through the identical
  :meth:`~repro.serving.store.SketchStore.query` code path.  Because
  coordinated sketches over disjoint key populations merge exactly,
  routed answers are **bit-identical** to an unsharded store at the
  same watermark cut — the property suite pins ``==``, not ``approx``.
  Partial scalar answers are deliberately *not* summed router-side:
  floating-point reduction order would differ from the unsharded
  engine dispatch and break bit-identity.
* **View and fused caches** — each slot caches the serialized sketch
  of every ``(group, kind)`` *unit* it has fetched (and, for
  default-selection queries, the shard's group list), tagged with the
  shard's ``(offset, watermark)`` mutation cut.  When every unit a query
  needs from a shard is cached at one common tag, the router sends that
  tag and the shard answers a bare ``unchanged``; otherwise it fetches
  the selection afresh, and a unit whose tag did not move keeps its
  cached object.  The router in turn caches each group's *fused*
  sketches, keyed by the per-shard unit objects they were built from: a
  fused sketch is rebuilt only when one of its parts changed, and then
  only its own derived reduction arrays are dropped.  So a read on an
  unchanged cut fuses nothing, and a group is fused once per change of
  a shard's cut.  A re-target clears the slot's units *and* every fused
  group: a promoted or fallback endpoint can repeat the old endpoint's
  tag with different content.  Each cache holds at most
  ``_CACHE_ENTRIES`` entries, oldest evicted first.
* **Failover** — each shard slot is an ordered endpoint chain
  (primary first, then followers).  When the current target dies, the
  router re-scans the chain: a writable survivor wins in chain order;
  otherwise the **most-advanced** read-only survivor (highest applied
  watermark) is asked to ``promote`` (see
  :mod:`repro.serving.promotion`).  Picking by watermark matters under
  synchronous-ack replication: followers apply contiguous prefixes of
  one primary's stream, so their histories are totally ordered and the
  max-watermark survivor holds every batch *any* follower acked —
  promoting it can never lose a ``durable: true`` batch even when the
  quorum was smaller than the follower count.  The shard's remaining
  followers detect the promoted primary's offset discontinuity through
  the watermark cross-check already in ``repl_subscribe`` and
  re-bootstrap.  When every endpoint of a shard is down, routed
  requests answer ``{"ok": false, "shard_unavailable": true,
  "retry_after": ...}`` — the typed unavailability
  :class:`~repro.serving.server.ServingClient` retries for idempotent
  operations and surfaces as
  :class:`~repro.serving.server.ShardUnavailable` for mutating ones.
* **Durability propagation** — when shards run in synchronous-ack mode
  their ingest replies carry ``durable``; the routed acknowledgement
  reports the *weakest* shard's verdict (``durable: true`` only when
  every contacted shard confirmed its quorum; a shard that reported
  nothing — asynchronous mode — counts as not confirmed).  A routed
  batch is only as durable as its least-replicated sub-batch.

Watermark semantics: every routed answer carries ``watermarks`` — the
per-shard vector — and ``watermark``, their sum.  Each shard's view is
internally consistent (one mutation cut per shard, tagged by its
replication offset *and* event watermark, so eviction-only mutations
invalidate too); under concurrent ingest the vector is the cut the
answer describes, and a quiesced router answers at the exact global
cut, which is what the parity suites compare against.

The router is deliberately store-less and almost stateless: shard
watermarks and cached views are reconstructed from shard responses, so
a router restart needs no recovery protocol.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import ROUTING_SALT, Event, shard_events
from .metrics import MetricsRegistry
from .resilience import RetryPolicy
from .server import (
    DEFAULT_LINE_LIMIT,
    ConnectionLost,
    JSONLinesServer,
    Overloaded,
    ServingClient,
    ServingError,
    ShardUnavailable,
    check_group_selection,
)
from .store import GroupState, SketchStore, StoreConfig, merge_sketch_views

__all__ = ["ShardRouter", "ShardSlot"]

#: Sketch kinds each routed query kind gathers from the shards.
_QUERY_VIEW_KINDS = {
    "sum": ("pps",),
    "similarity": ("pps",),
    "distinct": ("ads",),
}

#: Cap on each slot's cached ``(group, kind)`` units and on the router's
#: fused groups; a mix reading both kinds of up to 31 groups fits.
_CACHE_ENTRIES = 64


def _put(cache: Dict[Any, Any], key: Any, value: Any) -> None:
    """Insert into a bounded cache, evicting the oldest entry if full."""
    if key not in cache and len(cache) >= _CACHE_ENTRIES:
        cache.pop(next(iter(cache)))
    cache[key] = value


class ShardSlot:
    """One shard's routing state: endpoint chain, live client, watermark.

    ``endpoints[0]`` is the preferred primary; the rest are fallbacks
    (typically the shard's followers) scanned in order on failure.  A
    successful failover rotates the winning endpoint to the front, so
    subsequent reconnects try the promoted primary first.
    """

    def __init__(
        self, index: int, endpoints: Sequence[Tuple[str, int]]
    ) -> None:
        if not endpoints:
            raise ValueError(f"shard {index} has no endpoints")
        self.index = int(index)
        self.endpoints: List[Tuple[str, int]] = [
            (str(host), int(port)) for host, port in endpoints
        ]
        self.client: Optional[ServingClient] = None
        self.watermark = 0
        self.failovers = 0
        #: ``(group, kind) -> (tag, serialized sketch or None)`` where the
        #: shard lacks the group, plus ``None -> (tag, group names)``: the
        #: shard's group list.  ``tag`` is ``(offset, watermark)``.
        self.units: Dict[Any, Tuple[Tuple[int, int], Any]] = {}
        self.lock = asyncio.Lock()

    def invalidate_views(self) -> None:
        """Drop cached units (after re-targeting to a different server).

        Within one primary the ``(offset, watermark)`` tag identifies
        the mutation cut exactly, but a *promoted* primary restarts
        offsets from 0, so a tag could collide across servers.  The
        cache is replaced, not cleared, so a fetch in flight across the
        re-target can tell that its units belong to the old server.
        """
        self.units = {}

    def cached_cut(
        self, groups: Optional[Sequence[str]], kinds: Sequence[str]
    ) -> Optional[Tuple[Tuple[int, int], List[str], Dict[Tuple, Any]]]:
        """``(tag, groups, parts)`` if the selection is cached at one tag.

        ``groups=None`` selects the shard's cached group list.  Returns
        ``None`` when any unit is missing or the units disagree on the
        tag; the caller must then fetch the selection afresh.
        """
        entries = []
        if groups is None:
            listing = self.units.get(None)
            if listing is None:
                return None
            entries.append(listing)
            groups = listing[1]
        units = [(group, kind) for group in groups for kind in kinds]
        entries += [self.units.get(unit) for unit in units]
        if not entries or None in entries:
            return None
        tag = entries[0][0]
        if any(entry[0] != tag for entry in entries):
            return None
        parts = {unit: self.units[unit][1] for unit in units}
        return tag, list(groups), parts

    def remember(
        self,
        tag: Tuple[int, int],
        parts: Dict[Tuple, Any],
        listing: Optional[List[str]],
    ) -> None:
        """Cache freshly fetched units at ``tag``.

        A unit already cached at ``tag`` keeps its cached object, and
        ``parts`` is pointed at it: the fused cache recognises unchanged
        parts by identity.
        """
        for unit, payload in parts.items():
            prior = self.units.get(unit)
            if prior is not None and prior[0] == tag:
                parts[unit] = prior[1]
            else:
                _put(self.units, unit, (tag, payload))
        if listing is not None:
            _put(self.units, None, (tag, listing))

    def describe(self) -> Dict[str, Any]:
        """The slot's entry in the router's ``info`` payload."""
        return {
            "index": self.index,
            "primary": (
                None
                if self.client is None
                else f"{self.endpoints[0][0]}:{self.endpoints[0][1]}"
            ),
            "endpoints": [f"{host}:{port}" for host, port in self.endpoints],
            "watermark": self.watermark,
            "failovers": self.failovers,
        }


class ShardRouter(JSONLinesServer):
    """Route the serving protocol across key-partitioned shard primaries.

    Parameters
    ----------
    shards:
        One endpoint chain per shard: each entry is a sequence of
        ``(host, port)`` pairs, preferred primary first.  The shard
        *count and order* define the key partition — they must match
        across router restarts (and match the
        :func:`~repro.serving.events.shard_events` split used for any
        offline pre-sharding).
    host, port:
        Router bind address; port ``0`` picks a free port.
    metrics:
        Registry for the router's own series (``router_*`` plus the
        shared ``serving_requests_total`` family from the protocol
        shell); a fresh registry by default.
    salt:
        Routing-hash salt; leave at the default so offline
        ``shard_events`` splits agree with the router.
    retry_after:
        The backoff hint (seconds) carried by ``shard_unavailable``
        responses.
    backoff:
        Base reconnect backoff for the router's shard clients.
        Shorthand for the default ``retry`` policy.
    retry:
        A :class:`~repro.serving.resilience.RetryPolicy` governing how
        many times a routed request re-targets and re-sends (its
        ``max_retries``) and the pause between attempts; overrides the
        ``backoff`` shorthand.
    health_interval:
        Seconds between background health sweeps (ping every shard,
        re-target on failure); ``None`` disables the sweep — failures
        are then only detected on routed traffic.
    line_limit:
        Per-request line cap in bytes.
    """

    def __init__(
        self,
        shards: Sequence[Sequence[Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        metrics: Optional[MetricsRegistry] = None,
        salt: str = ROUTING_SALT,
        retry_after: float = 0.25,
        backoff: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        health_interval: Optional[float] = None,
        line_limit: int = DEFAULT_LINE_LIMIT,
    ) -> None:
        if not shards:
            raise ValueError("the router needs at least one shard")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if health_interval is not None and health_interval <= 0:
            raise ValueError("health_interval must be positive")
        super().__init__(host, port, metrics=metrics, line_limit=line_limit)
        self._slots = [
            ShardSlot(index, endpoints)
            for index, endpoints in enumerate(shards)
        ]
        self._salt = str(salt)
        self._retry_after = float(retry_after)
        self._backoff = float(backoff)
        self._retry = (
            retry
            if retry is not None
            else RetryPolicy(max_retries=1, base=backoff)
        )
        self._health_interval = health_interval
        self._config: Optional[StoreConfig] = None
        self._health_task: Optional[asyncio.Task] = None
        #: ``group -> (fused state, {kind: per-slot parts it was fused
        #: from})``.
        self._fused: Dict[str, Tuple[GroupState, Dict[str, Tuple]]] = {}

    @property
    def slots(self) -> List[ShardSlot]:
        """The shard slots, in partition order."""
        return self._slots

    @property
    def config(self) -> Optional[StoreConfig]:
        """The shards' shared store config (pinned at first contact)."""
        return self._config

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _post_start(self) -> None:
        """Contact every shard, pin the shared config, start health sweeps."""
        for slot in self._slots:
            await self._retarget(slot)
        if self._health_interval is not None:
            self._health_task = asyncio.create_task(self._health_loop())

    async def _pre_close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for slot in self._slots:
            if slot.client is not None:
                await slot.client.close()
                slot.client = None

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for slot in self._slots:
                try:
                    await self._shard_request(slot, "ping")
                except ServingError:
                    # Unreachable through every endpoint right now; the
                    # unavailability counter is already bumped, and the
                    # next sweep (or routed request) re-scans the chain.
                    continue

    # ------------------------------------------------------------------
    # Shard targeting
    # ------------------------------------------------------------------
    async def _retarget(self, slot: ShardSlot) -> None:
        """(Re)connect ``slot`` to the best serving endpoint of its chain.

        Probes the whole chain: a *writable* endpoint wins in chain
        order; with none, the **most-advanced** read-only survivor
        (highest applied watermark, chain order breaking ties) is asked
        to ``promote``.  Followers apply contiguous prefixes of one
        primary's stream, so the max-watermark survivor's ledger
        contains every other survivor's — promoting it preserves every
        batch any follower acked, which is what makes a sync-ack quorum
        smaller than the follower count safe across failover.  The
        winner is rotated to the front of the chain.  Raises
        :class:`~repro.serving.server.ShardUnavailable` when no
        endpoint serves.
        """
        if slot.client is not None:
            await slot.client.close()
            slot.client = None
        was_primary = slot.endpoints[0]
        #: ``(-watermark, position, host, port, client)`` promotion
        #: candidates — sortable so the most-advanced survivor leads.
        candidates: List[Tuple[int, int, str, int, ServingClient]] = []
        chosen: Optional[Tuple[int, ServingClient, Dict[str, Any]]] = None
        try:
            for position, (host, port) in enumerate(list(slot.endpoints)):
                client: Optional[ServingClient] = None
                try:
                    client = await ServingClient.connect(
                        host, port, max_retries=0, backoff=self._backoff
                    )
                    info = await client.info()
                except (ConnectionError, OSError, ServingError):
                    if client is not None:
                        await client.close()
                    continue
                if info.get("read_only"):
                    candidates.append(
                        (
                            -int(info.get("events_ingested", 0)),
                            position,
                            host,
                            port,
                            client,
                        )
                    )
                    continue
                chosen = (position, client, info)
                break
            if chosen is None:
                for _, position, host, port, client in sorted(
                    candidates, key=lambda item: item[:2]
                ):
                    try:
                        promoted = await client.request("promote")
                        info = await client.info()
                        if info.get("read_only"):
                            # Promotion did not take (raced a
                            # demotion?) — a read-only target cannot
                            # own the shard.
                            raise ServingError("endpoint stayed read-only")
                    except (ConnectionError, OSError, ServingError):
                        await client.close()
                        continue
                    if promoted.get("promoted"):
                        self._metrics.counter(
                            "router_promotions_total",
                            help="followers promoted to shard primary",
                            shard=str(slot.index),
                        ).inc()
                    chosen = (position, client, info)
                    break
        finally:
            for _, _, _, _, client in candidates:
                if chosen is None or client is not chosen[1]:
                    await client.close()
        if chosen is None:
            raise ShardUnavailable(
                f"shard {slot.index} is unavailable: no endpoint of "
                + ", ".join(
                    f"{host}:{port}" for host, port in slot.endpoints
                )
                + " is serving",
                self._retry_after,
            )
        position, client, info = chosen
        config = StoreConfig.from_dict(info["config"])
        if self._config is None:
            self._config = config
        elif config != self._config:
            await client.close()
            host, port = slot.endpoints[position]
            raise ValueError(
                f"shard {slot.index} endpoint {host}:{port} serves "
                f"config {config}, but the router pinned "
                f"{self._config}; shards must share one config"
            )
        if position:
            slot.endpoints.insert(0, slot.endpoints.pop(position))
        slot.client = client
        slot.watermark = int(info.get("events_ingested", slot.watermark))
        slot.invalidate_views()
        # Every fused group holds a part of every slot.
        self._fused.clear()
        if slot.endpoints[0] != was_primary:
            slot.failovers += 1
            self._metrics.counter(
                "router_failovers_total",
                help="shard slots re-targeted to a different endpoint",
                shard=str(slot.index),
            ).inc()

    async def _shard_request(
        self, slot: ShardSlot, op: str, **fields: Any
    ) -> Dict[str, Any]:
        """One request to a shard, re-targeting between policy retries.

        A connection drop triggers a chain re-scan (which may promote a
        follower), a policy backoff pause, and a re-send — up to the
        retry policy's ``max_retries``.  Note the re-send makes routed
        ``ingest`` *at-least-once* across failover: a primary that died
        after applying but before acknowledging leaves the re-sent
        sub-batch double-applied on its successor — see the promotion
        runbook in the docs for when that window exists.
        """
        attempt = 0
        while True:
            if slot.client is None:
                async with slot.lock:
                    if slot.client is None:
                        await self._retarget(slot)
            client = slot.client
            self._metrics.counter(
                "router_shard_requests_total",
                help="requests routed to shards, by shard and operation",
                shard=str(slot.index),
                op=op,
            ).inc()
            try:
                return await client.request(op, **fields)
            except ConnectionLost:
                async with slot.lock:
                    if slot.client is client and client is not None:
                        await client.close()
                        slot.client = None
                attempt += 1
                if not self._retry.should_retry(attempt):
                    raise ShardUnavailable(
                        f"shard {slot.index} dropped the connection "
                        f"{attempt + 1} times",
                        self._retry_after,
                    )
                await self._retry.pause(attempt)

    # ------------------------------------------------------------------
    # Routed operations
    # ------------------------------------------------------------------
    def _watermark_fields(self) -> Dict[str, Any]:
        vector = [slot.watermark for slot in self._slots]
        return {"watermark": sum(vector), "watermarks": vector}

    async def _ingest_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        events = [
            Event.from_dict(entry) for entry in payload.get("events", [])
        ]
        snapshot = bool(payload.get("snapshot"))
        batches = shard_events(events, len(self._slots), salt=self._salt)
        work = [
            (slot, batch)
            for slot, batch in zip(self._slots, batches)
            if batch
        ]

        async def send(slot: ShardSlot, batch: List[Event]):
            return await self._shard_request(
                slot,
                "ingest",
                events=[event.to_dict() for event in batch],
                snapshot=snapshot,
            )

        results = await asyncio.gather(
            *(send(slot, batch) for slot, batch in work),
            return_exceptions=True,
        )
        ingested = 0
        error: Optional[BaseException] = None
        durables: List[Optional[bool]] = []
        for (slot, batch), result in zip(work, results):
            if isinstance(result, BaseException):
                error = error if error is not None else result
                continue
            ingested += int(result["ingested"])
            slot.watermark = int(result["watermark"])
            durables.append(result.get("durable"))
            self._metrics.counter(
                "router_routed_events_total",
                help="feed events routed to shards, by shard",
                shard=str(slot.index),
            ).inc(len(batch))
        if error is not None:
            # Healthy shards above already applied and had their
            # watermarks advanced — routed ingest is per-shard atomic,
            # not transactional across shards.
            raise error
        response = {
            "ok": True,
            "ingested": ingested,
            **self._watermark_fields(),
        }
        if any(flag is not None for flag in durables):
            # The weakest shard's verdict: a routed batch is only as
            # durable as its least-replicated sub-batch, and a shard
            # that reported nothing (asynchronous mode) confirmed
            # nothing.
            response["durable"] = all(bool(flag) for flag in durables)
        return response

    async def _shard_parts(
        self,
        slot: ShardSlot,
        groups: Optional[Sequence[str]],
        kinds: Sequence[str],
    ) -> Tuple[List[str], Dict[Tuple, Any]]:
        """One shard's serialized sketches for a query, through its units.

        Returns the groups the shard holds (for ``groups=None``) and
        ``{(group, kind): serialized sketch or None}``.
        """
        while True:
            units = slot.units
            cut = slot.cached_cut(groups, kinds)
            fields: Dict[str, Any] = {"kinds": list(kinds)}
            if groups is not None:
                fields["groups"] = list(groups)
            if cut is not None:
                fields["since_offset"], fields["since_watermark"] = cut[0]
            response = await self._shard_request(slot, "shard_view", **fields)
            slot.watermark = int(response["watermark"])
            if not response.get("unchanged"):
                break
            if slot.units is units:
                self._metrics.counter(
                    "router_view_cache_hits_total",
                    help="shard view fetches answered unchanged, by shard",
                    shard=str(slot.index),
                ).inc()
                return cut[1], cut[2]
            # Re-targeted in flight: the new server may repeat the old
            # one's tag with different content, so ask again untagged.
        view = response["view"]["groups"]
        held = list(view) if groups is None else list(groups)
        parts = {
            (group, kind): view.get(group, {}).get(kind)
            for group in held
            for kind in kinds
        }
        if slot.units is units:
            slot.remember(
                (int(response["offset"]), int(response["watermark"])),
                parts,
                held if groups is None else None,
            )
        return held, parts

    def _fused_group(
        self, group: str, kinds: Sequence[str], parts: Sequence[Dict]
    ) -> GroupState:
        """The group's fused sketches, re-fusing only changed kinds."""
        entry = self._fused.get(group)
        if entry is None:
            entry = (GroupState(), {})
            _put(self._fused, group, entry)
        state, sources = entry
        for kind in kinds:
            source = tuple(slot_parts.get((group, kind)) for slot_parts in parts)
            prior = sources.get(kind)
            if prior is not None and all(
                old is new for old, new in zip(prior, source)
            ):
                continue
            config = self._config.to_dict()
            fused = merge_sketch_views(
                self._config,
                [
                    {
                        "config": config,
                        "watermark": 0,
                        "groups": {group: {kind: payload}},
                    }
                    for payload in source
                    if payload is not None
                ],
            )
            state.replace(kind, fused.sketch(group, kind))
            sources[kind] = source
        return state

    async def _query_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        kind = payload.get("kind")
        view_kinds = _QUERY_VIEW_KINDS.get(kind)
        if view_kinds is None:
            raise ValueError(
                f"unknown routed query kind {kind!r}; expected one of "
                f"{sorted(_QUERY_VIEW_KINDS)}"
            )
        groups = payload.get("groups")
        check_group_selection(groups)
        start = time.perf_counter()
        results = await asyncio.gather(
            *(
                self._shard_parts(slot, groups, view_kinds)
                for slot in self._slots
            ),
            return_exceptions=True,
        )
        self._metrics.histogram(
            "router_gather_seconds",
            help="scatter-gather wall seconds, by query kind",
            kind=str(kind),
        ).observe(time.perf_counter() - start)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        selected = (
            sorted({group for held, _ in results for group in held})
            if groups is None
            else dict.fromkeys(groups)
        )
        parts = [slot_parts for _, slot_parts in results]
        fused = SketchStore(self._config)
        for group in selected:
            fused._groups[group] = self._fused_group(group, view_kinds, parts)
        until = payload.get("until")
        result = fused.query(
            kind,
            groups=groups,
            keys=payload.get("keys"),
            until=None if until is None else float(until),
            backend=payload.get("backend"),
        )
        return {"ok": True, "result": result, **self._watermark_fields()}

    async def _evict_op(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        fields = {
            field: payload[field]
            for field in ("ttl", "max_keys", "now", "snapshot")
            if field in payload
        }
        results = await asyncio.gather(
            *(
                self._shard_request(slot, "evict", **fields)
                for slot in self._slots
            ),
            return_exceptions=True,
        )
        evicted: Dict[str, List[str]] = {}
        error: Optional[BaseException] = None
        for slot, result in zip(self._slots, results):
            if isinstance(result, BaseException):
                error = error if error is not None else result
                continue
            slot.watermark = int(result["watermark"])
            for group, keys in result["evicted"].items():
                evicted.setdefault(group, []).extend(keys)
        if error is not None:
            raise error
        return {"ok": True, "evicted": evicted, **self._watermark_fields()}

    async def _info_op(self) -> Dict[str, Any]:
        results = await asyncio.gather(
            *(self._shard_request(slot, "info") for slot in self._slots),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        infos = [result["result"] for result in results]
        groups = sorted({group for info in infos for group in info["groups"]})
        keys = {
            group: sum(info["keys"].get(group, 0) for info in infos)
            for group in groups
        }
        coalescing: Dict[str, float] = {}
        for info in infos:
            for field, value in info["coalescing"].items():
                coalescing[field] = coalescing.get(field, 0) + value
        for slot, info in zip(self._slots, infos):
            slot.watermark = int(info["events_ingested"])
        durability = {
            "sync_ack": [
                info.get("durability", {}).get("sync_ack") for info in infos
            ],
            "durable_acks": sum(
                info.get("durability", {}).get("durable_acks", 0)
                for info in infos
            ),
            "degraded_acks": sum(
                info.get("durability", {}).get("degraded_acks", 0)
                for info in infos
            ),
        }
        return {
            "router": True,
            "config": self._config.to_dict(),
            "groups": groups,
            "events_ingested": sum(
                slot.watermark for slot in self._slots
            ),
            "keys": keys,
            "coalescing": coalescing,
            "durability": durability,
            "read_only": False,
            "root": None,
            "shards": [slot.describe() for slot in self._slots],
        }

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, payload: Dict[str, Any], writer
    ) -> Dict[str, Any]:
        op = payload.get("op")
        try:
            if op == "ping":
                return {"ok": True, "result": "pong"}
            if op == "query":
                return await self._query_op(payload)
            if op == "ingest":
                return await self._ingest_op(payload)
            if op == "evict":
                return await self._evict_op(payload)
            if op == "info":
                return {"ok": True, "result": await self._info_op()}
            if op == "metrics":
                return {"ok": True, "result": self._metrics.snapshot()}
            if op == "shutdown":
                if payload.get("shards"):
                    # Best-effort fan-out; a dead shard cannot block the
                    # router's own shutdown.
                    for slot in self._slots:
                        try:
                            await self._shard_request(slot, "shutdown")
                        except ServingError:
                            continue
                return {"ok": True, "result": "bye"}
            if op in ("repl_snapshot", "repl_subscribe", "shard_view"):
                raise ValueError(
                    f"the router does not serve {op!r}; address the "
                    "shard primary directly"
                )
            raise ValueError(f"unknown op {op!r}")
        except ShardUnavailable as exc:
            self._metrics.counter(
                "router_unavailable_total",
                help="routed requests refused for shard unavailability",
            ).inc()
            return {
                "ok": False,
                "error": f"{exc}",
                "shard_unavailable": True,
                "retry_after": exc.retry_after,
            }
        except Overloaded as exc:
            # A shard shed a routed sub-batch; surface the shed (and its
            # backoff hint) so producers back off exactly as they would
            # against a single overloaded primary.
            return {
                "ok": False,
                "error": f"{exc}",
                "shed": True,
                "retry_after": exc.retry_after,
            }
