"""Spans recorded around the library's public functions, from outside.

The launcher (``launch.py``) installs these wrappers into a program
process before the program starts; no source under ``src/`` changes.
Each wrapper records one span per call while the recorder is active:
its layer name, wall start and end, thread CPU time, the span that was
current when it began (a :mod:`contextvars` stack, so concurrent asyncio
tasks never adopt one another's spans), a work count and the request id
when the call has seen one.  Spans stay in memory and are written to one
``.npz`` file when the process exits.

A wrapper is installed wherever its callers look the function up: every
loaded ``repro`` module that bound the function by name at import (as
``repro.serving.store`` binds ``bottom_k_sketch``) gets the wrapper in
place of the original, and methods are replaced on their defining class.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "steadybench_span", default=-1
)
_REQUEST: contextvars.ContextVar[int] = contextvars.ContextVar(
    "steadybench_request", default=-1
)


class Recorder:
    """In-memory span columns for one process."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")  # thread CPU seconds; -1 for awaiting spans
        self.parent = array("i")
        self.count = array("d")
        self.request = array("i")
        self.flag = array("b")
        # Calls per layer over the process's life, recorded or not: the
        # wrapper check asks only that each wrapper was reached.
        self.calls: Dict[str, List[int]] = {}

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str) -> int:
        """Reserve a span row; it is filled in by :meth:`close`."""
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(0.0)
        self.end.append(0.0)
        self.cpu.append(-1.0)
        self.parent.append(_CURRENT.get())
        self.count.append(1.0)
        self.request.append(_REQUEST.get())
        self.flag.append(0)
        return index

    def close(
        self, index: int, start: float, end: float, cpu: float,
        count: float, flag: int,
    ) -> None:
        self.start[index] = start
        self.end[index] = end
        self.cpu[index] = cpu
        self.count[index] = count
        self.flag[index] = flag

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (an ``.npz`` archive)."""
        import numpy as np

        np.savez(
            path,
            names=np.asarray(json.dumps(self.names)),
            calls=np.asarray(
                json.dumps({k: v[0] for k, v in self.calls.items()})
            ),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            cpu=np.frombuffer(self.cpu, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            count=np.frombuffer(self.count, dtype=np.float64),
            request=np.frombuffer(self.request, dtype=np.int32),
            flag=np.frombuffer(self.flag, dtype=np.int8),
        )


def _one(args, kwargs, result) -> Tuple[float, int]:
    return 1.0, 0


def wrap(
    recorder: Recorder,
    name: str,
    func: Callable,
    describe: Callable = _one,
    skip_inside: Optional[str] = None,
) -> Callable:
    """A span-recording stand-in for ``func`` (sync or coroutine).

    ``describe(args, kwargs, result)`` returns the span's ``(count,
    flag)``: the work the call did (events decoded, requests executed)
    and a per-layer marker (a shed batch, a degraded ack, an unchanged
    view).  ``skip_inside`` names a layer whose own span already counts
    this call's work (``seed_for`` inside ``seeds_for``).
    """
    perf = time.perf_counter
    cpu = time.thread_time
    skip_id = None
    calls = recorder.calls.setdefault(name, [0])

    def skipped() -> bool:
        nonlocal skip_id
        if skip_inside is None:
            return False
        current = _CURRENT.get()
        if current < 0:
            return False
        if skip_id is None:
            skip_id = recorder._name_ids.get(skip_inside)
        return recorder.name[current] == skip_id

    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            calls[0] += 1
            if not recorder.active:
                return await func(*args, **kwargs)
            index = recorder.open(name)
            token = _CURRENT.set(index)
            start = perf()
            try:
                result = await func(*args, **kwargs)
            finally:
                end = perf()
                _CURRENT.reset(token)
            count, flag = describe(args, kwargs, result)
            recorder.close(index, start, end, -1.0, count, flag)
            return result

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        if not recorder.active or skipped():
            return func(*args, **kwargs)
        index = recorder.open(name)
        token = _CURRENT.set(index)
        start = perf()
        cpu_start = cpu()
        try:
            result = func(*args, **kwargs)
        finally:
            cpu_end = cpu()
            end = perf()
            _CURRENT.reset(token)
        count, flag = describe(args, kwargs, result)
        recorder.close(index, start, end, cpu_end - cpu_start, count, flag)
        return result

    return wrapper


def _set_request(args, kwargs, result) -> Tuple[float, int]:
    payload = args[-1] if args else kwargs.get("payload")
    request_id = payload.get("id") if isinstance(payload, dict) else None
    try:
        _REQUEST.set(int(request_id))
    except (TypeError, ValueError):
        pass
    return 1.0, 0


def _len_arg(position: int, keyword: str):
    def describe(args, kwargs, result) -> Tuple[float, int]:
        value = args[position] if len(args) > position else kwargs[keyword]
        return float(len(value)), 0

    return describe


def _len_result(args, kwargs, result) -> Tuple[float, int]:
    return float(len(result)), 0


def _false_result(args, kwargs, result) -> Tuple[float, int]:
    return 1.0, 0 if result else 1


def _unchanged_view(args, kwargs, result) -> Tuple[float, int]:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    if op != "shard_view":
        return 1.0, 2
    return 1.0, 1 if result.get("unchanged") else 0


#: ``(layer, "module:attribute.path", describe, skip_inside)`` — every
#: wrapped public function.  The layer name is the span name the
#: per-layer metrics aggregate over.
TARGETS: List[Tuple[str, str, Callable, Optional[str]]] = [
    ("serving.request_id", "repro.serving.batcher:QueryRequest.from_payload",
     _set_request, None),
    ("events.decode", "repro.serving.events:Event.from_dict", _one, None),
    ("admission.try_admit",
     "repro.serving.admission:AdmissionController.try_admit",
     _false_result, None),
    ("batcher.execute", "repro.serving.batcher:execute_batch",
     _len_arg(1, "requests"), None),
    ("batcher.submit", "repro.serving.batcher:QueryBatcher.submit", _one,
     None),
    ("store.ingest", "repro.serving.store:SketchStore.ingest", _one, None),
    ("store.sketch", "repro.serving.store:SketchStore.sketch", _one, None),
    ("store.query", "repro.serving.store:SketchStore.query", _one, None),
    ("store.view_payload", "repro.serving.store:sketch_view_payload", _one,
     None),
    ("seeds.seeds_for", "repro.core.seeds:SeedAssigner.seeds_for",
     _len_result, None),
    ("seeds.seed_for", "repro.core.seeds:SeedAssigner.seed_for", _one,
     "seeds.seeds_for"),
    ("sketches.bottom_k", "repro.sketches.bottomk:bottom_k_sketch", _one,
     None),
    ("sketches.pps", "repro.sketches.pps:pps_sample", _one, None),
    ("sketches.ads", "repro.sketches.ads:build_ads_from_distances", _one,
     None),
    ("sketches.merge_bottom_k", "repro.sketches.bottomk:BottomKSketch.merge",
     _one, None),
    ("sketches.merge_pps", "repro.sketches.pps:PPSSample.merge", _one, None),
    ("sketches.merge_ads", "repro.sketches.ads:AllDistancesSketch.merge",
     _one, None),
    ("wal.append", "repro.serving.persistence:EventLog.append_batch",
     _one, None),
    ("repl.ack_wait", "repro.serving.replication:AckTracker.wait_for",
     _false_result, None),
    ("router.request", "repro.serving.server:ServingClient.request",
     _unchanged_view, None),
    ("router.merge_views", "repro.serving.store:merge_sketch_views", _one,
     None),
    ("aggregates.estimate",
     "repro.aggregates.sum_estimator:SumAggregateEstimator.estimate", _one,
     None),
    ("engine.ht_sums", "repro.engine.serving:batch_ht_sums", _one, None),
    ("engine.hip_counts", "repro.engine.serving:batch_hip_horizon_counts",
     _one, None),
    ("core.lower_hull", "repro.core.lower_hull:lower_hull_points", _one,
     None),
    ("core.piecewise_quad", "repro.core.integration:piecewise_quad", _one,
     None),
    ("core.integral_lb_u2", "repro.core.integration:integral_of_lb_over_u2",
     _one, None),
    ("core.expectation_on_grid",
     "repro.core.integration:expectation_on_grid", _one, None),
    ("api.run_batch", "repro.api.experiments:ExperimentRunner.run_batch",
     _one, None),
]

#: Kernel classes are found at install time: every ``BatchKernel``
#: subclass that defines its own ``estimate_batch``.
KERNEL_LAYER = "engine.kernel"

#: Experiment task functions are found from the spec registry.
EXPERIMENT_LAYER = "experiments."


def import_program() -> None:
    """Import every ``repro`` module, so every by-name binding exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        importlib.import_module(info.name)


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw)`` for ``"module:Class.attr"``."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in vars(klass):
                return klass, attribute, vars(klass)[attribute]
    return owner, attribute, getattr(owner, attribute)


def _install(
    recorder: Recorder, name: str, owner: Any, attribute: str, raw: Any,
    describe: Callable, skip_inside: Optional[str],
) -> int:
    """Replace ``raw`` by its wrapper at every place it is looked up."""
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                wrap(recorder, name, raw.__func__, describe, skip_inside)
            )
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(
                wrap(recorder, name, raw.__func__, describe, skip_inside)
            )
        else:
            wrapped = wrap(recorder, name, raw, describe, skip_inside)
        setattr(owner, attribute, wrapped)
        return 1
    wrapped = wrap(recorder, name, raw, describe, skip_inside)
    sites = 0
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapped)
                sites += 1
    return sites


def install(recorder: Recorder) -> Dict[str, int]:
    """Wrap every target; returns the number of patched sites per layer.

    Raises when a target has no call site left to patch, so a renamed or
    re-bound function fails the traced run instead of reading 0.
    """
    import_program()
    sites: Dict[str, int] = {}
    for name, path, describe, skip_inside in TARGETS:
        owner, attribute, raw = _resolve(path)
        sites[name] = sites.get(name, 0) + _install(
            recorder, name, owner, attribute, raw, describe, skip_inside
        )
    from repro.engine.kernels import BatchKernel

    pending = list(BatchKernel.__subclasses__())
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        if "estimate_batch" in vars(klass):
            sites[KERNEL_LAYER] = sites.get(KERNEL_LAYER, 0) + _install(
                recorder, KERNEL_LAYER, klass, "estimate_batch",
                vars(klass)["estimate_batch"], _one, None,
            )
    from repro.api.experiments import resolve_spec

    for number in range(1, 12):
        spec = resolve_spec(f"E{number}")
        owner, attribute, raw = _resolve(spec.task)
        layer = f"{EXPERIMENT_LAYER}E{number}"
        sites[layer] = _install(
            recorder, layer, owner, attribute, raw, _one, None
        )
    unpatched = sorted(name for name, count in sites.items() if count == 0)
    if unpatched:
        raise RuntimeError(f"no call site found for: {', '.join(unpatched)}")
    return sites
