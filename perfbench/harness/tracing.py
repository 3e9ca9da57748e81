"""Spans recorded from outside the program, around its layers' public calls.

:func:`install` replaces a fixed list of public functions and methods
with wrappers that record a span per call: name, start, duration, the
time covered by child spans on the same thread, and a small note (cache
hits, grid size, policy). Nothing under ``src/`` changes; the wrappers
are removed again by :meth:`SpanRecorder.uninstall`.

Spans stay in memory and are written out once, when the benchmark or
the traced server ends. Timestamps come from ``time.perf_counter_ns``,
which is the system-wide monotonic clock on Linux, so spans written by
the traced server line up with the client's paced windows.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (name, start_ns, duration_ns, child_ns, note)
Span = Tuple[str, int, int, int, object]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: id() of a cache object -> "cache" or "plan_cache"
        self.roles: Dict[int, str] = {}
        self.engines: List[object] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def register_service(self, service) -> None:
        """Tell the cache spans of ``service`` apart by the cache's role."""
        self.roles[id(service.cache)] = "cache"
        self.roles[id(service.plans)] = "plan_cache"

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attribute: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute``; ``note(args, result)`` annotates it."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                recorder.spans.append(
                    (name, start, duration, children[0],
                     note(args, result) if note is not None else None))

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def hook_after(self, owner, attribute: str,
                   after: Callable[[tuple], None]) -> None:
        """Call ``after(args)`` once ``owner.attribute`` returns (no span)."""
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args)
            return result

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "roles": {str(k): v for k, v in self.roles.items()}},
                      handle)

    def events_processed(self) -> int:
        return sum(engine.events_processed for engine in self.engines)


def _cache_note(args, result):
    # (cache id, hits, misses); a miss is a None value, as in the service
    if isinstance(result, list):
        hits = sum(1 for value in result if value is not None)
        return (id(args[0]), hits, len(result) - hits)
    return (id(args[0]), int(result is not None), int(result is None))


def install(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every layer the per-layer metrics read."""
    from repro import zoo
    from repro.core.e2e import EndToEndModel
    from repro.core.intergpu import InterGPUKernelWiseModel
    from repro.core.kernelwise import KernelTablePredictor, KernelWiseModel
    from repro.core.layerwise import LayerWiseModel
    from repro.core.overhead import OverheadAwareModel
    from repro.core.plan import RetargetablePlan
    from repro.fleet.simulator import FleetSimulator
    from repro.service import core as service_core
    from repro.service import registry as service_registry
    from repro.service.cache import PredictionCache
    from repro.service.fallback import FallbackChain
    from repro.sim.engine import EventEngine

    recorder.hook_after(service_core.PredictionService, "__init__",
                        lambda args: recorder.register_service(args[0]))
    recorder.hook_after(EventEngine, "__init__",
                        lambda args: recorder.engines.append(args[0]))
    recorder.wrap(service_core.PredictionService, "predict", "core.predict")
    recorder.wrap(service_core.PredictionService, "predict_batch",
                  "core.predict_batch")
    recorder.wrap(service_registry.ModelRegistry, "get", "registry.get")
    recorder.wrap(service_registry, "load_plans", "planopt.load_plans")
    recorder.wrap(PredictionCache, "get", "cache.get", _cache_note)
    recorder.wrap(PredictionCache, "get_many", "cache.get", _cache_note)
    recorder.wrap(service_core, "build_plan_chain", "fallback.build")
    recorder.wrap(FallbackChain, "predict", "fallback.predict")
    recorder.wrap(RetargetablePlan, "bind", "plan.bind")
    recorder.wrap(RetargetablePlan, "evaluate_grid", "plan.evaluate_grid",
                  lambda args, result: len(result[0]) if result else 0)
    for model_class in (KernelTablePredictor, KernelWiseModel,
                        LayerWiseModel, EndToEndModel,
                        InterGPUKernelWiseModel, OverheadAwareModel):
        recorder.wrap(model_class, "compile", "plan.compile")
    recorder.wrap(zoo, "build", "zoo.build")
    recorder.wrap(FleetSimulator, "run", "fleet.run",
                  lambda args, result: [args[1], len(args[0].trace)])
    return recorder
