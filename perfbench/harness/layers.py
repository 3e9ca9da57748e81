"""Per-layer metrics from the spans of a traced timed phase.

Every workload reports every metric; a layer the workload bypasses
reads 0 (the HTTP transport on the in-process workloads, the fleet on
the service workloads). Times are paced by the block they fell in and
reported as the median per call unless the name says otherwise; counts
are exact.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.studies.fleet_study import STUDY_POLICIES

from harness import tracing
from harness.pace import Pacer, Window, scale_at
from harness.runner import Timed, timed_loop
from harness.tracing import Span

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (metric["name"], metric["unit"], metric["better"]) for metric in
    json.loads((Path(__file__).resolve().parents[2]
                / "BENCHMARK.json").read_text())["per_layer"])

#: A paced span: (name, paced duration us, paced self time us, note)
Paced = Tuple[str, float, float, object]


def paced_spans(spans: Iterable[Span], windows: List[Window]
                ) -> List[Paced]:
    """Spans that started inside a window, with paced times in us."""
    kept = []
    for name, start, duration, children, note in spans:
        scale = scale_at(windows, start)
        if scale:
            kept.append((name, duration * scale / 1e3,
                         (duration - children) * scale / 1e3, note))
    return kept


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def span_metrics(spans: List[Paced], roles: Mapping[int, str],
                 items: int, events: int) -> Dict[str, float]:
    """The metrics read straight off one traced phase's spans."""
    by_name: Dict[str, List[Paced]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    lookups = {"cache": [0, 0], "plan_cache": [0, 0]}
    per_key = []
    for _, duration, _, (cache_id, hits, misses) in by_name["cache.get"]:
        role = roles.get(cache_id)
        if role is not None:
            lookups[role][0] += hits
            lookups[role][1] += misses
        per_key.append(duration / max(1, hits + misses))
    chain = by_name["fallback.build"] + by_name["fallback.predict"]
    grid = [duration / note for _, duration, _, note
            in by_name["plan.evaluate_grid"] if note]
    metrics = {
        "registry.get_us": _median([s[1] for s in by_name["registry.get"]]),
        "cache.get_us": _median(per_key),
        "core.predict_self_us": _median(
            [s[2] for s in by_name["core.predict"]]),
        "core.predict_batch_self_us": _median(
            [s[2] for s in by_name["core.predict_batch"]]),
        "fallback.chain_us": (sum(s[1] for s in chain)
                              / len(by_name["fallback.predict"])
                              if by_name["fallback.predict"] else 0.0),
        "plan.bind_us": _median([s[1] for s in by_name["plan.bind"]]),
        "plan.bind_calls_per_item": (len(by_name["plan.bind"]) / items
                                     if items else 0.0),
        "plan.grid_us_per_point": _median(grid),
        "plan.compile_calls": float(len(by_name["plan.compile"])),
        "zoo.build_calls": float(len(by_name["zoo.build"])),
    }
    for role, (hits, misses) in lookups.items():
        metrics[f"{role}.hit_ratio"] = (hits / (hits + misses)
                                        if hits + misses else 0.0)
    runs: Dict[str, List[float]] = defaultdict(list)
    simulated = 0
    for _, duration, _, (policy, requests) in by_name["fleet.run"]:
        runs[policy].append(duration / requests)
        simulated += requests
    for policy in STUDY_POLICIES:
        metrics[f"fleet.run_us_per_request.{policy}"] = _median(runs[policy])
    metrics["fleet.events_per_request"] = (events / simulated
                                           if simulated else 0.0)
    return metrics


def report(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric with its unit; 0 for a bypassed layer."""
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}


def traced_in_process(workload, state, pacer: Pacer, seconds: float
                      ) -> Tuple[object, Timed, Dict[str, float]]:
    """Time the workload with the layer wrappers installed in process."""
    recorder = tracing.install(tracing.SpanRecorder())
    service = getattr(state, "service", None)
    if service is not None:
        recorder.register_service(service)
    try:
        timed = timed_loop(pacer, seconds, lambda: workload.round(state))
    finally:
        recorder.uninstall()
    values = span_metrics(
        paced_spans(recorder.spans, timed.windows), recorder.roles,
        timed.items, recorder.events_processed())
    return state, timed, values
