"""One benchmark run: set up several times, time, check, print."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from harness import layers
from harness.fleet_load import FleetCompare
from harness.http_load import HttpHits
from harness.runner import SETUPS, SetupContext, WorkDir, end_to_end, \
    raw_summary, timed_loop
from harness.service_loads import BatchGrid, RetargetMiss

WORKLOADS = {workload.name: workload for workload in
             (HttpHits, RetargetMiss, BatchGrid, FleetCompare)}


def setup_layers(contexts: List[SetupContext]) -> Dict[str, float]:
    """Median paced time of each set-up step that has a per-layer metric."""
    def median(pick) -> float:
        return statistics.median(pick(context) for context in contexts)

    return {
        "train_s": median(lambda c: c.steps["train"]),
        "planopt.compile_store_s": median(
            lambda c: c.steps.get("compile_store", 0.0)),
        "planopt.load_s": median(lambda c: c.load_s),
        "fleet.exec_table_s": median(
            lambda c: c.steps.get("exec_table", 0.0)),
    }


def run(workload, seconds: float, traced: bool, root: Path) -> int:
    contexts: List[SetupContext] = []
    state = None
    with WorkDir(root) as work, workload.pacing() as pacer:
        try:
            for index in range(SETUPS):
                context = SetupContext(pacer, work / f"setup{index}")
                context.directory.mkdir()
                fresh = workload.setup(context)
                if state is not None:
                    workload.teardown(state)
                state = fresh
                contexts.append(context)
            if traced:
                untraced = timed_loop(pacer, seconds / 2,
                                      lambda: workload.round(state))
                state, timed, values = workload.traced_phase(
                    state, pacer, seconds / 2, work)
                values = dict(setup_layers(contexts), **values)
                untraced_rate = untraced.items / untraced.paced_s
                traced_rate = timed.items / timed.paced_s
                values.update({
                    "bench.pace_us": pacer.median_probe_us(),
                    "bench.items_per_s_untraced": untraced_rate,
                    "bench.items_per_s_traced": traced_rate,
                    "bench.tracing_overhead_pct":
                        100.0 * (untraced_rate - traced_rate)
                        / untraced_rate,
                })
                metrics = layers.report(values)
                attempted = untraced.attempted + timed.attempted
                failed = untraced.failed + timed.failed
            else:
                timed = timed_loop(pacer, seconds,
                                   lambda: workload.round(state))
                metrics = end_to_end(
                    timed,
                    statistics.median(c.paced_s for c in contexts),
                    workload.rss_mb(state))
                print(json.dumps(raw_summary(
                    timed, [c.raw_s for c in contexts])))
                print(json.dumps({"setup_steps_s": [
                    {name: round(value, 4)
                     for name, value in c.steps.items()}
                    for c in contexts]}))
                attempted, failed = timed.attempted, timed.failed
            problems = workload.check(state)
        finally:
            if state is not None:
                workload.teardown(state)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
