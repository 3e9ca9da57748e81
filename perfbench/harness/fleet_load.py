"""The fleet_compare workload: ``FleetSimulator.run`` per placement policy.

A heterogeneous fleet of 120 Table-1 GPUs (A100, A40, TITAN RTX and
GTX 1080 Ti in equal shares, the fleet study's mix) serves a seeded
Poisson trace of 6 000 requests over the study's three networks. The
fleet is priced by an IGKW ``ExecTable`` built from the hosted model
set's ``igkw`` model, so TITAN RTX is priced purely by retargeting. One
operation is one policy simulated over the whole trace; one round runs
all six policies.

The simulated latencies, SLO attainment and cost are checked, never
reported as metrics: the metric is host time per simulated request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.studies.fleet_study import STUDY_POLICIES

from harness import checks, layers, modelset
from harness.runner import Op, SetupContext, own_peak_rss_mb, \
    reference_pacing

FLEET_GPUS = 120
TRACE_REQUESTS = 6_000
MAX_BATCH = 8


@dataclass
class FleetState:
    simulator: object
    #: policy -> result of its first run, for the repeat check
    first: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class FleetCompare:
    name = "fleet_compare"
    pacing = staticmethod(reference_pacing)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, context: SetupContext) -> FleetState:
        from repro import core, zoo
        from repro.fleet import ExecTable, FleetConfig, FleetSimulator, \
            SLOSpec, WorkloadSpec
        from repro.gpu import gpu
        from repro.studies.fleet_study import STUDY_NETWORKS, \
            STUDY_POOL_MIX, study_pools

        directory = context.directory
        context.step("train", lambda: modelset.train(directory))
        table = context.step("exec_table", lambda: ExecTable.from_model(
            core.load_model(directory / "igkw.json"),
            [zoo.build(name) for name in STUDY_NETWORKS],
            [gpu(name) for name, _ in STUDY_POOL_MIX], MAX_BATCH))
        config = FleetConfig(
            pools=study_pools(FLEET_GPUS),
            workload=WorkloadSpec(networks=STUDY_NETWORKS,
                                  n_requests=TRACE_REQUESTS,
                                  target_utilization=0.6,
                                  arrival="poisson", seed=self.seed),
            slo=SLOSpec(latency_ms=100.0), max_batch=MAX_BATCH,
            policy_seed=self.seed)
        simulator = context.step("trace",
                                 lambda: FleetSimulator(config, table))
        return FleetState(simulator)

    def round(self, state: FleetState) -> List[Op]:
        ops = []
        simulator = state.simulator
        requests = len(simulator.trace)
        for policy in STUDY_POLICIES:
            start = time.perf_counter()
            try:
                result = simulator.run(policy)
            except RuntimeError as error:   # the simulator lost requests
                ops.append((time.perf_counter() - start, False, requests))
                state.problems.append(f"{policy}: {error}")
                continue
            elapsed = time.perf_counter() - start
            ops.append((elapsed, True, requests))
            # one latency slot per trace request, -1 until it completes
            state.problems += checks.fleet_result(result,
                                                  simulator._latencies)
            if policy in state.first:
                state.problems += checks.fleet_repeat(state.first[policy],
                                                      result)
            else:
                state.first[policy] = result
        return ops

    def check(self, state: FleetState) -> List[str]:
        problems = state.problems[:3]
        if set(state.first) != set(STUDY_POLICIES):
            return problems + ["not every policy completed a run"]
        return problems + checks.fleet_claim(
            {policy: result.p99_us for policy, result
             in state.first.items()})

    def rss_mb(self, state: FleetState) -> float:
        return own_peak_rss_mb()

    def traced_phase(self, state, pacer, seconds, work):
        return layers.traced_in_process(self, state, pacer, seconds)

    def teardown(self, state: FleetState) -> None:
        pass
