"""In-process workloads over ``PredictionService``: retarget_miss, batch_grid.

Both serve the model set from an AOT compile store (the plan bundles
``repro compile`` writes). Every request is an igkw query for a target
the service has never seen, so it misses the result cache; after one
untimed warm-up request per (network, batch) every plan lookup hits the
plan cache.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from harness import checks, layers, modelset, tracing
from harness.runner import Op, SetupContext, own_peak_rss_mb, \
    reference_pacing

#: Range of bandwidth overrides, GB/s: from below the slowest Table-1
#: GPU's native bandwidth to above the fastest.
BANDWIDTH_RANGE = (60.0, 2400.0)

#: kw-tier answers per (network, batch) that each run re-derives along
#: two more evaluation paths.
PATH_SAMPLE_PER_COMBO = 4

BATCH_ITEMS = 64
IGKW_PER_BATCH = 48        # one (network, batch) group, distinct targets
KW_PER_BATCH = 8
LW_PER_BATCH = 8

COMBOS = [(network, batch) for network in modelset.NETWORKS
          for batch in modelset.BATCHES]


class Targets:
    """Seeded stream of (gpu, bandwidth) targets, no bandwidth ever repeated.

    Bandwidths step through ``BANDWIDTH_RANGE`` by the golden ratio from
    a seeded offset: the points of an irrational rotation never coincide,
    and for the few hundred thousand a run can draw they stay further
    apart than the 0.001 GB/s they are rounded to. So every target is
    new without remembering the ones already sent.
    """

    _STEP = 0.6180339887498949            # golden ratio conjugate

    def __init__(self, seed: int, stream: str) -> None:
        self._rng = random.Random(f"perfbench|{stream}|{seed}")
        self._offset = self._rng.random()
        self._index = 0

    def next(self) -> Tuple[str, float]:
        low, high = BANDWIDTH_RANGE
        self._index += 1
        fraction = (self._offset + self._index * self._STEP) % 1.0
        return (self._rng.choice(modelset.TABLE1_GPUS),
                round(low + (high - low) * fraction, 3))


def igkw_body(network: str, batch: int, target: Tuple[str, float]) -> Dict:
    return {"model": "igkw", "network": network, "batch_size": batch,
            "gpu": target[0], "bandwidth": target[1]}


@dataclass
class ServiceState:
    directory: object
    service: object
    #: (body, answer) of kw-tier answers kept for the path check
    sample: List[Tuple[Dict, float]] = field(default_factory=list)
    sampled: Dict[Tuple[str, int], int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    answers: int = 0
    bad_answers: int = 0


def setup_service(context: SetupContext) -> ServiceState:
    """Train, AOT-compile, load the registry, warm the plan cache."""
    from repro.service import ModelRegistry, PredictionService
    from repro.service import registry as service_registry

    directory = context.directory
    context.step("train", lambda: modelset.train(directory))
    context.step("compile_store", lambda: modelset.compile_plans(directory))
    loads = tracing.SpanRecorder()
    loads.wrap(service_registry, "load_plans", "planopt.load_plans")
    try:
        registry = context.step("registry",
                                lambda: ModelRegistry(directory))
    finally:
        loads.uninstall()
    # load_plans ran inside the registry step: pace it with that step
    context.load_s = (sum(span[2] for span in loads.spans) / 1e9
                      * context.windows[-1].scale)
    service = PredictionService(registry)
    # warm the plan cache at native bandwidth: every timed request names
    # a bandwidth, so none can hit these results
    context.step("warm", lambda: [
        service.predict({"model": "igkw", "network": network,
                         "batch_size": batch, "gpu": "A100"})
        for network, batch in COMBOS])
    return ServiceState(directory, service)


def keep_sample(state: ServiceState, body: Dict, value: float) -> None:
    combo = (body["network"], body["batch_size"])
    if state.sampled.get(combo, 0) < PATH_SAMPLE_PER_COMBO:
        state.sampled[combo] = state.sampled.get(combo, 0) + 1
        state.sample.append((body, value))


def sample_size(state: ServiceState) -> List[str]:
    wanted = PATH_SAMPLE_PER_COMBO * len(COMBOS)
    if len(state.sample) < wanted:
        return [f"only {len(state.sample)} of {wanted} kw-tier answers "
                "to re-derive"]
    return []


def fresh_service(directory):
    from repro.service import ModelRegistry, PredictionService
    return PredictionService(ModelRegistry(directory))


def path_check(directory, predicted: List[Tuple[Dict, float]],
               other_path: str) -> List[str]:
    """Re-derive sampled kw-tier answers along two independent paths.

    ``other_path`` names the service endpoint the timed loop did not
    use; the third path is ``plan.evaluate(gpu=target)`` on a plan the
    benchmark compiles afresh from the model file.
    """
    from repro import zoo
    from repro.core import load_model
    from repro.service import resolve_target

    service = fresh_service(directory)
    model = load_model(directory / "igkw.json")
    plans = {}
    problems = []
    bodies = [body for body, _ in predicted]
    if other_path == "predict_batch":
        others = []
        for start in range(0, len(bodies), BATCH_ITEMS):
            chunk = bodies[start:start + BATCH_ITEMS]
            others += [result.get("predicted_us") for result in
                       service.predict_batch({"items": chunk})["results"]]
    else:
        others = [service.predict(body)["predicted_us"] for body in bodies]
    for (body, answer), other in zip(predicted, others):
        key = (body["network"], body["batch_size"])
        if key not in plans:
            plans[key] = model.compile(zoo.build(key[0]), key[1])
        target = resolve_target("igkw", body["gpu"], body["bandwidth"])
        problems += checks.same_bits(
            f"{body['network']}@{body['gpu']}/{body['bandwidth']}",
            {"timed": answer, other_path: other,
             "fresh plan": plans[key].evaluate(gpu=target)})
        if problems:
            break
    return problems


def accuracy_check(directory) -> List[str]:
    errors = modelset.accuracy_errors(fresh_service(directory))
    # the measured errors, printed for reference before the result line
    print(json.dumps({"accuracy_mean_error": {
        tier: round(sum(values) / len(values), 4)
        for tier, values in errors.items() if values}}))
    return checks.accuracy(errors)


class RetargetMiss:
    """One ``predict`` per request: igkw, unseen target, plan-cache hit."""

    name = "retarget_miss"
    pacing = staticmethod(reference_pacing)

    def __init__(self, seed: int) -> None:
        self.targets = Targets(seed, self.name)

    setup = staticmethod(setup_service)

    def round(self, state: ServiceState) -> List[Op]:
        from repro.service import ServiceError

        ops = []
        predict = state.service.predict
        for network, batch in COMBOS:
            body = igkw_body(network, batch, self.targets.next())
            start = time.perf_counter()
            try:
                answer = predict(body)
            except ServiceError as error:
                ops.append((time.perf_counter() - start, False, 1))
                state.problems.append(f"{body} failed: {error}")
                continue
            elapsed = time.perf_counter() - start
            ops.append((elapsed, True, 1))
            self._inspect(state, body, answer)
        return ops

    def _inspect(self, state: ServiceState, body: Dict, answer: Dict
                 ) -> None:
        value = answer["predicted_us"]
        state.answers += 1
        if answer["cached"] or not answer["plan_cached"]:
            state.problems.append(
                f"{body} was served from the result cache or compiled a "
                "plan; every request must miss one and hit the other")
        if checks.positive_finite([value], "predict"):
            state.bad_answers += 1
        elif answer["tier"] == "kw":
            keep_sample(state, body, value)

    def check(self, state: ServiceState) -> List[str]:
        problems = state.problems[:3]
        if state.bad_answers:
            problems.append(f"{state.bad_answers} of {state.answers} "
                            "answers were not finite and positive")
        problems += sample_size(state)
        problems += path_check(state.directory, state.sample,
                               "predict_batch")
        return problems + accuracy_check(state.directory)

    def rss_mb(self, state: ServiceState) -> float:
        return own_peak_rss_mb()

    def traced_phase(self, state, pacer, seconds, work):
        return layers.traced_in_process(self, state, pacer, seconds)

    def teardown(self, state: ServiceState) -> None:
        pass


class BatchGrid(RetargetMiss):
    """One 64-item ``predict_batch`` per operation, every item a miss.

    48 igkw items share one (network, batch) group with distinct
    targets, so the service prices them in one ``evaluate_grid`` pass;
    8 kw-a100 and 8 lw-a40 items for the same network and batch echo
    distinct targets, which keeps their result-cache keys distinct.
    Item order is shuffled from the seed.
    """

    name = "batch_grid"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._order = random.Random(f"perfbench|{self.name}|order|{seed}")

    def _batch(self, network: str, batch: int) -> List[Dict]:
        items = [igkw_body(network, batch, self.targets.next())
                 for _ in range(IGKW_PER_BATCH)]
        for model, count in (("kw-a100", KW_PER_BATCH),
                             ("lw-a40", LW_PER_BATCH)):
            for _ in range(count):
                body = igkw_body(network, batch, self.targets.next())
                body["model"] = model
                items.append(body)
        self._order.shuffle(items)
        return items

    def round(self, state: ServiceState) -> List[Op]:
        ops = []
        predict_batch = state.service.predict_batch
        for network, batch in COMBOS:
            items = self._batch(network, batch)
            start = time.perf_counter()
            response = predict_batch({"items": items})
            elapsed = time.perf_counter() - start
            problems = checks.batch_answer(items, response)
            ops.append((elapsed, not problems, len(items)))
            if problems:
                state.problems += problems
                continue
            for item, answer in zip(items, response["results"]):
                if item["model"] == "igkw":
                    self._inspect(state, item, answer)
        return ops

    def _inspect(self, state, body, answer) -> None:
        # batch answers were checked as a whole; keep kw-tier samples
        state.answers += 1
        if answer["cached"]:
            state.problems.append(f"{body} was served from the result "
                                  "cache; every item must miss it")
        elif answer["tier"] == "kw":
            keep_sample(state, body, answer["predicted_us"])

    def check(self, state: ServiceState) -> List[str]:
        problems = state.problems[:3]
        problems += sample_size(state)
        problems += path_check(state.directory, state.sample, "predict")
        return problems + accuracy_check(state.directory)
