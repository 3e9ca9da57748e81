"""Correctness checks on the program's answers.

Each check returns a list of problems (empty when the answers are
right), so the benchmark can report every problem at once and the
benchmark's tests can show that each check fires on a doctored answer.
The checks compare against the simulated substrate, against an
independent evaluation path, or against properties of the method,
never against stored output.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Mean relative error on networks held out of training, in the regime
#: the paper reports (KW about 7%, IGKW about 15% on a GPU held out of
#: training) with the limits the repo's own Figure-13 and Figure-14
#: benchmarks assert: 10% for KW, 25% for IGKW.
KW_MAX_MEAN_ERROR = 0.10
IGKW_MAX_MEAN_ERROR = 0.25

#: Fields that describe where an answer came from, not what it is.
_FLAGS = ("cached", "plan_cached")


def positive_finite(values: Sequence[float], what: str) -> List[str]:
    bad = [value for value in values
           if not (isinstance(value, float) and math.isfinite(value)
                   and value > 0)]
    if bad:
        return [f"{what}: {len(bad)} of {len(values)} answers are not "
                f"finite and positive (first: {bad[0]!r})"]
    return []


def batch_answer(items: Sequence[Mapping], response: Mapping) -> List[str]:
    """A ``predict_batch`` answer keeps every item, in place, error-free."""
    problems = []
    results = response.get("results", [])
    if response.get("count") != len(items) or len(results) != len(items):
        problems.append(f"batch of {len(items)} items came back with "
                        f"count {response.get('count')} and "
                        f"{len(results)} results")
    if response.get("errors") != 0:
        problems.append(f"batch reports {response.get('errors')} item "
                        "errors")
    for position, (item, result) in enumerate(zip(items, results)):
        echoed = {key: result.get(key) for key in
                  ("model", "network", "batch_size", "gpu")}
        wanted = {key: item.get(key) for key in echoed}
        if echoed != wanted or result.get("bandwidth") != \
                item.get("bandwidth"):
            problems.append(f"batch item {position} answers "
                            f"{echoed} for {wanted}")
            break
    problems += positive_finite(
        [result.get("predicted_us") for result in results],
        "predict_batch")
    return problems


def same_bits(label: str, values: Mapping[str, float]) -> List[str]:
    """Every evaluation path gave the identical double."""
    distinct = {float(value).hex() for value in values.values()}
    if len(distinct) != 1:
        return [f"{label}: evaluation paths disagree: "
                + ", ".join(f"{path}={value!r}"
                            for path, value in values.items())]
    return []


def without_flags(answer: Mapping) -> Dict:
    return {key: value for key, value in answer.items()
            if key not in _FLAGS}


def http_hit(body: bytes, expected: Mapping) -> List[str]:
    """A hit answer is a cached copy of the in-process answer, bit for bit.

    ``expected`` is the in-process answer after a JSON round trip, so
    floats compare by their shortest round-trip representation.
    """
    answer = json.loads(body)
    problems = []
    if answer.get("cached") is not True:
        problems.append(f"answer for {expected.get('network')} was not "
                        "served from the result cache")
    if without_flags(answer) != without_flags(expected):
        problems.append(f"HTTP answer {without_flags(answer)} differs from "
                        f"the in-process answer {without_flags(expected)}")
    return problems


def fault_answered(status: int, body: bytes) -> bool:
    """The right answer to a malformed body: a 4xx that says why."""
    if not 400 <= status < 500:
        return False
    try:
        reason = json.loads(body).get("error")
    except (ValueError, AttributeError):
        return False
    return isinstance(reason, str) and bool(reason)


def fleet_result(result, latencies_us: Sequence[float]) -> List[str]:
    """One policy run served its whole trace with ordered percentiles.

    ``latencies_us`` holds the simulator's per-request latencies, one
    slot per request of the trace; a slot still below 0 is a request the
    run never completed.
    """
    problems = []
    done = int((np.asarray(latencies_us) >= 0).sum())
    if done != len(latencies_us):
        problems.append(f"{result.policy}: completed {done} of "
                        f"{len(latencies_us)} requests")
    if not result.p50_us <= result.p99_us <= result.p999_us:
        problems.append(f"{result.policy}: percentiles out of order "
                        f"({result.p50_us}, {result.p99_us}, "
                        f"{result.p999_us})")
    return problems


def fleet_repeat(first, again) -> List[str]:
    """Running one (policy, trace) again gives a bit-identical result."""
    if first != again:
        return [f"{first.policy}: a repeated run differs from the first"]
    return []


def fleet_claim(p99_by_policy: Mapping[str, float]) -> List[str]:
    """The study's claim: ``predicted`` beats both blind baselines on p99."""
    mine = p99_by_policy["predicted"]
    return [f"predicted p99 {mine:.0f} us does not beat {rival} "
            f"({p99_by_policy[rival]:.0f} us)"
            for rival in ("random", "round_robin")
            if not mine < p99_by_policy[rival]]


def accuracy(errors: Mapping[str, Sequence[float]]) -> List[str]:
    """Mean relative error per tier stays within the paper's regime."""
    limits = {"kw": KW_MAX_MEAN_ERROR, "igkw": IGKW_MAX_MEAN_ERROR}
    problems = []
    for tier, limit in limits.items():
        values = errors.get(tier, ())
        if not values:
            problems.append(f"no {tier} accuracy points were measured")
            continue
        mean = sum(values) / len(values)
        if not mean <= limit:
            problems.append(f"{tier} mean error {mean:.3f} exceeds "
                            f"{limit:.2f}")
    return problems
