"""Tests of the benchmark's own arithmetic, accounting and checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from harness import checks, layers
from harness.fleet_load import FleetCompare, FleetState
from harness.http_load import FAULT_POSITIONS, WORKING_SET, HttpHits, \
    HttpState, TransportProbe, round_bodies
from harness.pace import STEP_PROBES, Pacer, Window, block_scales, \
    pace_scale, scale_at
from harness.runner import timed_loop
from harness.service_loads import BatchGrid, ServiceState, Targets
from harness.stats import percentile, spread



# -- percentile selection -----------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]      # unsorted on purpose
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.90) == 9.0
    assert percentile(values, 0.91) == 10.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([7.0], 0.9) == 7.0


def test_percentile_returns_a_measured_value():
    values = [1.0, 2.0, 4.0, 8.0]
    assert percentile(values, 0.5) in values
    assert percentile(values, 0.9) == 8.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_spread_uses_the_acceptance_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    summary = spread(values)
    assert summary["median"] == 14.5
    assert (summary["q1"], summary["q3"]) == (11.75, 17.25)
    assert summary["spread"] == pytest.approx(5.5 / 14.5)


# -- pacing arithmetic --------------------------------------------------------

def test_pace_scale_is_nominal_over_median_probe():
    assert pace_scale([1000.0, 1000.0], nominal_us=1000.0) == 1.0
    assert pace_scale([1500.0, 2500.0], nominal_us=1000.0) == 0.5
    assert pace_scale([400.0, 500.0, 9000.0], nominal_us=1000.0) == 2.0
    with pytest.raises(ValueError):
        pace_scale([0.0, 1000.0])
    with pytest.raises(ValueError):
        pace_scale([])


def test_block_scales_follow_a_lasting_slowdown_not_a_spike():
    # a synthetic pace trace: nominal, one interrupted probe, then the
    # machine settles at half speed
    span = STEP_PROBES
    probes = ([1000.0] * (2 * span - 1) + [9000.0]
              + [1000.0] * (2 * span - 1) + [2000.0] * (2 * span))
    scales = block_scales(probes, nominal_us=1000.0)
    assert len(scales) == len(probes) - 1
    assert scales[:3 * span - 1] == [1.0] * (3 * span - 1)  # spike ignored
    assert scales[-span:] == [0.5] * span                   # slowdown not
    assert all(0.5 <= scale <= 1.0 for scale in scales)


def test_scale_at_finds_the_enclosing_window():
    windows = [Window(0, 10, 1.0), Window(20, 30, 0.5), Window(30, 40, 2.0)]
    assert scale_at(windows, 0) == 1.0
    assert scale_at(windows, 9) == 1.0
    assert scale_at(windows, 10) == 0.0          # between windows
    assert scale_at(windows, 25) == 0.5
    assert scale_at(windows, 30) == 2.0
    assert scale_at(windows, 40) == 0.0


def _synthetic_pacer(trace):
    probes = iter(trace)
    return Pacer(nominal_us=1000.0, probe=lambda: next(probes))


def test_timed_loop_scales_each_block_by_its_pace():
    pacer = _synthetic_pacer([2000.0] * 20)     # half the nominal speed

    def one_round():
        time.sleep(0.11)                        # one round fills a block
        return [(0.004, True, 2), (0.008, True, 2)]

    timed = timed_loop(pacer, 0.15, one_round)
    blocks = len(timed.windows)
    assert blocks >= 1
    assert [window.scale for window in timed.windows] == [0.5] * blocks
    assert list(timed.op_ms) == pytest.approx([2.0, 4.0] * blocks)
    assert list(timed.raw_op_ms) == pytest.approx([4.0, 8.0] * blocks)
    assert timed.paced_s == pytest.approx(timed.raw_s / 2)
    assert timed.items == 4 * blocks


def test_pacer_timed_paces_a_step_by_the_probes_around_it():
    trace = [800.0] + [1000.0] * (2 * STEP_PROBES - 2) + [5000.0]
    pacer = _synthetic_pacer(trace)
    result, window = pacer.timed(lambda: "done")
    assert result == "done"
    assert window.scale == 1.0
    assert pacer.probes == trace


def test_transport_probe_times_its_own_server_and_stops_it():
    probe = TransportProbe()
    try:
        assert all(probe.probe_us() > 0 for _ in range(3))
    finally:
        probe.close()
    assert probe.process.returncode is not None


# -- failure accounting -------------------------------------------------------

def test_failures_are_counted_and_kept_out_of_latency():
    pacer = _synthetic_pacer([1000.0] * 10)

    def one_round():
        time.sleep(0.11)
        return [(0.001, True, 1), (0.002, False, 1), (0.003, True, 5),
                (0.500, False, 1)]

    timed = timed_loop(pacer, 0.15, one_round)
    rounds = len(timed.windows)
    assert rounds >= 1
    assert timed.attempted == 4 * rounds
    assert timed.failed == 2 * rounds
    assert timed.items == 6 * rounds
    assert sorted(set(timed.op_ms)) == pytest.approx([1.0, 3.0])


def test_http_rounds_hold_a_fixed_share_of_fault_bodies():
    bodies = round_bodies(seed=11)
    assert len(bodies) == WORKING_SET + len(FAULT_POSITIONS)
    faults = [bodies[position] for position in FAULT_POSITIONS]
    assert [body["bandwidth"] for body in faults] == \
        ["abc", "nan", "Infinity"]
    well_formed = [json.dumps(body, sort_keys=True)
                   for position, body in enumerate(bodies)
                   if position not in FAULT_POSITIONS]
    assert len(set(well_formed)) == WORKING_SET
    assert round_bodies(seed=11) == bodies
    assert round_bodies(seed=12) != bodies


def test_targets_never_repeat_and_follow_the_seed():
    first = Targets(5, "retarget_miss")
    drawn = [first.next() for _ in range(2000)]
    assert len(set(drawn)) == len(drawn)
    again = Targets(5, "retarget_miss")
    assert [again.next() for _ in range(2000)] == drawn


# -- the checks fire on doctored answers --------------------------------------

ANSWER = {"model": "igkw", "kind": "igkw", "network": "resnet50",
          "batch_size": 64, "gpu": "V100", "bandwidth": 812.5,
          "predicted_us": 1234.5678, "predicted_ms": 1.2345678,
          "tier": "kw", "attempts": [{"tier": "kw", "error": None}]}


def _hit(answer):
    return json.dumps(dict(answer, cached=True, plan_cached=True)).encode()


def test_http_check_accepts_a_cached_copy():
    expected = dict(ANSWER, cached=False, plan_cached=True)
    assert checks.http_hit(_hit(ANSWER), expected) == []


def test_http_check_fires_on_a_perturbed_prediction():
    expected = dict(ANSWER, cached=False, plan_cached=True)
    doctored = dict(ANSWER, predicted_us=math.nextafter(
        ANSWER["predicted_us"], math.inf))
    assert checks.http_hit(_hit(doctored), expected)


def test_http_check_fires_on_an_uncached_answer():
    body = json.dumps(dict(ANSWER, cached=False)).encode()
    assert checks.http_hit(body, ANSWER)


def test_fault_answer_needs_a_4xx_with_a_reason():
    assert checks.fault_answered(400, b'{"error": "bad bandwidth"}')
    assert not checks.fault_answered(500, b'{"error": "internal"}')
    assert not checks.fault_answered(200, json.dumps(ANSWER).encode())
    assert not checks.fault_answered(400, b'{}')
    assert not checks.fault_answered(422, b'not json')


def _batch(n=4):
    items = [{"model": "igkw", "network": "vgg11", "batch_size": 32,
              "gpu": "A40", "bandwidth": 100.0 + i} for i in range(n)]
    results = [dict(ANSWER, **item, cached=False, plan_cached=True,
                    predicted_us=500.0 + i)
               for i, item in enumerate(items)]
    return items, {"count": n, "errors": 0, "results": results}


def test_batch_check_accepts_a_whole_ordered_answer():
    items, response = _batch()
    assert checks.batch_answer(items, response) == []


def test_batch_check_fires_on_a_dropped_item():
    items, response = _batch()
    del response["results"][2]
    assert checks.batch_answer(items, response)


def test_batch_check_fires_on_reordered_items():
    items, response = _batch()
    results = response["results"]
    results[0], results[1] = results[1], results[0]
    assert checks.batch_answer(items, response)


def test_batch_check_fires_on_item_errors_and_bad_values():
    items, response = _batch()
    response["errors"] = 1
    assert checks.batch_answer(items, response)
    items, response = _batch()
    response["results"][3]["predicted_us"] = 0.0
    assert checks.batch_answer(items, response)
    response["results"][3]["predicted_us"] = float("nan")
    assert checks.batch_answer(items, response)


class _ErringService:
    """Answers every batch in place but reports one item error."""

    def predict_batch(self, request):
        items = request["items"]
        return {"count": len(items), "errors": 1, "results": [
            dict(ANSWER, **item, cached=False, plan_cached=True)
            for item in items]}


def test_batch_round_reports_item_errors():
    state = ServiceState(directory=None, service=_ErringService())
    ops = BatchGrid(seed=1).round(state)
    assert [ok for _, ok, _ in ops] == [False] * len(ops)
    assert len(state.problems) == len(ops)


class _RefusingConnection:
    """Answers every request with a 500."""

    def request(self, method, url, body, headers):
        pass

    def getresponse(self):
        return _Response()


class _Response:
    status = 500

    def read(self):
        return b'{"error": "internal"}'


def test_http_round_reports_a_refused_well_formed_body():
    state = HttpState(Path("."), process=None,
                      connection=_RefusingConnection())
    ops = HttpHits(seed=1).round(state)
    assert len(ops) == WORKING_SET + len(FAULT_POSITIONS)
    assert [ok for _, ok, _ in ops] == [False] * len(ops)
    assert len(state.problems) == WORKING_SET     # fault bodies only fail


def test_same_bits_fires_on_one_ulp():
    value = 987.654321
    assert checks.same_bits("x", {"a": value, "b": value}) == []
    assert checks.same_bits(
        "x", {"a": value, "b": math.nextafter(value, 0.0)})


def _fleet_result(policy="predicted", n=100, p99=900.0):
    from repro.fleet.report import PolicyResult
    return PolicyResult(policy=policy, n_requests=n, initial_gpus=4,
                        peak_gpus=4, makespan_us=1e6, p50_us=100.0,
                        p99_us=p99, p999_us=1000.0, mean_us=150.0,
                        slo_ms=100.0, slo_attainment=1.0, utilization=0.5,
                        cost_usd=1.0, batches=20)


def test_fleet_check_fires_on_a_missing_request():
    latencies = np.full(100, 250.0)
    assert checks.fleet_result(_fleet_result(), latencies) == []
    latencies[37] = -1.0                    # never completed
    assert checks.fleet_result(_fleet_result(), latencies)


def test_fleet_check_fires_on_disordered_percentiles():
    assert checks.fleet_result(_fleet_result(p99=2000.0),
                               np.full(100, 250.0))


class _LosingSimulator:
    """Stands in for a simulator whose run loses requests."""

    trace = [None] * 10

    def run(self, policy):
        raise RuntimeError("fleet simulation lost requests")


def test_fleet_round_reports_a_run_that_lost_requests():
    workload = FleetCompare(seed=1)
    state = FleetState(_LosingSimulator())
    ops = workload.round(state)
    assert [ok for _, ok, _ in ops] == [False] * len(ops)
    assert len(state.problems) == len(ops)
    assert workload.check(state)


def test_fleet_repeat_and_claim_checks():
    first = _fleet_result()
    assert checks.fleet_repeat(first, _fleet_result()) == []
    assert checks.fleet_repeat(
        first, dataclasses.replace(first, cost_usd=1.0000001))
    assert checks.fleet_claim(
        {"predicted": 1.0, "random": 2.0, "round_robin": 3.0}) == []
    assert checks.fleet_claim(
        {"predicted": 2.5, "random": 2.0, "round_robin": 3.0})


def test_accuracy_check_holds_the_papers_regime():
    assert checks.accuracy({"kw": [0.05, 0.1], "igkw": [0.2, 0.1]}) == []
    assert checks.accuracy({"kw": [0.3], "igkw": [0.1]})
    assert checks.accuracy({"kw": [0.05], "igkw": [0.4, 0.3]})
    assert checks.accuracy({"kw": [0.05]})


# -- the metric lists ---------------------------------------------------------

def test_report_fills_bypassed_layers_with_zero():
    report = layers.report({"plan.bind_us": 12.5})
    assert set(report) == {name for name, _, _ in layers.PER_LAYER}
    assert report["plan.bind_us"] == {"value": 12.5, "unit": "us"}
    assert report["server.transport_us"]["value"] == 0.0
    with pytest.raises(KeyError):
        layers.report({"no.such_metric": 1.0})
