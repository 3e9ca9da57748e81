"""Pacing: scale host times by the machine's measured speed.

The benchmark runs on small shared VMs without hardware performance
counters, where raw wall-clock time drifts by tens of percent within
seconds as neighbours come and go. Between blocks of operations the
benchmark runs a fixed reference loop (about 1-2 ms) and scales each
operation's time by ``NOMINAL_PACE_US`` over the pace measured around
its block. When the machine runs slow, the reference loop slows with it
and the scale shrinks the block's times back toward what an undisturbed
machine would have taken.

The loop is broad rather than tight: a JSON round trip, a deep copy of
the same nested document, a ``difflib`` sequence match and a few small
numpy operations. Interference from neighbours (caches, memory, the
sibling hyperthread) slows large, branchy Python code far more than a
tight arithmetic loop, and the workloads are large, branchy Python code;
on the tuning machine a tight loop moved half as much as the workloads
did, while this mix moves about as much. It is benchmark code, never
program code: a change to the program cannot move it.
"""

from __future__ import annotations

import copy
import difflib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Reference-loop time taken as the machine's nominal speed: a round
#: figure inside the 810-1440 us that ``python3 perfbench/run.py
#: --measure-pace`` gave on the 2-vCPU VM the benchmark was tuned on
#: (pinned, one BLAS thread) as its neighbours came and went.
NOMINAL_PACE_US = 1000.0

#: Time of one request to ``harness.probe_server``, the transport half
#: of the ``http_hits`` probe: a round figure inside the 600-800 us that
#: ``--measure-pace`` gave on the same VM.
NOMINAL_TRANSPORT_US = 700.0

#: Probes on each side of a set-up step or timed block that pace it.
STEP_PROBES = 5

_DOCUMENT = {"items": [{"model": "igkw", "network": f"resnet{i}",
                        "batch_size": i, "gpu": "V100", "bandwidth": i * 1.5,
                        "attempts": [{"tier": "kw", "error": None}]}
                       for i in range(24)]}
_OLD_TEXT = "\n".join(f"layer {i} conv {i * 7 % 13}" for i in range(16))
_NEW_TEXT = "\n".join(f"layer {i} conv {i * 5 % 13}" for i in range(16))
_VECTOR = np.linspace(-1.0, 1.0, 64)


def reference_loop() -> float:
    """Run the fixed reference mix once; returns a checksum."""
    checksum = float(len(json.loads(json.dumps(_DOCUMENT))["items"]))
    checksum += len(copy.deepcopy(_DOCUMENT)["items"])
    checksum += difflib.SequenceMatcher(None, _OLD_TEXT, _NEW_TEXT).ratio()
    vector = _VECTOR
    for _ in range(20):
        vector = np.maximum(0.0, vector * 1.0001 + 0.001)
    return checksum + float(vector.sum())


def probe_us() -> float:
    """Time of one reference loop, in microseconds."""
    start = time.perf_counter_ns()
    reference_loop()
    return (time.perf_counter_ns() - start) / 1e3


def pace_scale(probes: Sequence[float],
               nominal_us: float = NOMINAL_PACE_US) -> float:
    """Factor that turns a raw time into a paced one.

    The pace of an interval is the median of the probes taken around it;
    an interval run at twice the nominal pace is scaled by 0.5. The
    median keeps one probe hit by an interrupt from skewing the scale.
    """
    if not probes or min(probes) <= 0:
        raise ValueError("pace probes must be positive")
    return nominal_us / statistics.median(probes)


def block_scales(probes: Sequence[float],
                 nominal_us: float = NOMINAL_PACE_US) -> List[float]:
    """Scale of each block in a run of blocks separated by single probes.

    Block ``i`` lies between probes ``i`` and ``i + 1`` and is paced by
    the ``STEP_PROBES`` probes on each side of it: a slowdown that lasts
    several blocks moves the scale, one that hits a single probe does not.
    """
    return [pace_scale(probes[max(0, i + 1 - STEP_PROBES):
                              i + 1 + STEP_PROBES], nominal_us)
            for i in range(len(probes) - 1)]


@dataclass
class Window:
    """One paced interval on the monotonic clock: [start_ns, end_ns)."""

    start_ns: int
    end_ns: int
    scale: float

    @property
    def raw_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def paced_s(self) -> float:
        return self.raw_s * self.scale


@dataclass
class Pacer:
    """Takes pace probes and records the paced windows between them.

    ``probe`` is injectable so the arithmetic can be tested on a
    synthetic pace trace.
    """

    nominal_us: float = NOMINAL_PACE_US
    probe: Callable[[], float] = probe_us
    probes: List[float] = field(default_factory=list)

    def measure(self) -> float:
        value = self.probe()
        self.probes.append(value)
        return value

    def timed(self, work: Callable[[], object]) -> Tuple[object, Window]:
        """Run ``work`` between probes; returns (result, its window)."""
        around = [self.measure() for _ in range(STEP_PROBES)]
        start = time.perf_counter_ns()
        result = work()
        end = time.perf_counter_ns()
        around += [self.measure() for _ in range(STEP_PROBES)]
        return result, Window(start, end,
                              pace_scale(around, self.nominal_us))

    def median_probe_us(self) -> float:
        return statistics.median(self.probes) if self.probes else 0.0


def scale_at(windows: List[Window], instant_ns: int) -> float:
    """Scale of the window holding ``instant_ns``; 0.0 outside every window.

    ``windows`` must be sorted by start and must not overlap.
    """
    low, high = 0, len(windows)
    while low < high:
        middle = (low + high) // 2
        if windows[middle].end_ns <= instant_ns:
            low = middle + 1
        else:
            high = middle
    if low < len(windows) and windows[low].start_ns <= instant_ns:
        return windows[low].scale
    return 0.0


def measure_nominal(probe: Callable[[], float] = probe_us,
                    samples: int = 2000) -> float:
    """Median time of ``probe`` over ``samples`` runs, in microseconds."""
    for _ in range(50):                    # warm caches and the allocator
        probe()
    return statistics.median(probe() for _ in range(samples))
