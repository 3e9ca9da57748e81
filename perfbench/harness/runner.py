"""The workload-independent part of a run: set-up, the timed loop, output.

A workload supplies ``pacing()`` (a context yielding the run's
:class:`~harness.pace.Pacer`), ``setup(context)`` (built from paced
steps),
``round(state)`` (one whole round of operations, each reported as
``(raw seconds, ok, items)``), ``check(state)`` (problems found in the
answers), ``rss_mb(state)``, ``traced_phase(...)`` and
``teardown(state)``. The runner (``harness.main``) repeats the set-up
several times and reports the median, and times whole rounds in paced
blocks until the run's seconds are spent.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import time
import uuid
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from harness.pace import Pacer, Window, block_scales
from harness.stats import percentile

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Minimum length of one timed block between two pace probes.
BLOCK_S = 0.1

#: (raw seconds, ok, items completed)
Op = Tuple[float, bool, int]


@dataclass
class SetupContext:
    """Runs one set-up's steps between pace probes."""

    pacer: Pacer
    directory: Path
    steps: Dict[str, float] = field(default_factory=dict)
    windows: List[Window] = field(default_factory=list)
    #: paced seconds of ``load_plans`` inside the registry step
    load_s: float = 0.0

    def step(self, name: str, work: Callable[[], object]):
        result, window = self.pacer.timed(work)
        self.steps[name] = self.steps.get(name, 0.0) + window.paced_s
        self.windows.append(window)
        return result

    @property
    def paced_s(self) -> float:
        return sum(self.steps.values())

    @property
    def raw_s(self) -> float:
        return sum(window.raw_s for window in self.windows)


@dataclass
class Timed:
    """Everything the timed phase measured.

    Operation times are kept in compact arrays: the in-process workloads
    report the peak RSS of the benchmark process, which must not grow
    with the number of operations a run happens to fit in.
    """

    windows: List[Window] = field(default_factory=list)
    op_ms: array = field(default_factory=lambda: array("d"))  # paced
    raw_op_ms: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    items: int = 0

    @property
    def paced_s(self) -> float:
        return sum(window.paced_s for window in self.windows)

    @property
    def raw_s(self) -> float:
        return sum(window.raw_s for window in self.windows)


def timed_loop(pacer: Pacer, seconds: float,
               round_fn: Callable[[], List[Op]]) -> Timed:
    """Run whole rounds in paced blocks until ``seconds`` have passed.

    One probe separates consecutive blocks; :func:`block_scales` paces
    each block from the probes around it.
    """
    timed = Timed()
    blocks: List[Tuple[int, int, int]] = []   # start, end, ops so far
    probes = [pacer.measure()]
    deadline = time.monotonic() + seconds
    while True:
        start = time.perf_counter_ns()
        while True:
            for raw_s, ok, items in round_fn():
                timed.attempted += 1
                if ok:
                    timed.items += items
                    timed.raw_op_ms.append(raw_s * 1e3)
                else:
                    timed.failed += 1
            if time.perf_counter_ns() - start >= BLOCK_S * 1e9:
                break
        blocks.append((start, time.perf_counter_ns(),
                       len(timed.raw_op_ms)))
        probes.append(pacer.measure())
        if time.monotonic() >= deadline:
            break
    first = 0
    for (start, end, last), scale in zip(
            blocks, block_scales(probes, pacer.nominal_us)):
        timed.windows.append(Window(start, end, scale))
        timed.op_ms.extend(value * scale
                           for value in timed.raw_op_ms[first:last])
        first = last
    return timed


@contextlib.contextmanager
def reference_pacing() -> Iterator[Pacer]:
    """The pacer of a workload the reference loop alone paces."""
    yield Pacer()


def own_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def end_to_end(timed: Timed, setup_s: float, rss_mb: float
               ) -> Dict[str, Dict[str, float]]:
    if not timed.op_ms:
        raise RuntimeError("no operation succeeded in the timed phase")
    return {
        "latency_p50_ms": {"value": percentile(timed.op_ms, 0.50),
                           "unit": "ms"},
        "latency_p90_ms": {"value": percentile(timed.op_ms, 0.90),
                           "unit": "ms"},
        "items_per_s": {"value": timed.items / timed.paced_s,
                        "unit": "items/s"},
        "rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def raw_summary(timed: Timed, raw_setups: List[float]) -> Dict[str, float]:
    """Unpaced counterparts of the timing metrics, printed for reference."""
    return {
        "raw_latency_p50_ms": percentile(timed.raw_op_ms, 0.50),
        "raw_latency_p90_ms": percentile(timed.raw_op_ms, 0.90),
        "raw_items_per_s": timed.items / timed.raw_s,
        "raw_setup_s": statistics.median(raw_setups),
    }


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: Path) -> None:
        self.path = root / ".perfbench_work" / uuid.uuid4().hex[:12]

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()        # only when no other run uses it
        except OSError:
            pass
