"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload retarget_miss --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --measure-pace

Run from the root of a checkout. The process pins itself (and so every
child it starts) to one CPU and runs BLAS with one thread before numpy
is imported; see README.md for why. The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def isolate() -> None:
    """One CPU and one BLAS thread, for this process and its children.

    Must run before numpy is imported; children inherit both the
    affinity and the environment.
    """
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-pace", action="store_true",
                        help="print the median reference-loop and "
                             "transport-probe times, the values "
                             "NOMINAL_PACE_US and NOMINAL_TRANSPORT_US "
                             "should hold")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    isolate()
    sys.path.insert(0, str(ROOT / "src"))

    if args.measure_pace:
        from harness.http_load import TransportProbe
        from harness.pace import measure_nominal
        print(f"NOMINAL_PACE_US {measure_nominal():.1f}")
        transport = TransportProbe()
        try:
            print(f"NOMINAL_TRANSPORT_US "
                  f"{measure_nominal(transport.probe_us):.1f}")
        finally:
            transport.close()
        return 0
    from harness.main import WORKLOADS, run
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run(WORKLOADS[args.workload](args.seed), args.seconds,
               bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
