"""Time-to-r(v) benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload columnar --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and writes the run's spans to ``perfbench/out/``.  The last line of
standard output is the JSON result.  The exit code is 0 only when every
cell's result was correct; without the checkout's ``src/repro`` the
command fails before running anything.
"""

from __future__ import annotations

import argparse
import atexit
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _import_program():
    """Import the checkout's ``repro`` package, and nothing else by that name."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SOURCE / 'repro'}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if SOURCE not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts to track
    the sharded runs' shared-memory segments.

    Left alone it outlives this process, so the run would end with a
    process still running.  Registered before any segment exists, this
    exit hook runs after the program's own segment sweep, which would
    otherwise start the tracker again.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    atexit.register(_stop_resource_tracker)

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    import numpy

    from perfbench import harness

    print(
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    spans = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.spans.json"
    report = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_path=spans if args.trace else None,
    )
    print(
        f"workload={report.workload} seed={report.seed} passes={report.passes} "
        f"cells={report.attempted}"
    )
    for cell, reasons in report.failures:
        print(f"FAILED {cell}: {'; '.join(reasons)}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<36} {report.failed / report.attempted:>16.6g} ratio")
    if report.self_times:
        print("self time per span, seconds per traced pass:")
        for name, secs in sorted(report.self_times.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<22} {secs:>10.4f}")
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(report.result_line())
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
