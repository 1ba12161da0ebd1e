"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload dense_full --seed 1 \\
        --seconds 12 --trace 0

The program is imported from ``src/`` of the same checkout.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics (layers a workload does not touch
read 0).  The lines before it print every metric the run measured, by
name with its unit, including ``failed_ops_ratio``.

Temporary stores live under ``perfbench/.tmp/`` and are removed when the
run ends; a traced run writes its spans to
``perfbench/.spans/<workload>.jsonl.gz`` (the latest run of each
workload).  Nothing else is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Imports timed in fresh interpreters besides this one; set-up time
#: uses the median, since one import varies by tens of milliseconds.
IMPORT_REPEATS = 2


def fresh_import_seconds(source: str) -> float:
    """Seconds a fresh interpreter spends importing the benchmark."""
    script = (
        "import sys, time\n"
        f"sys.path[:0] = [{source!r}, {HERE!r}]\n"
        "started = time.perf_counter()\n"
        "import workloads\n"
        "print(time.perf_counter() - started)\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout.split()[-1])


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: the program is missing ({source}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    started = time.perf_counter()
    import workloads  # the program's imports are part of set-up

    import_s = statistics.median(
        [time.perf_counter() - started]
        + [fresh_import_seconds(source) for _ in range(IMPORT_REPEATS)]
    )

    scratch = os.path.join(HERE, ".tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    if outcome.tracer is not None:
        traces = os.path.join(HERE, ".spans")
        os.makedirs(traces, exist_ok=True)
        outcome.tracer.write(
            os.path.join(traces, f"{args.workload}.jsonl.gz")
        )

    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name:42s} {value:>16.6f} {unit}")
    for note in outcome.notes:
        print(f"# {note}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        # Per-layer metrics of layers a workload never enters read 0.
        value, measured_unit = outcome.metrics.get(name, (0.0, unit))
        missing = not args.trace and name not in outcome.metrics
        if missing or measured_unit != unit:
            print(f"perfbench: metric {name} missing or not in {unit}",
                  file=sys.stderr)
            return 3
        metrics[name] = {"value": float(value), "unit": unit}
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
