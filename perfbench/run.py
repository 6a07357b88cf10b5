"""PTLDB wall-clock benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload v2v_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics. The last line on stdout is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it is
the run's context (host, dataset sizes, sample counts). Both are also
written to ``.perfbench/runs/``. The exit code is non-zero when any answer
disagrees with its oracle or the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("v2v_warm", "mixed_cold", "serve")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prime", nargs=3, metavar=("CITY", "SCALE", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prime is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prime(city: str, scale: str, cache_dir: str) -> int:
    from repro.labeling.io import load_or_build
    from repro.timetable.datasets import load_dataset

    load_or_build(load_dataset(city, scale), cache_dir=cache_dir, workers=2)
    return 0


def result_object(result, units: dict) -> dict:
    """The result line: every metric of *units*, by name, with its unit."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.prime is not None:
        return _prime(*args.prime)

    import workloads

    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), WORK,
            span_file=os.path.join(runs, f"{args.workload}-spans.tsv")
            if args.trace else None,
        )
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = result_object(
        result, workloads.layers.PER_LAYER if args.trace else workloads.END_TO_END
    )
    with open(os.path.join(runs, stem + ".json"), "w", encoding="utf-8") as f:
        json.dump({"context": result.context, "result": out}, f, indent=1)
    for line in result.mismatches[:5]:
        print(f"perfbench: mismatch {line}", file=sys.stderr)
    print(json.dumps(result.context))
    print(json.dumps(out))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
