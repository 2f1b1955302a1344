"""End-to-end benchmark of the MARS pipeline: serving, training, streaming.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--trace 0|1]
                                  [--out FILE]

With ``--workload`` one workload runs in this process; without it every
workload runs in a fresh subprocess, one after another.  Each workload
prints every metric as ``workload metric value unit [n=samples]`` and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` (default) reports the end-to-end metrics;
``--trace 1`` installs the timing wrappers and reports the per-layer
metrics instead.  ``--out`` writes the full results record (environment,
parameters, metrics with sample counts, checks) as JSON.  Without
``--workload``, the last line is one JSON object over all workloads, with
``correct`` false if any workload failed a check or gave no result.

Every workload has a fixed shape and lasts about ``run_seconds`` of
``BENCHMARK.json``.  ``--seconds`` is accepted because benchmark runners
pass ``run_seconds`` that way; any other value is refused, so every run
measures the same work.

A workload whose output checks fail prints ``"correct": false`` and exits
with status 1.  The benchmark reads its inputs only from ``--seed``, sets
no thread or affinity variable (it records them), and keeps its scratch
files under ``.bench_run/`` in the checkout, removing them when it ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402
from repro.utils.io import atomic_write  # noqa: E402

SCRATCH = ROOT / ".bench_run"


def _lines(name, outcome):
    for metric, measured in outcome.metrics.items():
        line = f"{name} {metric} {measured.value:.6g} {measured.unit}"
        if measured.samples is not None:
            line += f" n={measured.samples}"
        yield line


def _result_line(outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {metric: {"value": measured.value, "unit": measured.unit}
                    for metric, measured in outcome.metrics.items()},
    })


def _record(args, results) -> dict:
    return {"benchmark": "benchmarks/e2e", "environment": stats.environment(ROOT),
            "seed": args.seed, "run_seconds": workloads.RUN_SECONDS,
            "trace": bool(args.trace), "workloads": results}


def _write(path, payload) -> None:
    with atomic_write(Path(path), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _remove_scratch_if_empty() -> None:
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still keeps files there


def run_workload(args) -> int:
    run_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](workloads.Context(
            seed=args.seed, trace=bool(args.trace), run_dir=run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        _remove_scratch_if_empty()
    for line in _lines(args.workload, outcome):
        print(line)
    failed_checks = [name for name, ok in outcome.checks.items() if not ok]
    if failed_checks:
        print(f"{args.workload} failed checks: {', '.join(failed_checks)}",
              file=sys.stderr)
    if args.out:
        _write(args.out, _record(args, {args.workload: asdict(outcome)}))
    print(_result_line(outcome), flush=True)
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh subprocess; one combined record and line."""
    SCRATCH.mkdir(exist_ok=True)
    results, summary = {}, {}
    for name in workloads.WORKLOADS:
        out = SCRATCH / f"all-{os.getpid()}-{name}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace), "--out", str(out)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(completed.stdout, end="", flush=True)
        try:
            with open(out, encoding="utf-8") as handle:
                results.update(json.load(handle)["workloads"])
            summary[name] = json.loads(completed.stdout.splitlines()[-1])
            del summary[name]["metrics"]
        except (OSError, ValueError, IndexError, KeyError):
            print(f"{name}: no result (exit status {completed.returncode})",
                  file=sys.stderr)
            summary[name] = {"correct": False, "attempted": 0, "failed": 0}
        finally:
            out.unlink(missing_ok=True)
    _remove_scratch_if_empty()
    if args.out:
        _write(args.out, _record(args, results))
    correct = all(entry["correct"] for entry in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in summary.values()),
        "failed": sum(entry["failed"] for entry in summary.values()),
        "workloads": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the MARS pipeline.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=workloads.RUN_SECONDS,
                        help="must equal run_seconds of BENCHMARK.json "
                             f"({workloads.RUN_SECONDS}): the workloads have "
                             "fixed shapes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results record here")
    args = parser.parse_args(argv)
    if args.seconds != workloads.RUN_SECONDS:
        parser.error(f"--seconds must be {workloads.RUN_SECONDS}")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
