"""lidkit benchmark: train-narrow, predict-wide and clean-crawl.

    python3 perfbench/run.py --workload predict-wide --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout of the repository; the CLI under test
is the checkout's own ``src/lidkit``.  ``--trace 0`` measures the
end-to-end metrics through the CLI; ``--trace 1`` measures the per-layer
metrics in-process and writes its spans to ``perfbench/_out/``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).  ``--workload all`` runs
every workload untraced and traced and prints every metric.  ``--out
FILE`` appends a full record (metrics, digests, environment) to a JSON
lines file that ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import sys

import proc

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(BENCH, "_work")
OUT = os.path.join(BENCH, "_out")


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="train-narrow, predict-wide, clean-crawl or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append a full JSON record per run to this file")
    return p.parse_args(argv)


def _summary(traced: bool, result) -> dict:
    units = proc.metric_units(traced)
    missing = [m for m in units if m not in result.metrics]
    metrics = {
        m: {"value": float(result.metrics.get(m, 0.0)), "unit": unit}
        for m, unit in units.items()
    }
    return {
        "correct": result.tally.failed == 0 and not missing,
        "attempted": max(1, result.tally.attempted),
        "failed": result.tally.failed + len(missing),
        "metrics": metrics,
    }


def _report(workloads, name: str, seed: int, traced: bool, result, summary) -> None:
    print(f"== {name} seed {seed} {'traced' if traced else 'untraced'}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}"
          f" (failed_frac {summary['failed'] / summary['attempted']:.6g})")
    for problem in result.tally.problems:
        print(f"  FAILED: {problem}")
    gap = result.details.get("accounting_gap", 0.0)
    if gap > workloads.ACCOUNTING_TOLERANCE:
        print(f"  NOTE: layer self times + residual miss the CLI time by {gap:.1%};"
              " the passes ran at different times on a machine whose speed drifts")
    for key, value in result.details.items():
        if key != "shares":
            print(f"  {key}: {value}")
    if "shares" in result.details:
        print("  self-time shares:")
        for span, share in result.details["shares"].items():
            print(f"    {span:32s} {share:8.2%}")


def run_one(workloads, name: str, seed: int, seconds: float, traced: bool,
            out: str | None) -> dict:
    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = workloads.run_workload(name, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = _summary(traced, result)
    details = dict(result.details)
    if result.trace is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json.gz")
        result.trace.write(path)
        details["trace_file"] = os.path.relpath(path, proc.ROOT)
        details["shares"] = workloads.shares(result.trace)
    result.details = details
    _report(workloads, name, seed, traced, result, summary)
    if out:
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "result": summary, "details": details, "problems": result.tally.problems,
            "env": proc.environment(),
        }
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return summary


def main(argv: list[str]) -> int:
    args = _parse(argv)
    # on SIGTERM, unwind so that children are killed and reaped and the
    # work directory is removed
    signal.signal(signal.SIGTERM, proc.terminate)
    if not os.path.isfile(os.path.join(proc.SRC, "lidkit", "cli.py")):
        print(f"error: no lidkit sources under {proc.SRC}", file=sys.stderr)
        return 2
    # BLAS threads must be fixed before numpy is first imported
    os.environ.update(proc.BLAS_ENV)
    proc.pin_one_cpu()
    sys.path.insert(0, proc.SRC)
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    print("environment:", json.dumps(proc.environment()))
    if args.workload != "all":
        summary = run_one(workloads, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.out)
        print(json.dumps(summary))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in (False, True):
            s = run_one(workloads, name, args.seed, args.seconds, traced, args.out)
            combined["correct"] &= s["correct"]
            combined["attempted"] += s["attempted"]
            combined["failed"] += s["failed"]
            for metric, m in s["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
