"""Summarise one result set, or compare two, from ``run.py --out`` records.

    python3 perfbench/compare.py BASE.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # deltas between sets

For each workload and metric it prints the median and quartiles of the
runs (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and, with two sets, the delta of the medians.
End-to-end metrics are judged against their bound from BENCHMARK.json:
``unresolved`` when either set's spread exceeds the bound, ``worse`` when
the new median is worse than the base by more than the bound, ``ok``
otherwise.  Output digests that differ between the sets for the same
workload and seed are flagged; that is the golden-file rule, and is not a
failure by itself.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import proc


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def bounds() -> dict[str, dict]:
    spec = proc.benchmark_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, quartile distance / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def by_metric(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out[(r["workload"], name)].append(m["value"])
    return out


def digests(records: list[dict]) -> dict[tuple[str, int], str]:
    out = {}
    for r in records:
        d = r.get("details", {}).get("digests")
        if d:
            out[(r["workload"], r["seed"])] = json.dumps(d, sort_keys=True)
    return out


def verdict(spec: dict, base: tuple, new: tuple | None) -> str:
    bound = spec.get("bound")
    if bound is None:
        return ""
    if base[3] > bound or (new is not None and new[3] > bound):
        return "unresolved"
    if new is None:
        return "steady" if base[3] <= bound / 3 else "ok"
    worse = (base[0] - new[0]) if spec["better"] == "higher" else (new[0] - base[0])
    return "worse" if worse > bound * abs(base[0]) else "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    specs = bounds()
    sets = [load(p) for p in argv]
    metrics = [by_metric(s) for s in sets]
    failed = [sum(r["result"]["failed"] for r in s) for s in sets]
    attempted = [sum(r["result"]["attempted"] for r in s) for s in sets]
    for i, path in enumerate(argv):
        print(f"{path}: {len(sets[i])} runs, failed {failed[i]} of {attempted[i]} operations")
    keys = sorted(set().union(*metrics), key=lambda k: (k[0], k[1]))
    workload = None
    for key in keys:
        if key[0] != workload:
            workload = key[0]
            print(f"\n{workload}")
        spec = specs.get(key[1], {})
        base = stats(metrics[0][key]) if metrics[0].get(key) else None
        new = stats(metrics[1][key]) if len(metrics) > 1 and metrics[1].get(key) else None
        if base is None:
            continue
        cells = [f"  {key[1]:40s}", f"n={len(metrics[0][key]):<3d}",
                 f"{base[0]:12.6g} [{base[1]:.6g}, {base[2]:.6g}] spread {base[3]:7.2%}"]
        if new is not None:
            delta = (new[0] - base[0]) / abs(base[0]) if base[0] else 0.0
            cells.append(f"-> {new[0]:12.6g} [{new[1]:.6g}, {new[2]:.6g}] "
                         f"spread {new[3]:7.2%} delta {delta:+8.2%}")
        cells.append(verdict(spec, base, new))
        print(" ".join(cells))
    if len(sets) == 2:
        a, b = digests(sets[0]), digests(sets[1])
        changed = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
        for wl, seed in changed:
            print(f"digest changed: {wl} seed {seed}")
        if not changed:
            print(f"\ndigests: {len(a.keys() & b.keys())} shared (workload, seed) pairs, none changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
