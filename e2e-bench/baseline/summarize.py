#!/usr/bin/env python3
"""Summarizes baseline runs of e2e_bench into a Markdown table.

Usage: python3 e2e-bench/baseline/summarize.py e2e-bench/baseline/runs.jsonl > e2e-bench/baseline/summary.md

Each line of the input is one `result-<workload>.json` of a traced run,
with a "run" number added. For every workload, seed and metric the table
gives the median and the first and third quartiles over the runs
(Python's statistics.quantiles, n=4). Per-layer metrics get the median only.
"""

import collections
import json
import statistics
import sys


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(path):
    runs = [json.loads(line) for line in open(path) if line.strip()]
    by = collections.defaultdict(list)
    for r in runs:
        by[(r["workload"], r["seed"])].append(r)
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    seeds = sorted({r["seed"] for r in runs}, key=int)
    first = runs[0]
    print("# Baseline\n")
    print(
        f"Host cores {first['host_cores']}, clients {first['clients']}, "
        f"{first['rustc']}, commit {first['commit']}, timed phase "
        f"{round(float(first['timed_s']))} s, warm-up {first['warmup_s']} s. "
        f"{len(runs)} traced runs, {len(runs) // max(1, len(workloads) * len(seeds))} "
        f"per workload and seed (seeds {', '.join(seeds)}). "
        f"{sum(r['failed'] for r in runs)} failed requests.\n"
    )
    for w in workloads:
        print(f"## {w}\n")
        print("| metric | unit | " + " | ".join(f"seed {s}: median [q1, q3]" for s in seeds) + " |")
        print("|---|---|" + "---|" * len(seeds))
        names = list(first["end_to_end"])
        for name in names:
            cells = []
            for s in seeds:
                values = [r["end_to_end"][name]["value"] for r in by[(w, s)]]
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            unit = first["end_to_end"][name]["unit"]
            print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
        for name in first["per_layer"]:
            cells = []
            for s in seeds:
                values = [r["per_layer"][name]["value"] for r in by[(w, s)]]
                cells.append(f"{statistics.median(values):.4g}")
            unit = first["per_layer"][name]["unit"]
            print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
        print()


if __name__ == "__main__":
    main(sys.argv[1])
