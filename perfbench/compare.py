"""Compare two sets of benchmark results, or summarize one.

Each set is a results.jsonl file written by run.py. For every workload and
metric the table gives each side's median and quartiles, the pair wins (runs
paired by seed where both sides have it, else in order), and a verdict:

better      B wins at least 9 of 10 pairs and the medians differ by more
            than A's interquartile range
unresolved  either side's spread (IQR / median) exceeds the metric's bound
worse       B's median is worse than A's by more than the bound
unchanged   otherwise

Per-layer metrics have no bound: they are reported better or worse by the
pair rule alone, else unchanged.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    out = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[(rec["workload"], rec["trace"])].append(rec)
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a: list, b: list) -> list:
    by_seed = {r["seed"]: r for r in b}
    matched = [(r, by_seed[r["seed"]]) for r in a if r["seed"] in by_seed]
    return matched if matched else list(zip(a, b))


def verdict(a, b, paired, better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in paired if sign * (x - y) > 0.0)
    losses = sum(1 for x, y in paired if sign * (y - x) > 0.0)
    qa, qb = quartiles(a), quartiles(b)
    iqr_a = qa[2] - qa[0]
    gap = abs(qb[1] - qa[1])
    if paired and wins >= 0.9 * len(paired) and gap > iqr_a:
        return "better", wins, losses
    if bound is None:
        if paired and losses >= 0.9 * len(paired) and gap > iqr_a:
            return "worse", wins, losses
        return "unchanged", wins, losses
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        return "unresolved", wins, losses
    if qa[1] and sign * (qb[1] - qa[1]) / abs(qa[1]) > bound:
        return "worse", wins, losses
    return "unchanged", wins, losses


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv, benchmark_json: Path) -> int:
    if len(argv) not in (1, 2):
        print("usage: run.py compare A.jsonl [B.jsonl]")
        return 2
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    defs = {m["name"]: (m["better"], m.get("bound"), m["unit"])
            for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(p) for p in argv]
    for key in sorted(sets[0]):
        runs = [s.get(key, []) for s in sets]
        if not all(runs):
            continue
        workload, traced = key
        print(f"\n== {workload} ({'per-layer' if traced else 'end-to-end'}), "
              + " vs ".join(f"{len(r)} runs" for r in runs))
        for name in runs[0][0]["metrics"]:
            better, bound, unit = defs.get(name, ("lower", None, ""))
            a = [r["metrics"][name]["value"] for r in runs[0]]
            line = f"{name:42s} {unit:6s} A {_fmt(quartiles(a))}"
            if len(runs) == 2:
                b = [r["metrics"][name]["value"] for r in runs[1]]
                paired = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                          for x, y in pairs(runs[0], runs[1])]
                v, wins, losses = verdict(a, b, paired, better, bound)
                line += f"  B {_fmt(quartiles(b))}  B wins {wins}/{len(paired)}, loses {losses}  {v}"
            else:
                q = quartiles(a)
                if q[1]:
                    line += f"  spread {(q[2] - q[0]) / abs(q[1]):.3f}"
            print(line)
    return 0
