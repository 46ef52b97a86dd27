"""Run perfbench over one or two checkouts and merge the runs into BENCH_<n>.json.

Run from the repository root, with the base checkout first:

    python3 tools/ledger.py --out BENCH_10.json \\
        --checkout parent=../blendcnn-parent --checkout change=. \\
        --runs eval-desk=10 --runs protocol-desk=10 --runs train-paper=10

Each run is one untraced ``perfbench/run.py --trace 0`` process started in
its checkout, so every side measures its own ``src/`` with its own
benchmark code.  Runs last the base checkout's ``BENCHMARK.json``
``run_seconds`` and take seeds 1..N.  For each seed the checkouts run back
to back, and which one runs first alternates from seed to seed.  The ledger keeps every run (its
metrics, digest, environment line, git sha and load average) and, per
workload and checkout, the median, quartiles and run count of each metric.
With two checkouts it adds, per end-to-end metric of ``BENCHMARK.json``, the
pairs won, lost and tied by the second checkout, each pair's change/base
ratio by seed, its median gap and the first checkout's interquartile range.
Each run prints a progress line with its ``throughput_sps`` and
``batch_ms.p50``.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")


def parse_run(stdout: str) -> dict:
    """One perfbench run's output -> {environment, digest, correct, ..., metrics}."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    final = json.loads(lines[-1])
    record = {"environment": None, "digest": None}
    for line in lines:
        if line.startswith("environment "):
            record["environment"] = json.loads(line[len("environment "):])
        elif line.startswith("digest "):
            record["digest"] = line[len("digest "):]
    record.update(correct=final["correct"], attempted=final["attempted"],
                  failed=final["failed"],
                  metrics={name: m["value"] for name, m in final["metrics"].items()})
    return record


def _stats(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _compare(base_runs, change_runs, metric, better):
    """Seed-paired comparison of ``metric`` between two sides of one workload.

    Every seed run on either side is a pair.  A side whose run of a seed
    failed, or printed no ``metric``, loses that pair (both failing is a tie),
    and no gain is shown while the change side fails more seeds than the base.
    """
    base, change = ({r["seed"]: r["metrics"][metric] for r in side
                     if metric in r.get("metrics", {})} for side in (base_runs, change_runs))
    if not base and not change:
        return None
    base_failed, change_failed = ({r["seed"] for r in side} - values.keys()
                                  for side, values in ((base_runs, base), (change_runs, change)))
    seeds = sorted(base.keys() | change.keys() | base_failed | change_failed)
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (change[s] - base[s]) if s in base and s in change
             else (s in base_failed) - (s in change_failed) for s in seeds]
    gap = iqr = None
    if base and change:
        base_stats = _stats(list(base.values()))
        gap = statistics.median(change.values()) - base_stats["median"]
        iqr = base_stats["q3"] - base_stats["q1"]
    wins = sum(g > 0 for g in gains)
    return {
        "pairs": len(seeds), "wins": wins, "losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains), "median_gap": gap, "base_iqr": iqr,
        # change/base per seed that both sides measured, to read a margin pair by pair
        "ratios": {str(s): change[s] / base[s] if base[s] else None
                   for s in seeds if s in base and s in change},
        # the gain rule: >= 10 pairs, >= 9/10 of them won, a gap wider than the
        # base's IQR, and no more failed seeds than the base
        "gain_shown": gap is not None and len(seeds) >= 10
                      and wins >= 0.9 * len(seeds) and sign * gap > iqr
                      and len(change_failed) <= len(base_failed),
    }


def merge(runs, labels, end_to_end=()):
    """Group runs by workload and checkout; add stats and, for two checkouts, pairs.

    ``runs`` are parse_run records with ``workload``, ``checkout`` and ``seed``
    added (failed processes carry ``error`` and no metrics); ``labels`` name
    the checkouts, base first; ``end_to_end`` is BENCHMARK.json's list of
    {name, better, ...}.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {label: [r for r in runs if r["workload"] == workload and r["checkout"] == label]
                 for label in labels}
        entry = {"checkouts": {}}
        for label, mine in sides.items():
            values = {}
            for r in mine:
                for name, value in r.get("metrics", {}).items():
                    values.setdefault(name, []).append(value)
            entry["checkouts"][label] = {
                "runs": len(mine),
                "failed_runs": sum("error" in r for r in mine),
                "digests": sorted({r["digest"] for r in mine if r.get("digest")}),
                "metrics": {name: _stats(v) for name, v in values.items()},
            }
        if len(labels) == 2:
            base, change = sides.values()
            pairs = {m["name"]: _compare(base, change, m["name"], m["better"])
                     for m in end_to_end}
            entry["pairs"] = {name: p for name, p in pairs.items() if p is not None}
            digest = {r["seed"]: r.get("digest") for r in base}
            entry["digests_equal"] = all(r.get("digest") is not None
                                         and digest.get(r["seed"]) == r["digest"] for r in change)
        out[workload] = entry
    return out


def _describe(path):
    """HEAD of a checkout and whether tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=path, capture_output=True,
                              text=True).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_one(path, workload, seed, seconds):
    """One untraced perfbench run in checkout ``path``; a failed process is recorded."""
    load = os.getloadavg()[0]
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=path, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "load_1m_before": load}
    if proc.returncode != 0:
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return record
    try:
        record.update(parse_run(proc.stdout))
    except (ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        record["error"] = f"unreadable perfbench output: {exc!r}"
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a checkout to measure; give one, or two with the base first")
    parser.add_argument("--runs", action="append", required=True, metavar="WORKLOAD=N",
                        help="seeds to run of a workload, per checkout")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checkouts = [tuple(c.split("=", 1)) for c in args.checkout]
    if len(checkouts) > 2 or any(len(c) != 2 for c in checkouts) \
            or len({label for label, _ in checkouts}) != len(checkouts):
        parser.error("give one or two --checkout LABEL=PATH, with distinct labels")
    plan = []
    for spec in args.runs:
        workload, _, n = spec.partition("=")
        if not n.isdigit() or int(n) < 1:
            parser.error(f"--runs {spec!r}: expected WORKLOAD=N with N >= 1")
        plan.append((workload, int(n)))
    with open(os.path.join(checkouts[0][1], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]

    runs = []
    for workload, n in plan:
        for i in range(n):
            seed = 1 + i
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for label, path in order:
                record = run_one(path, workload, seed, seconds)
                record["checkout"] = label
                runs.append(record)
                metrics = record.get("metrics", {})
                shown = " ".join(f"{name} {metrics[name]:.1f}"
                                 for name in ("throughput_sps", "batch_ms.p50") if name in metrics)
                print(f"{workload} seed={seed} {label}: {record.get('error') or shown}",
                      flush=True)
    ledger = {
        "seconds": seconds,
        "checkouts": {label: _describe(path) for label, path in checkouts},
        "workloads": merge(runs, [label for label, _ in checkouts], end_to_end),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
