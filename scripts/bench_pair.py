#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/bench_pair.py --out BENCH_<n>.json
    python3 scripts/bench_pair.py --out pair.json --seeds 0 1 2 3 --workloads manifest

Exports the parent commit (HEAD by default) with `git archive` and the
working tree (tracked and untracked files that .gitignore does not name)
into two fresh directories, compiles the bytecode of both, and runs
`perfbench/run.py` in each as a black box, one process at a time, for the
`run_seconds` that BENCHMARK.json sets (seeds 0-9 by default).  For each
seed and workload the two sides run back to back; which side runs first
alternates from pair to pair, and from seed to seed within a workload.  The
output file holds, per workload and end-to-end metric, both sides' runs,
medians and quartiles, how many pairs the working tree won (ties count for
neither side), and a verdict: the first of these rules that applies.

1. The parent's IQR exceeds `bound` times its median: "better" when every
   run of the working tree beats every parent run, else "unresolved".
2. "worse" when the working tree's median is worse than the parent's by
   more than `bound` times the parent's median.
3. "gain" when the working tree wins at least 9 pairs in 10 and its median
   is better than the parent's by more than the parent's IQR.
4. "no worse".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("manifest", "operad", "homology", "sweep")
SIDES = ("parent", "change")


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str | None, dest: str) -> None:
    """The files of commit rev, or of the working tree when rev is None, in dest."""
    os.makedirs(dest)
    if rev is not None:
        archive = _git("archive", "--format=tar", rev)
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    else:
        for name in _git("ls-files", "-z", "--cached", "--others",
                         "--exclude-standard").decode().split("\0"):
            src = os.path.join(ROOT, name)
            if name and os.path.isfile(src):  # a deleted tracked file is still listed
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
    # both checkouts start with the same, complete bytecode cache
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, stdout=subprocess.DEVNULL)


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics line of one perfbench run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def verdict(parent: dict, change: dict, better: str, bound: float, wins: int,
            pairs: int) -> str:
    """The rules of the module docstring, on two `summary` dicts."""
    sign = 1 if better == "higher" else -1
    scale = bound * abs(parent["median"])
    if parent["iqr"] > scale:
        beaten = all(sign * (c - p) > 0 for c in change["runs"] for p in parent["runs"])
        return "better" if beaten else "unresolved"
    ahead = sign * (change["median"] - parent["median"])
    if ahead < -scale:
        return "worse"
    if 10 * wins >= 9 * pairs and ahead > parent["iqr"]:
        return "gain"
    return "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    parent = _git("rev-parse", args.parent).decode().strip()
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        export(parent, trees["parent"])
        export(None, trees["change"])
        for i, seed in enumerate(args.seeds):
            for j, workload in enumerate(args.workloads):
                order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
                for side in order:
                    line = run(trees[side], workload, seed, seconds)
                    correct = correct and line["correct"]
                    runs[workload][side].append(line["metrics"])
                    print(f"bench_pair: seed {seed} {workload} {side}: wall_s "
                          f"{line['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    report = {}
    for workload, sides in runs.items():
        report[workload] = {}
        for name, meta in declared.items():
            values = {side: [r[name]["value"] for r in sides[side]] for side in SIDES}
            sign = 1 if meta["better"] == "higher" else -1
            wins = sum(1 for p, c in zip(values["parent"], values["change"])
                       if sign * (c - p) > 0)
            parent_s, change_s = summary(values["parent"]), summary(values["change"])
            pairs = len(values["parent"])
            report[workload][name] = {
                "unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
                "parent": parent_s, "change": change_s, "change_wins": wins, "pairs": pairs,
                "verdict": verdict(parent_s, change_s, meta["better"], meta["bound"],
                                   wins, pairs)}
    doc = {"parent": parent, "seeds": args.seeds, "seconds": seconds,
           "correct": correct,
           "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                       "platform": platform.platform()},
           "workloads": report}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
