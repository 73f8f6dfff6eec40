"""Run one workload at several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload laws --seeds 1-10 --seconds 30

Runs ``run.py`` untraced once per seed, one run at a time, and prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (distance between the quartiles as a share of the median).  ``--out`` also
writes every run's result and the summary as JSON.  Exits 1 if any run
failed or reported a wrong verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "values": values}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", help="write the runs and the summary here as JSON")
    args = ap.parse_args(argv)

    runs, ok = [], True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        env = next((json.loads(l.split(": ", 1)[1]) for l in lines
                    if l.startswith("environment: ")), None)
        if proc.returncode != 0 or result is None or not result["correct"]:
            ok = False
            sys.stderr.write(proc.stderr)
            print("seed %d: exit %d" % (seed, proc.returncode))
            if result is None:
                continue
        result.update(seed=seed, environment=env)
        runs.append(result)
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    if not runs:
        return 1
    summary = summarise(runs)
    for name, s in summary.items():
        print("%-40s median %12.6g  q1 %12.6g  q3 %12.6g  spread %s" % (
            name, s["median"], s["q1"], s["q3"],
            "-" if s["spread"] is None else "%.4f" % s["spread"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seeds": args.seeds, "runs": runs,
                       "summary": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
