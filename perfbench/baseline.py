#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``perfbench/run.py`` once per
seed with tracing off, then once with tracing on for the first seed.  Per end-to-end metric it reports the median and the
quartile spread ``(q3 - q1) / median`` of the per-seed values, next to the
metric's bound, and writes everything with the environment to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s reported failures:\n%s" % (" ".join(cmd), proc.stderr))
    return info, result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {
        "command": ["python3", "perfbench/baseline.py"] + (argv or sys.argv[1:]),
        "environment": {
            "python": platform.python_version(),
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in names:
        runs = []
        for seed in seeds:
            info, result = run_once(bench, workload, seed, 0)
            runs.append((info, result))
            print("%s seed %d done (%d passes)" % (workload, seed, info["passes"]), flush=True)
        entry = {
            "dimacs_sha256": {str(info["seed"]): info["dimacs_sha256"] for info, _ in runs},
            "tail_percentile": runs[0][0]["tail_percentile"],
            "tail_samples": runs[0][0]["tail_samples"],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result in runs]
            median, rel = spread(values)
            entry["end_to_end"][name] = {
                "median": median,
                "spread": rel,
                "bound": bound,
                "unit": runs[0][1]["metrics"][name]["unit"],
                "values": values,
            }
            flag = "" if rel <= bound / 3 else ("  > bound/3" if rel <= bound else "  > BOUND")
            print("  %-18s median %-14.6g spread %.4f (bound %.2f)%s" % (name, median, rel, bound, flag))
        info, result = run_once(bench, workload, seeds[0], 1)
        entry["traced"] = {
            "seed": seeds[0],
            "largest_layer": info["largest_layer"],
            "layer_self_s": info["layer_self_s"],
            "span_self_s": info["span_self_s"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
        print("  traced: largest layer %s, overhead %.3f" % (
            info["largest_layer"], result["metrics"]["trace.overhead_frac"]["value"]))
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
