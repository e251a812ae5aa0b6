#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and
prints for every end-to-end metric the median, the quartiles and
IQR/median against the metric's bound in BENCHMARK.json, plus each run's
reference-kernel time.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]

Every workload of BENCHMARK.json runs at its run_seconds.

Quartiles are statistics.quantiles(values, n=4). A spread is "steady"
below a third of its bound; setup_s has no spread bound (only its median
may not drift by more than the bound between two sets of runs).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    info = {}
    for line in lines:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    return json.loads(lines[-1]), info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, info = run_once(wl, seed, seconds)
            runs.append({"result": result, "info": info})
            kernel = info.get("kernel", {})
            print(f"{wl} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.4f} raw "
                  f"{info.get('raw_ops_per_s', 0):.4f} kernel median "
                  f"{kernel.get('median_ms', 0):.4f} ms", flush=True)
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  IQR/median {spread:.4f}  bound {m['bound']}  "
                  f"{'steady' if spread < m['bound'] / 3 else 'WIDE'}")
        for key in ("raw_ops_per_s", "raw_setup_s"):
            raw = [r["info"].get(key, 0.0) for r in runs]
            if len(raw) > 1:
                q1, _, q3 = statistics.quantiles(raw, n=4)
                med = statistics.median(raw)
                print(f"  {key} (uncorrected) median {med:.6g}  IQR/median "
                      f"{(q3 - q1) / med:.4f}")
        kernels = [r["info"].get("kernel", {}).get("median_ms", 0.0) for r in runs]
        print(f"  kernel median per run: {min(kernels):.4f}-{max(kernels):.4f} ms")
        failed = [r["result"]["failed"] / r["result"]["attempted"] for r in runs]
        print(f"  failed share per run: {sorted(set(failed))}")


if __name__ == "__main__":
    main()
