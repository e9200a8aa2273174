"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Usage (from the repository root):
  python3 table2bench/spread.py --workload gk --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed with tracing off, then prints, per metric,
the median of the runs and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of that median, next to
the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = a.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for s in seeds(a.seeds):
        out = subprocess.run(
            bench["command"] + ["--workload", a.workload, "--seed", str(s), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(last)
        print(f"seed {s}: correct={res['correct']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        runs.append(res)
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med
        flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
        print(f"{a.workload} {name}: median={med:.6g} spread={spread:.4f} bound={bound} {flag}")


if __name__ == "__main__":
    main()
