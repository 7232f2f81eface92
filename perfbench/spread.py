"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads well_deriv,ansatz_haar --seeds 10 \
        [--first-seed 1] [--seconds S] [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
and prints for each metric its median, quartiles and the interquartile
distance as a share of the median (``statistics.quantiles(values, n=4)``).
With ``--out`` it writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = elapsed
    return result


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_once(wl, seed, seconds, args.trace)
            r["seed"] = seed
            runs.append(r)
            print(f"{wl} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  f"process {r['process_s']:.1f} s", flush=True)
        summary = summarize(runs)
        report["workloads"][wl] = {"runs": runs, "summary": summary}
        if not args.trace:
            for name, s in summary.items():
                print(f"  {name}: median {s['median']:.6g} {s['unit']} "
                      f"iqr/median {s['iqr_share']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
