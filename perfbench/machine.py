"""Machine record for benchmark results, and the baseline file built from runs.

    python3 perfbench/machine.py                      # print the machine record
    python3 perfbench/machine.py RUNS.json [...]      # write perfbench/baseline.json

``RUNS.json`` files are written by ``perfbench/spread.py --out``; each file
adds one set of runs (untraced or traced) to every workload it covers.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Cache sizes by level in bytes, as the kernel reports them for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KM")) * mult
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing

    try:
        from pekar import spectral

        workers = getattr(spectral, "_WORKERS", "unknown")
    except ImportError:
        workers = "unknown"
    caches = _cache_sizes()
    l3 = caches.get("L3")
    padded = {}
    for n in (64, 128):
        b = tracing.padded_bytes(2 * n)
        padded[f"n={n}"] = {
            "padded_grid": f"{2 * n}^3",
            "bytes": b,
            "share_of_L3": b / l3 if l3 else None,
        }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": workers,
        "padded_transform_bytes_computed": {
            "note": "computed, not measured: one pass over the real padded array "
            "and one over its half-spectrum",
            **padded,
        },
    }


def write_baseline(paths: list) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine_record(), "bounds": bounds, "workloads": {}}
    for p in paths:
        rep = json.loads(Path(p).read_text())
        mode = "traced" if rep["trace"] else "untraced"
        for wl, data in rep["workloads"].items():
            entry = out["workloads"].setdefault(wl, {"untraced": [], "traced": []})
            entry[mode].append({
                "seconds": rep["seconds"],
                "seeds": [r["seed"] for r in data["runs"]],
                "all_correct": all(r["correct"] for r in data["runs"]),
                "metrics": data["summary"],
            })
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return out


if __name__ == "__main__":
    if len(sys.argv) > 1:
        write_baseline(sys.argv[1:])
    else:
        print(json.dumps(machine_record(), indent=1))
