"""Benchmark of the pekar solver suite.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout.  A run sets
the workload up several times (``setup_s`` is the median), then repeats
passes, each on fresh inputs drawn from ``--seed``, for about
``--seconds``.  Every pass checks its results.  With ``--trace 1`` the
run instead repeats one drawn input, alternating an untraced pass with a
traced one; it reports per-layer numbers of the traced passes, checks that
both give bit-identical energies, and checks the tracer's counters against
a separate hand count on a two-iteration solve.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
TRACE_DIR = ROOT / ".perfbench"
END_TO_END_UNITS = {"wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fresh_import():
    """Import pekar anew; its module-level caches start empty."""
    for name in [m for m in sys.modules if m == "pekar" or m.startswith("pekar.")]:
        del sys.modules[name]
    gc.collect()
    return importlib.import_module("pekar")


def setup_runs(wl, tracer):
    """Set the workload up SETUPS times.

    Returns the package, the seconds of each set-up, and the seconds
    each spent building spectral operators (traced runs only).
    """
    times, ops_build = [], []
    pk = None
    for _ in range(SETUPS):
        wl.__dict__.clear()
        pk = None
        t0 = time.perf_counter()
        pk = fresh_import()
        if tracer is not None:
            mark = tracer.mark()
            tracer.install(pk)
        wl.setup(pk)
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            agg = tracer.aggregate(mark)
            ops_build.append(agg.get("spectral.ops_build", {"s": 0.0})["s"])
    return pk, times, ops_build


def timed_pass(wl, pk, inputs):
    t0 = time.perf_counter()
    res = wl.run(pk, inputs)
    res.wall_s = time.perf_counter() - t0
    return res


def hand_count(pk) -> list:
    """Tracer counters against a plain count on a two-iteration free solve."""
    grid = pk.Grid3D(32, 16.0)
    V = pk.Field3D(grid, np.zeros(grid.shape))
    opts = pk.SolveOptions(max_iters=2, seed=pk.SeedSpec(kind="radial_gaussian"))
    ops_cls = pk.spectral.SpectralOps
    plain = {"fft_padded": 0, "kinetic": 0}
    originals = {name: ops_cls.__dict__[name] for name in plain}

    def counting(name):
        inner = originals[name]

        def call(*args, **kwargs):
            plain[name] += 1
            return inner(*args, **kwargs)

        return call

    for name in plain:
        setattr(ops_cls, name, counting(name))
    tr = tracing.Tracer()
    tr.install(pk)
    try:
        res = pk.minimize(V, opts)
    finally:
        tr.uninstall()
        for name, fn in originals.items():
            setattr(ops_cls, name, fn)
    m = tracing.layer_metrics(tr, 0, tr.mark())
    # one energy evaluation (one kinetic term) per padded forward transform:
    # the seed's, then one per trial step
    trials = plain["kinetic"] - 1
    accepted = len(res.history) - 1
    return [
        (
            "padded forwards = 1 + trial evaluations",
            m["spectral.fft_padded.calls"] == plain["fft_padded"] == 1 + trials,
            f"traced {m['spectral.fft_padded.calls']}, counted {plain['fft_padded']}, "
            f"trials {trials}",
        ),
        (
            "minimize.iterations = MinimizerResult.iterations",
            m["minimize.iterations"] == res.iterations,
            f"{m['minimize.iterations']} vs {res.iterations}",
        ),
        ("accepted steps <= trial evaluations", 0 < accepted <= trials, f"{accepted} <= {trials}"),
    ]


def quantile_p90(samples: list):
    """p90 of the samples, or None when fewer than ten lie above it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pekar" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'pekar'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    warnings.filterwarnings("ignore", message=r"(translated seed leaks|density support touches)")

    t0 = time.perf_counter()
    pk = importlib.import_module("pekar")
    cold_import_s = time.perf_counter() - t0
    if Path(pk.__file__).resolve().parent != (src / "pekar").resolve():
        print(f"error: pekar imported from {pk.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    pk, setups, ops_build = setup_runs(wl, tracer)
    first_op_s = time.perf_counter() - T_START

    passes, traced, layer = [], [], []
    t_timed = time.perf_counter()
    inputs = wl.draw(rng)
    while True:
        passes.append(timed_pass(wl, pk, inputs))
        if args.trace:
            mark = tracer.mark()
            tracer.install(pk)
            try:
                traced.append(timed_pass(wl, pk, inputs))
            finally:
                tracer.uninstall()
            layer.append(tracing.layer_metrics(tracer, mark, tracer.mark()))
        # start another round only if it is expected to end within half a
        # round of the requested time, so that runs average --seconds
        elapsed = time.perf_counter() - t_timed
        per_round = elapsed / len(passes)
        if elapsed + per_round / 2 > args.seconds:
            break
        if not args.trace:
            inputs = wl.draw(rng)

    checks = [c for p in passes + traced for c in p.checks]
    if args.trace:
        ref = passes[0].values
        same = all(
            np.array_equal(np.asarray(p.values), np.asarray(ref)) for p in passes + traced
        )
        checks.append(("traced energies bit-identical to untraced", same, ""))
        checks += hand_count(pk)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.jsonl.gz")

    failed = [c for c in checks if not c[1]]
    for label, ok, detail in failed:
        print(f"FAILED {label} {detail}")

    op_s = [s for p in passes for s in p.op_s]
    walls = [p.wall_s for p in passes]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"passes {len(passes)} operations {len(op_s)} checks {len(checks)}")
    print(f"pass seconds {[round(w, 3) for w in walls]}")
    print(f"pass iterations {[p.iterations for p in passes]}")
    print(f"failed_ratio {len(failed) / len(checks):.4g} ({len(failed)}/{len(checks)})")
    print(f"cold_import_s {cold_import_s:.4f}; process start to first timed operation "
          f"{first_op_s:.4f} s; set-ups {[round(s, 4) for s in setups]}")
    p90 = quantile_p90(op_s)
    if p90 is not None:
        print(f"op_s_p90 {p90:.6g} s (n={len(op_s)})")

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "op_s_p50": statistics.median(op_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        counts = {"wall_s": len(walls), "op_s_p50": len(op_s), "peak_rss_mb": 1,
                  "setup_s": len(setups)}
        units = END_TO_END_UNITS
    else:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["spectral.ops_build.s"] = statistics.median(ops_build)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        counts = {k: len(layer) for k in metrics}
        units = tracing.PER_LAYER_UNITS
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit} (n={counts[name]})")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
