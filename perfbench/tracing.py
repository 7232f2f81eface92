"""Spans and counters recorded from outside the package.

The tracer wraps the public functions of each layer module of ``pekar``
where they are looked up: the attribute on the defining module and every
other module (or the package) that imported the same object.  Methods of
``SpectralOps``, ``KGrid`` and ``Field3D`` are wrapped on the class.  Each
call records a span ``(name, start, end, parent)``; spans stay in memory
and are written out when the run ends.  Nothing in ``pekar`` is edited,
and uninstalling restores every original attribute.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "spectral",
    "minimize",
    "radial",
    "energy",
    "experiments",
    "potentials",
    "angular",
    "ansatz",
    "fields",
)

# module-level names whose span would clash with a method span of the same layer
_RENAMED = {("spectral", "coulomb_potential"): "spectral.coulomb_potential_field"}

# (layer, class, method) -> span name
_METHODS = {
    ("spectral", "SpectralOps", "__init__"): "spectral.ops_build",
    ("spectral", "SpectralOps", "fft"): "spectral.fft",
    ("spectral", "SpectralOps", "ifft"): "spectral.ifft",
    ("spectral", "SpectralOps", "fft_padded"): "spectral.fft_padded",
    ("spectral", "SpectralOps", "kinetic"): "spectral.kinetic",
    ("spectral", "SpectralOps", "coulomb_energy"): "spectral.coulomb_energy",
    ("spectral", "SpectralOps", "coulomb_potential"): "spectral.coulomb_potential",
    ("spectral", "SpectralOps", "neg_laplacian"): "spectral.neg_laplacian",
    ("spectral", "SpectralOps", "precondition"): "spectral.precondition",
    ("ansatz", "KGrid", "weights"): "ansatz.KGrid.weights",
    ("ansatz", "KGrid", "cell_inv_k2"): "ansatz.KGrid.cell_inv_k2",
    ("fields", "Field3D", "__init__"): "fields.Field3D.init",
    ("potentials", "PotentialSpec", "build"): "potentials.build",
    ("potentials", "PotentialSpec", "build_radial"): "potentials.build_radial",
}

# third-party names looked up inside a layer module: (module, attribute) -> span name
_FOREIGN = {("minimize", "solveh_banded"): "minimize.banded_solve"}

# the two solvers are reported under their own names
_SOLVERS = {
    ("minimize", "minimize"): "minimize",
    ("minimize", "minimize_radial"): "minimize_radial",
}


def padded_bytes(npad: int) -> int:
    """Computed bytes of one padded transform: the real array plus the
    half-spectrum, each touched once (a lower bound on traffic)."""
    return 8 * npad**3 + 16 * npad * npad * (npad // 2 + 1)


class Tracer:
    """In-memory spans and counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list = []
        self.extra: dict = {}  # span index -> (iterations, accepted steps) or padded bytes
        self._patches: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if on_call is not None:
                on_call(idx, args)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_return is not None:
                on_return(idx, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, pkg: types.ModuleType) -> None:
        """Wrap every traced name of ``pkg`` wherever it is looked up."""
        prefix = pkg.__name__
        mods = {layer: sys.modules[f"{prefix}.{layer}"] for layer in LAYERS}
        homes = [pkg] + [m for n, m in sys.modules.items() if n.startswith(prefix + ".")]

        def record_iters(idx, res):
            self.extra[idx] = (res.iterations, len(res.history) - 1)

        def count_padded(idx, args):
            self.extra[idx] = padded_bytes(args[0].npad)

        hooks = {
            "minimize": {"on_return": record_iters},
            "minimize_radial": {"on_return": record_iters},
            "experiments.perturbed_energy": {"on_return": record_iters},
            "spectral.fft_padded": {"on_call": count_padded},
            "spectral.coulomb_potential": {"on_call": count_padded},
        }

        targets = {}  # id(original) -> (original, span name)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = (layer, attr)
                name = _SOLVERS.get(key) or _RENAMED.get(key) or f"{layer}.{attr}"
                targets[id(obj)] = (obj, name)
        for (layer, attr), name in _FOREIGN.items():
            obj = getattr(mods[layer], attr)
            targets[id(obj)] = (obj, name)

        wrapped = {
            key: self._wrap(name, obj, **hooks.get(name, {}))
            for key, (obj, name) in targets.items()
        }
        for home in homes:
            for attr, obj in list(vars(home).items()):
                if id(obj) in wrapped and obj is targets[id(obj)][0]:
                    self._patch(home, attr, wrapped[id(obj)])

        for (layer, cls_name, meth), name in _METHODS.items():
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth, self._wrap(name, fn, **hooks.get(name, {})))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def aggregate(self, start: int = 0, stop: int | None = None) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, over
        spans[start:stop].  Self time subtracts the direct children's
        durations, found through the parent links."""
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            p = parent - start
            if 0 <= p < len(spans):
                child[p] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, t0, t1, _), c in zip(spans, child):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - c
        return dict(out)

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        """All spans as JSON lines [name, start, end, parent], gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

_CALLS_S_SELF = [
    f"spectral.{f}"
    for f in (
        "fft_padded",
        "coulomb_potential",
        "coulomb_energy",
        "kinetic",
        "precondition",
        "neg_laplacian",
        "fft",
        "ifft",
    )
] + ["minimize", "minimize_radial"]

_CALLS_S = (
    [
        "minimize.banded_solve",
        "experiments.perturbed_energy",
        "experiments.rotational_density_check",
    ]
    + [f"radial.{f}" for f in ("radial_coulomb", "radial_coulomb_potential", "apply_kinetic_form")]
    + [
        f"ansatz.{f}"
        for f in (
            "KGrid.weights",
            "KGrid.cell_inv_k2",
            "density_fourier",
            "min_product_energy",
            "alpha_scaling_check",
        )
    ]
    + [f"angular.{f}" for f in ("shell_project", "shell_profile", "spherical_average")]
    + [
        f"potentials.{f}"
        for f in ("build", "build_radial", "rotational_average", "potential_energy")
    ]
    + ["energy.pekar_energy", "energy.free_energy", "fields.normalize", "fields.Field3D.init"]
)

# name -> unit, in report order; the per-layer set of BENCHMARK.json
PER_LAYER_UNITS: dict = {}
for _n in _CALLS_S_SELF:
    PER_LAYER_UNITS.update({f"{_n}.calls": "count", f"{_n}.s": "s", f"{_n}.self_s": "s"})
for _n in _CALLS_S:
    PER_LAYER_UNITS.update({f"{_n}.calls": "count", f"{_n}.s": "s"})
PER_LAYER_UNITS.update(
    {
        "spectral.padded_bytes_computed": "B",
        "spectral.ops_build.s": "s",
        "minimize.iterations": "count",
        "minimize.s_per_iter": "s",
        "minimize.evals_per_iter": "ratio",
        "minimize.accept_ratio": "ratio",
        "minimize_radial.iterations": "count",
        "minimize_radial.evals_per_iter": "ratio",
        "experiments.fd_derivative.s": "s",
        "experiments.perturbed_energy.iterations": "count",
        "experiments.warm_to_cold_iter_ratio": "ratio",
        "energy.check_coercivity.calls": "count",
        "trace.overhead_s": "s",
    }
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, start: int, stop: int) -> dict:
    """Per-layer numbers over spans[start:stop] (one traced pass).

    ``spectral.ops_build.s`` and ``trace.overhead_s`` are measured by the
    caller and are not filled here.
    """
    agg = tr.aggregate(start, stop)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict = {}
    for n in _CALLS_S_SELF:
        rec = agg.get(n, empty)
        out.update({f"{n}.calls": rec["calls"], f"{n}.s": rec["s"], f"{n}.self_s": rec["self_s"]})
    for n in _CALLS_S:
        rec = agg.get(n, empty)
        out.update({f"{n}.calls": rec["calls"], f"{n}.s": rec["s"]})

    # counts that need the parent links or the solver results
    iters = {"minimize": 0, "minimize_radial": 0, "experiments.perturbed_energy": 0}
    accepted = {"minimize": 0, "minimize_radial": 0}
    cold = []  # iterations of 3D solves not under perturbed_energy
    padded = 0
    evals = {"minimize": 0, "minimize_radial": 0}
    for idx in range(start, stop):
        name = tr.spans[idx][0]
        extra = tr.extra.get(idx)
        if name in iters:
            iters[name] += extra[0]
            if name in accepted:
                accepted[name] += extra[1]
            if name == "minimize" and not tr.has_ancestor(idx, "experiments.perturbed_energy"):
                cold.append(extra[0])
        elif name in ("spectral.fft_padded", "spectral.coulomb_potential"):
            padded += extra
            if name == "spectral.fft_padded" and tr.has_ancestor(idx, "minimize"):
                evals["minimize"] += 1
        elif name == "radial.radial_coulomb" and tr.has_ancestor(idx, "minimize_radial"):
            evals["minimize_radial"] += 1

    # each solve evaluates its seed once before the first trial
    trials = {k: evals[k] - out[f"{k}.calls"] for k in evals}
    warm_calls = out["experiments.perturbed_energy.calls"]
    out.update(
        {
            "spectral.padded_bytes_computed": padded,
            "minimize.iterations": iters["minimize"],
            "minimize.s_per_iter": _ratio(out["minimize.s"], iters["minimize"]),
            "minimize.evals_per_iter": _ratio(trials["minimize"], iters["minimize"]),
            "minimize.accept_ratio": _ratio(accepted["minimize"], trials["minimize"]),
            "minimize_radial.iterations": iters["minimize_radial"],
            "minimize_radial.evals_per_iter": _ratio(
                trials["minimize_radial"], iters["minimize_radial"]
            ),
            "experiments.fd_derivative.s": agg.get("experiments.fd_derivative", empty)["s"],
            "experiments.perturbed_energy.iterations": iters["experiments.perturbed_energy"],
            "experiments.warm_to_cold_iter_ratio": _ratio(
                _ratio(iters["experiments.perturbed_energy"], warm_calls),
                _ratio(sum(cold), len(cold)),
            ),
            "energy.check_coercivity.calls": agg.get("energy.check_coercivity", empty)["calls"],
        }
    )
    return out
