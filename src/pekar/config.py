"""Experiment configuration: one JSON file drives validation, hashing, runs.

Schema, every key shown (the experiment's entry in ``pekar.cli.EXPERIMENTS`` declares the
sections it needs and those it reads, and its params; any other section or key is an error):

    {
      "grid":        {"n": 128, "L": 48.0},
      "radial_grid": {"m": 4096, "r_max": 24.0},
      "kgrid":       {"n_k": 16, "k_max": 2.0},
      "potential":   {"kind": "annular", "R": 8.0, "lam": 1.0},
      "solver":      {"max_iters": 2000, "tolerance_energy": 1e-9,
                      "tolerance_residual": 1e-5,
                      "seed": {"kind": "translated_q", "R": 8.0}},
      "experiment":  {"name": "sweep-R", "params": {"R_list": [6, 8, 10]}},
      "output_dir":  "out",
      "strict": false
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from typing import Any, Optional

from .fields import Grid3D, RadialGrid, finite_real
from .ansatz import KGrid
from .minimize import SeedSpec, SolveOptions
from .potentials import PotentialSpec, check_in_box
from .spectral import memory_estimate


SECTIONS = ("grid", "radial_grid", "kgrid", "potential", "solver")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def parsed(path: str, parse, *args):
    """parse(*args), with a TypeError, ValueError or OverflowError from
    malformed values turned into a ConfigError naming ``path``."""
    try:
        return parse(*args)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(path, str(e)) from e


def number(path: str, value) -> float:
    """A finite JSON number (not a bool) as a float."""
    return parsed(path, finite_real, "value", value)


def integer(path: str, value) -> int:
    """A positive JSON integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"must be an integer >= 1, got {value!r}")
    return value


def _object(path: str, value) -> dict:
    """``value`` if it is a JSON object, else a ConfigError naming ``path``."""
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    return value


def _only(path: str, obj: dict, allowed) -> None:
    """Raise a ConfigError naming ``path`` + the first key of ``obj`` not in ``allowed``."""
    for k in obj:
        if k not in allowed:
            raise ConfigError(path + k, f"takes only {sorted(allowed)}")


def spec(path: str, cls, value, **defaults):
    """cls(**defaults, **value) for a JSON object ``value`` whose keys are all
    fields of the dataclass ``cls``, or, when ``cls.KINDS`` has its kind,
    ``kind`` and the fields that kind reads; errors name ``path`` or the key's path."""
    obj = _object(path, value)
    kind = obj.get("kind", getattr(cls, "kind", None))
    if isinstance(kind, str) and kind in getattr(cls, "KINDS", {}):
        _only(f"{path}.", obj, ("kind", *cls.KINDS[kind]))
    else:  # no kinds, or an unknown kind, which the constructor names
        _only(f"{path}.", obj, {f.name for f in dc_fields(cls)})
    return parsed(path, lambda: cls(**{**defaults, **obj}))


def _section(data: dict, path: str, fields: dict, build):
    """build(*the section's values, each checked by its entry in ``fields``),
    or None when the section is absent."""
    if path not in data:
        return None
    sec = _object(path, data[path])
    _only(f"{path}.", sec, fields)
    for k in fields:
        if k not in sec:
            raise ConfigError(f"{path}.{k}", "missing required field")
    values = [check(f"{path}.{k}", sec[k]) for k, check in fields.items()]
    return parsed(path, build, *values)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = dc_field(default_factory=dict)
    grid: Optional[Grid3D] = None
    radial_grid: Optional[RadialGrid] = None
    kgrid: Optional[KGrid] = None
    potential: Optional[PotentialSpec] = None
    solver: SolveOptions = dc_field(default_factory=SolveOptions)
    output_dir: str = "out"
    strict: bool = False
    raw: dict = dc_field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict, overrides: Optional[dict] = None) -> "ExperimentConfig":
        """The config ``data`` describes, each of ``overrides`` in place of the
        top-level field of that name; ``raw`` stays ``data``."""
        from .cli import EXPERIMENTS  # the registry sits next to its runners

        raw, data = _object("config", data), {**data, **(overrides or {})}
        _only("", data, ("experiment", *SECTIONS, "output_dir", "strict"))
        if "experiment" not in data:
            raise ConfigError("config.experiment", "missing required field")
        exp = data["experiment"]
        if not isinstance(exp, dict) or "name" not in exp:
            raise ConfigError("experiment.name", "missing required field")
        _only("experiment.", exp, ("name", "params"))
        name = exp["name"]
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(
                "experiment.name", f"unknown experiment {name!r}; one of {tuple(EXPERIMENTS)}"
            )
        entry = EXPERIMENTS[name]
        given = _object("experiment.params", exp.get("params", {}))
        _only("experiment.params.", given, entry.params)

        grid = _section(data, "grid", {"n": integer, "L": number}, Grid3D)
        rgrid = _section(data, "radial_grid", {"m": integer, "r_max": number}, RadialGrid)
        kgrid = _section(data, "kgrid", {"n_k": integer, "k_max": number}, KGrid)
        pot = spec("potential", PotentialSpec, data["potential"]) if "potential" in data else None

        output_dir = data.get("output_dir", "out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir", f"must be a non-empty string, got {output_dir!r}")
        strict = data.get("strict", False)
        if not isinstance(strict, bool):
            raise ConfigError("strict", f"must be true or false, got {strict!r}")
        solver_data = dict(_object("solver", data.get("solver", {})))
        seed_spec = spec("solver.seed", SeedSpec, solver_data.pop("seed", {}))
        solver = spec("solver", SolveOptions, solver_data, seed=seed_spec)

        cfg = cls(
            experiment=name,
            params={**entry.params, **given},
            grid=grid,
            radial_grid=rgrid,
            kgrid=kgrid,
            potential=pot,
            solver=solver,
            output_dir=output_dir,
            strict=strict,
            raw=raw,
        )
        for section in entry.sections:
            if getattr(cfg, section) is None:
                raise ConfigError(section, f"experiment {name!r} requires the {section} section")
        if pot is not None and grid is not None and pot.kind == "annular":
            parsed("potential.R", check_in_box, pot.R, grid)
        if entry.check is not None:
            entry.check(cfg)
        for section in SECTIONS:
            if section in data and section not in entry.sections + entry.optional:
                raise ConfigError(section, f"experiment {name!r} does not read the {section} section")
        return cfg

    @classmethod
    def from_json(cls, path, overrides: Optional[dict] = None) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError("config", f"not valid JSON: {e}") from e
        return cls.from_dict(data, overrides)

    # -- reporting -----------------------------------------------------------

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def derived_report(self) -> dict:
        rep: dict[str, Any] = {"experiment": self.experiment}
        g, rg, kg = self.grid, self.radial_grid, self.kgrid
        if g is not None:
            rep["grid"] = {"n": g.n, "L": g.L, "dx": g.dx, "inscribed_radius": g.L / 2,
                           "memory_estimate_bytes": memory_estimate(g.n)}
        if rg is not None:
            rep["radial_grid"] = {"m": rg.m, "r_max": rg.r_max, "dr": rg.dr}
        if kg is not None:
            rep["kgrid"] = {"n_k": kg.n_k, "k_max": kg.k_max, "dk": kg.dk, "modes": kg.n_k**3}
        if self.potential is not None:
            p = {"kind": self.potential.kind}
            if self.potential.kind == "annular":
                p["R"] = self.potential.R
                p["lam"] = self.potential.lam
                if self.grid is not None:
                    p["support_margin"] = self.grid.L / 2 - (self.potential.R + 1)
            rep["potential"] = p
        rep["solver"] = {
            "max_iters": self.solver.max_iters,
            "tolerance_energy": self.solver.tolerance_energy,
            "tolerance_residual": self.solver.tolerance_residual,
            "seed_kind": self.solver.seed.kind,
        }
        rep["strict"] = self.strict
        return rep
