"""Batch front-end: validate configs, run experiments, export artifacts.

    pekar validate --config cfg.json
    pekar run --config cfg.json [--out DIR] [--strict]

Exit codes: 0 success, 2 validation error (an unknown config key is one),
3 solver non-convergence in strict mode.  Each flag given to ``run``
overrides the config field of the same meaning and is checked like it.
Every run writes a manifest.json carrying the config, its hash, library
versions, wall times and the name of every other file written.  Nothing
draws random numbers, so an identical config reproduces all numeric outputs
bit-identically.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .angular import spherical_average
from .ansatz import alpha_scaling_check, min_product_energy
from .config import ConfigError, ExperimentConfig, number, parsed, spec
from .energy import pekar_energy
from .experiments import (
    ORBIT_DIRECTIONS,
    _check_deltas,
    center_of_mass,
    fd_derivative,
    rotation_orbit_evidence,
    sweep_R,
)
from .fields import Field3D, save_field, save_radial
from .minimize import build_seed, minimize, minimize_radial, radial_gaussian_seed, solve_free
from .potentials import PotentialSpec, check_in_box, mass_in_well
from .radial import strauss_bound_check
from .spectral import ops_for


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write(out_dir: Path, files: dict) -> None:
    """Write each file by the type of its content: a dict as JSON, a list of
    rows as CSV (one column per key of the first row, in its order), a
    Field3D as a field snapshot, a RadialField as a radial profile."""
    for name, content in files.items():
        path = out_dir / name
        if isinstance(content, dict):
            path.write_text(json.dumps(content, indent=2))
        elif isinstance(content, list):
            with open(path, "w") as fh:
                fh.write(",".join(content[0]) + "\n")
                for row in content:
                    fh.write(",".join(_fmt(v) for v in row.values()) + "\n")
        elif isinstance(content, Field3D):
            save_field(path, content)
        else:
            save_radial(path, content)


def _solve_summary(res) -> dict:
    el = res.residual
    return {"residual_norm": el.residual_norm, "mu": el.mu,
            "iterations": res.iterations, "converged": res.converged, "stop": res.stop}


def _run_solve_free(cfg: ExperimentConfig) -> tuple:
    res = solve_free(cfg.radial_grid, cfg.solver)
    b = res.energy
    payload = {
        "e0": b.total,
        "energy": b.as_dict(),
        "virial_defect": abs(b.coulomb - 2 * b.kinetic) / b.coulomb,
        "strauss_margin": strauss_bound_check(res.psi),
        **_solve_summary(res),
    }
    return {"free.json": payload, "q.csv": res.psi}, [res.converged]


def _run_solve_radial(cfg: ExperimentConfig) -> tuple:
    res = minimize_radial(cfg.potential.build_radial(cfg.radial_grid), cfg.solver)
    payload = {
        "e_rad": res.energy.total,
        "energy": res.energy.as_dict(),
        **_solve_summary(res),
        "strauss_margin": strauss_bound_check(res.psi),
    }
    return {"radial.json": payload, "u_rad.csv": res.psi}, [res.converged]


def _solve_seeded(cfg: ExperimentConfig, V: Field3D):
    """minimize(V) from the config's seed, a translated Q solved on the
    config's radial grid when it has one."""
    seed = build_seed(cfg.solver.seed, cfg.grid, cfg.radial_grid)
    return minimize(V, cfg.solver, seed_field=seed)


def _run_solve_full(cfg: ExperimentConfig) -> tuple:
    res = _solve_seeded(cfg, cfg.potential.build(cfg.grid))
    rho = res.psi.density()
    com = center_of_mass(rho)
    payload = {
        "e_full": res.energy.total,
        "energy": res.energy.as_dict(),
        **_solve_summary(res),
        "anisotropy": float(np.linalg.norm(com)),
        "center_of_mass": com.tolist(),
        "boundary_flag": bool(ops_for(cfg.grid).boundary_mass(rho.values) > 1e-6),
    }
    if cfg.potential.kind == "annular":
        payload["well_mass"] = mass_in_well(rho, cfg.potential.R)
    files = {"full.json": payload, "psi.field": res.psi,
             "density_profile.csv": spherical_average(rho)}
    return files, [res.converged]


def _run_sweep(cfg: ExperimentConfig) -> tuple:
    rows = sweep_R(cfg.params["R_list"], cfg.grid, cfg.radial_grid, cfg.solver)
    return {"sweep.csv": [r.as_dict() for r in rows]}, [not r.flagged for r in rows]


def _run_perturb(cfg: ExperimentConfig) -> tuple:
    V = cfg.potential.build(cfg.grid)
    zspec = PotentialSpec(**cfg.params["z"])
    rep = fd_derivative(V, zspec, cfg.grid, cfg.solver, deltas=cfg.params["deltas"],
                        base=_solve_seeded(cfg, V))
    return {"derivative.csv": rep.as_rows()}, [not rep.flagged]


def _run_product_energy(cfg: ExperimentConfig) -> tuple:
    alpha = float(cfg.params["alpha"])
    sigma = float(cfg.params["sigma"])
    psi = radial_gaussian_seed(cfg.grid, sigma)
    V = cfg.potential.build(cfg.grid) if cfg.potential else None
    # the square completion is checked at α = 1; alpha enters only the scaling check
    e_prod, _ = min_product_energy(psi, cfg.kgrid, V, alpha=1.0)
    e_pek = pekar_energy(psi, V).total
    payload = {
        "alpha": alpha,
        "sigma": sigma,
        "min_product_energy": e_prod,
        "pekar_energy": e_pek,
        "square_completion_defect": abs(e_prod - e_pek),
        "alpha_scaling_defect": alpha_scaling_check(psi, alpha, cfg.kgrid, V),
    }
    return {"product.json": payload}, [True]


def _run_orbit(cfg: ExperimentConfig) -> tuple:
    rep = rotation_orbit_evidence(cfg.potential, cfg.grid, cfg.solver, rgrid=cfg.radial_grid)
    rows = [{"direction": d, "energy": e, "converged": c}
            for d, e, c in zip(ORBIT_DIRECTIONS, rep.energies, rep.converged)]
    summary = {"energy_spread": rep.energy_spread, "max_profile_mismatch": rep.max_profile_mismatch}
    return {"orbit.csv": rows, "orbit_summary.json": summary}, list(rep.converged)


def _numbers(path: str, values) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(path, "must be a non-empty list of numbers")
    return [number(f"{path}[{i}]", v) for i, v in enumerate(values)]


def _check_seed_in_box(cfg: ExperimentConfig) -> None:
    """A translated_q seed must keep Q inside the box along its direction:
    build it as the run does."""
    if cfg.solver.seed.kind == "translated_q":
        parsed("solver.seed.R", build_seed, cfg.solver.seed, cfg.grid, cfg.radial_grid)


def _check_radial(cfg: ExperimentConfig) -> None:
    if not cfg.potential.is_radial:
        raise ConfigError("potential.kind", "radial solve needs a radial potential")


def _check_sweep(cfg: ExperimentConfig) -> None:
    for i, R in enumerate(_numbers("experiment.params.R_list", cfg.params["R_list"])):
        path = f"experiment.params.R_list[{i}]"
        parsed(path, lambda: PotentialSpec(kind="annular", R=R))
        parsed(path, check_in_box, R, cfg.grid)


def _check_perturb(cfg: ExperimentConfig) -> None:
    z = cfg.params["z"]
    if not z:
        raise ConfigError("experiment.params.z", "missing perturbation spec")
    zspec = spec("experiment.params.z", PotentialSpec, z)
    if not zspec.is_radial:
        raise ConfigError("experiment.params.z", "perturbation must be radial")
    deltas = _numbers("experiment.params.deltas", cfg.params["deltas"])
    parsed("experiment.params.deltas", _check_deltas, deltas)
    _check_seed_in_box(cfg)


def _check_product_energy(cfg: ExperimentConfig) -> None:
    for k in ("alpha", "sigma"):
        if number(f"experiment.params.{k}", cfg.params[k]) <= 0:
            raise ConfigError(f"experiment.params.{k}", f"must be positive, got {cfg.params[k]}")


def _check_orbit(cfg: ExperimentConfig) -> None:
    if cfg.potential.kind != "annular":
        raise ConfigError("potential.kind", "orbit translates Q into an annular well")
    if "seed" in cfg.raw.get("solver", {}):
        raise ConfigError("solver.seed", "orbit seeds every solve with a translate of Q")


class Experiment(NamedTuple):
    """What an experiment needs and how it runs."""

    sections: tuple  # config sections that must be present
    optional: tuple  # config sections read when present; any other section is an error
    params: dict  # every param it accepts -> default (None: none; the check decides)
    run: Callable[[ExperimentConfig], tuple]  # -> (files: name -> content, converged flags)
    check: Optional[Callable[[ExperimentConfig], None]] = None  # raises ConfigError


EXPERIMENTS: dict[str, Experiment] = {
    "solve-free": Experiment(("radial_grid",), ("solver",), {}, _run_solve_free),
    "solve-radial": Experiment(("radial_grid", "potential"), ("solver",), {}, _run_solve_radial,
                               _check_radial),
    "solve-full": Experiment(("grid", "potential"), ("radial_grid", "solver"), {}, _run_solve_full,
                             _check_seed_in_box),
    "sweep-R": Experiment(("grid", "radial_grid"), ("solver",), {"R_list": None}, _run_sweep,
                          _check_sweep),
    "perturb": Experiment(("grid", "potential"), ("radial_grid", "solver"),
                          {"z": None, "deltas": (0.04, 0.02, 0.01)}, _run_perturb, _check_perturb),
    # alpha drives only alpha_scaling_defect: min_product_energy and
    # square_completion_defect are computed at α = 1 whatever alpha is
    "product-energy": Experiment(("grid", "kgrid"), ("potential",), {"alpha": 1.0, "sigma": 1.0},
                                 _run_product_energy, _check_product_energy),
    "orbit": Experiment(("grid", "potential"), ("radial_grid", "solver"), {}, _run_orbit,
                        _check_orbit),
}


def _load(path, overrides: dict) -> Optional[ExperimentConfig]:
    """The parsed config, each of ``overrides`` in place of the file's
    top-level field of that name and checked like it."""
    try:
        return ExperimentConfig.from_json(path, overrides)
    except (ConfigError, OSError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return None


def cmd_validate(args) -> int:
    cfg = _load(args.config, {})
    if cfg is None:
        return 2
    print("ok")
    print(json.dumps(cfg.derived_report(), indent=2))
    return 0


def cmd_run(args) -> int:
    flags = {k: getattr(args, k) for k in ("output_dir", "strict")}
    cfg = _load(args.config, {k: v for k, v in flags.items() if v is not None})
    if cfg is None:
        return 2
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    files, converged = EXPERIMENTS[cfg.experiment].run(cfg)
    _write(out_dir, files)
    wall = time.time() - t0
    manifest = {
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "experiment": cfg.experiment,
        "strict": cfg.strict,
        "wall_time_s": wall,
        "versions": {
            "pekar": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "artifacts": sorted(files),
        "all_converged": all(converged) if converged else True,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(files)} artifact(s) to {out_dir} in {wall:.1f}s")
    if cfg.strict and converged and not all(converged):
        print("strict mode: at least one solve did not converge", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pekar", description="Pekar/Choquard variational experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    # each flag given overrides the config field named by its dest
    p_run.add_argument("--out", dest="output_dir", help="output directory")
    p_run.add_argument("--strict", action="store_const", const=True, help="fail on non-convergence")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and report derived quantities")
    p_val.add_argument("--config", required=True, help="path to the JSON config")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
