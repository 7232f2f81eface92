"""Batch front-end: validate configs, run experiments, export artifacts.

    pekar validate --config cfg.json
    pekar run --config cfg.json [--out DIR] [--workers N] [--strict] [--seed U64]

Exit codes: 0 success, 2 validation error, 3 solver non-convergence in
strict mode.  Every run writes a manifest.json carrying the config, its
hash, library versions, the RNG seed and wall times; identical config +
seed + worker count reproduces all numeric outputs bit-identically.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .angular import spherical_average
from .ansatz import alpha_scaling_check, min_product_energy
from .config import ConfigError, ExperimentConfig
from .energy import pekar_energy
from .experiments import (
    center_of_mass,
    fd_derivative,
    rotation_orbit_evidence,
    sweep_R,
)
from .fields import save_field, save_radial
from .minimize import minimize, minimize_radial, solve_free
from .potentials import mass_in_well
from .radial import strauss_bound_check


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, rows: list, columns: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _nonconverged(results) -> bool:
    return any(not r for r in results)


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> tuple:
    """Returns (artifacts dict, list of converged flags)."""
    arts: dict = {}
    converged: list = []
    name = cfg.experiment

    if name == "solve-free":
        res = solve_free(cfg.radial_grid, cfg.solver)
        converged.append(res.converged)
        b = res.energy
        virial_defect = abs(b.coulomb - 2 * b.kinetic) / b.coulomb
        margin = strauss_bound_check(res.psi)
        payload = {
            "e0": b.total,
            "energy": b.as_dict(),
            "virial_defect": virial_defect,
            "strauss_margin": margin,
            "residual_norm": res.residual.residual_norm,
            "mu": res.residual.mu,
            "iterations": res.iterations,
            "converged": res.converged,
        }
        (out_dir / "free.json").write_text(json.dumps(payload, indent=2))
        save_radial(out_dir / "q.csv", res.psi)
        arts["free.json"] = payload
        arts["q.csv"] = "radial minimizer profile"

    elif name == "solve-radial":
        Vr = cfg.potential.build_radial(cfg.radial_grid)
        res = minimize_radial(Vr, cfg.solver)
        converged.append(res.converged)
        payload = {
            "e_rad": res.energy.total,
            "energy": res.energy.as_dict(),
            "residual_norm": res.residual.residual_norm,
            "mu": res.residual.mu,
            "iterations": res.iterations,
            "converged": res.converged,
            "strauss_margin": strauss_bound_check(res.psi),
        }
        (out_dir / "radial.json").write_text(json.dumps(payload, indent=2))
        save_radial(out_dir / "u_rad.csv", res.psi)
        arts["radial.json"] = payload

    elif name == "solve-full":
        V = cfg.potential.build(cfg.grid)
        res = minimize(V, cfg.solver)
        converged.append(res.converged)
        rho = res.psi.density()
        com = center_of_mass(rho)
        payload = {
            "e_full": res.energy.total,
            "energy": res.energy.as_dict(),
            "residual_norm": res.residual.residual_norm,
            "mu": res.residual.mu,
            "iterations": res.iterations,
            "converged": res.converged,
            "anisotropy": float(np.linalg.norm(com)),
            "center_of_mass": com.tolist(),
            "boundary_flag": res.boundary_flag,
        }
        if cfg.potential.kind == "annular":
            payload["well_mass"] = mass_in_well(rho, cfg.potential.R)
        (out_dir / "full.json").write_text(json.dumps(payload, indent=2))
        save_field(out_dir / "psi.field", res.psi)
        prof = spherical_average(rho)
        save_radial(out_dir / "density_profile.csv", prof)
        arts["full.json"] = payload

    elif name == "sweep-R":
        rows = sweep_R(
            cfg.params["R_list"], cfg.grid, cfg.radial_grid, cfg.solver, workers=cfg.workers
        )
        converged.extend(r.full_converged and r.rad_converged for r in rows)
        cols = [
            "R", "e_full", "e_rad", "trial_bound", "gap", "well_mass", "anisotropy", "basin",
            "full_converged", "rad_converged", "full_iterations", "rad_iterations",
        ]
        _write_csv(out_dir / "sweep.csv", [r.as_dict() for r in rows], cols)
        arts["sweep.csv"] = [r.as_dict() for r in rows]

    elif name == "perturb":
        V = cfg.potential.build(cfg.grid)
        zspec = cfg.z_spec()
        deltas = cfg.params.get("deltas", [0.04, 0.02, 0.01])
        rep = fd_derivative(V, zspec, cfg.grid, cfg.solver, deltas=deltas)
        converged.append(not rep.flagged)
        cols = ["delta", "e_plus", "e_minus", "forward", "backward", "central",
                "pairing", "richardson", "defect"]
        _write_csv(out_dir / "derivative.csv", rep.as_rows(), cols)
        arts["derivative.csv"] = rep.as_rows()

    elif name == "product-energy":
        alpha = float(cfg.params.get("alpha", 1.0))
        sigma = float(cfg.params.get("sigma", 1.0))
        from .minimize import radial_gaussian_seed

        psi = radial_gaussian_seed(cfg.grid, sigma)
        V = cfg.potential.build(cfg.grid) if cfg.potential else None
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
        (out_dir / "product.json").write_text(json.dumps(payload, indent=2))
        arts["product.json"] = payload
        converged.append(True)

    elif name == "orbit":
        n_seeds = int(cfg.params.get("n_seeds", 2))
        rep = rotation_orbit_evidence(
            cfg.potential,
            n_seeds,
            cfg.grid,
            cfg.solver,
            rng_seed=cfg.rng_seed,
            recenter=bool(cfg.params.get("recenter", cfg.potential.kind != "annular")),
        )
        converged.extend(rep.converged)
        rows = [
            {"seed_index": i, "energy": e, "converged": c}
            for i, (e, c) in enumerate(zip(rep.energies, rep.converged))
        ]
        _write_csv(out_dir / "orbit.csv", rows, ["seed_index", "energy", "converged"])
        arts["orbit.csv"] = rows
        arts["orbit_summary"] = {
            "energy_spread": rep.energy_spread,
            "max_profile_mismatch": rep.max_profile_mismatch,
        }
        (out_dir / "orbit_summary.json").write_text(json.dumps(arts["orbit_summary"], indent=2))

    else:  # pragma: no cover - guarded by config validation
        raise ConfigError("experiment.name", f"unhandled experiment {name!r}")

    return arts, converged


def cmd_validate(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
    except (ConfigError, OSError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    print("ok")
    print(json.dumps(cfg.derived_report(), indent=2))
    return 0


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.workers is not None:
            cfg.workers = int(args.workers)
        if args.seed is not None:
            cfg.rng_seed = int(args.seed)
        if args.strict:
            cfg.strict = True
    except (ConfigError, OSError) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    arts, converged = run_experiment(cfg, out_dir)
    wall = time.time() - t0
    manifest = {
        "config": cfg.raw,
        "config_hash": cfg.config_hash(),
        "experiment": cfg.experiment,
        "rng_seed": cfg.rng_seed,
        "workers": cfg.workers,
        "strict": cfg.strict,
        "wall_time_s": wall,
        "versions": {
            "pekar": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "artifacts": sorted(a for a in arts),
        "all_converged": all(converged) if converged else True,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(arts)} artifact(s) to {out_dir} in {wall:.1f}s")
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
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--workers", default=None, type=int, help="worker pool size")
    p_run.add_argument("--strict", action="store_true", help="fail on non-convergence")
    p_run.add_argument("--seed", default=None, type=int, help="RNG seed override")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and report derived quantities")
    p_val.add_argument("--config", required=True, help="path to the JSON config")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
