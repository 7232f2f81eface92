"""The two benchmark workloads, driven through the public ``pekar`` API.

Each workload has three steps:

* ``setup(pk)`` builds what every pass reuses (grids, potentials, spectral
  operators, the free minimizer Q) on a freshly imported package ``pk``;
* ``draw(rng)`` draws the inputs of one pass from the run's seeded
  generator, as plain numbers and arrays;
* ``run(pk, inputs)`` does one pass and returns its operation times, the
  energies it produced and its correctness checks.

The tolerances are the acceptance suite's (``tests/test_acceptance.py``)
and the unit tests' where the suite states none; none is loosened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

# solver settings of the acceptance suite
RADIAL_GRID = (4096, 24.0)
RADIAL_TOL = 1e-6
FULL_TOL = 1e-5
MAX_ITERS = 2000
COMBINED_SOLVER_TOL = 2e-4


@dataclass
class PassResult:
    op_s: list = field(default_factory=list)  # wall seconds per operation
    values: list = field(default_factory=list)  # energies compared bit for bit
    checks: list = field(default_factory=list)  # (label, ok, detail)
    iterations: int = 0  # solver iterations, summed
    wall_s: float = 0.0

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, bool(ok), detail))


class Workload:
    name = ""

    def setup(self, pk) -> None:
        self.rgrid = pk.RadialGrid(*RADIAL_GRID)
        self.radial_opts = pk.SolveOptions(max_iters=MAX_ITERS, tolerance_residual=RADIAL_TOL)
        self.full_opts = pk.SolveOptions(max_iters=MAX_ITERS, tolerance_residual=FULL_TOL)
        self.free = pk.solve_free(self.rgrid, self.radial_opts)

    def draw(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def run(self, pk, inputs: dict) -> PassResult:
        raise NotImplementedError


class WellDeriv(Workload):
    """R=8 well, per pass: the radial minimum e_rad, a cold 3D solve from Q
    translated along a lattice axis, then ``fd_derivative`` with a seeded
    radial bump (six warm solves)."""

    name = "well_deriv"
    N, L, R = 32, 40.0, 8.0
    DELTAS = (0.04, 0.02, 0.01)
    AXES = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))

    def setup(self, pk) -> None:
        super().setup(pk)
        self.grid = pk.Grid3D(self.N, self.L)
        self.spec = pk.PotentialSpec(kind="annular", R=self.R)
        self.V = self.spec.build(self.grid)
        pk.spectral.ops_for(self.grid)
        self.rad_opts = replace(self.radial_opts, seed=pk.SeedSpec(kind="translated_q", R=self.R))

    def draw(self, rng):
        return {
            "axis": self.AXES[int(rng.integers(len(self.AXES)))],
            "center": float(rng.uniform(4.8, 5.2)),
            "width": float(rng.uniform(1.9, 2.1)),
        }

    def run(self, pk, inputs):
        out = PassResult()
        t0 = time.perf_counter()
        rad = pk.minimize_radial(self.spec.build_radial(self.rgrid), self.rad_opts)
        out.op_s.append(time.perf_counter() - t0)
        out.iterations += rad.iterations
        seed = pk.translate_seed(self.free.psi, self.R, self.grid, inputs["axis"])
        t0 = time.perf_counter()
        cold = pk.minimize(self.V, self.full_opts, seed_field=seed)
        out.op_s.append(time.perf_counter() - t0)
        out.iterations += cold.iterations
        Z = pk.PotentialSpec(
            kind="radial_bump", center=inputs["center"], width=inputs["width"], amplitude=1.0
        )
        # time each warm solve where fd_derivative looks perturbed_energy up
        exp = pk.experiments
        inner = exp.perturbed_energy

        def timed_solve(*args, **kwargs):
            t0 = time.perf_counter()
            res = inner(*args, **kwargs)
            out.op_s.append(time.perf_counter() - t0)
            out.iterations += res.iterations
            return res

        exp.perturbed_energy = timed_solve
        try:
            rep = pk.fd_derivative(
                self.V, Z, self.grid, self.full_opts, deltas=self.DELTAS, base=cold
            )
        finally:
            exp.perturbed_energy = inner

        e_full, e_rad = cold.energy.total, rad.energy.total
        margin = pk.strauss_bound_check(rad.psi)
        com = float(np.linalg.norm(pk.center_of_mass(cold.psi.density())))
        rel = rep.defect / abs(rep.pairing)
        out.values += [e_rad, e_full, *rep.e_plus, *rep.e_minus, rep.richardson, rep.pairing]
        out.check("radial solve converged", rad.converged, f"{rad.iterations} iterations")
        out.check("Strauss margin >= 0", margin >= 0.0, f"{margin:.4f}")
        out.check("cold solve converged", cold.converged, f"{cold.iterations} iterations")
        out.check("warm solves converged", not rep.flagged)
        gap = 10 * COMBINED_SOLVER_TOL
        out.check(f"e_full < e_rad - {gap:g}", e_full < e_rad - gap, f"{e_full:.6f} vs {e_rad:.6f}")
        out.check("|centre of mass| > 0.5", com > 0.5, f"{com:.3f}")
        out.check("Richardson defect <= 1e-2 relative", rel <= 1e-2, f"{rel:.2e}")
        for d, f, b, c in zip(rep.deltas, rep.forward, rep.backward, rep.central):
            ok = min(f, b) - 1e-12 <= c <= max(f, b) + 1e-12
            out.check(f"central between one-sided quotients at delta={d}", ok)
        return out


def _blobs(rng, n: int, L: float, widths: tuple, n_blobs: int = 4) -> np.ndarray:
    """Unnormalized mixture of randomly placed Gaussian bumps on the n³ box."""
    x = (np.arange(n) + 0.5) * (L / n) - L / 2
    vals = np.zeros((n, n, n))
    for _ in range(n_blobs):
        c = rng.uniform(-0.15 * L, 0.15 * L, size=3)
        s = rng.uniform(*widths)
        amp = rng.uniform(0.3, 1.0)
        gx, gy, gz = (np.exp(-((x - ci) ** 2) / (4 * s**2)) for ci in c)
        vals += amp * gx[:, None, None] * gy[None, :, None] * gz[None, None, :]
    return vals


class AnsatzHaar(Workload):
    """Product-ansatz (48³) and Haar-average (128³) diagnostics on seeded
    smooth densities; one diagnostic set per pass."""

    name = "ansatz_haar"
    DK = 0.125
    ALPHAS = (0.5, 2.0)
    QUAD_T = (0.5, 1.0)

    def setup(self, pk) -> None:
        super().setup(pk)
        self.g48 = pk.Grid3D(48, 16.0)
        self.g128 = pk.Grid3D(128, 40.0)
        pk.spectral.ops_for(self.g48)
        self.fields = {
            "x1^2": pk.PotentialSpec(kind="x1_squared").build(self.g128),
            "radial bump": pk.PotentialSpec(kind="radial_bump", center=5.0, width=2.0).build(
                self.g128
            ),
            "constant": pk.Field3D(self.g128, np.full(self.g128.shape, 0.7)),
        }
        pk.shell_profile(self.fields["constant"])  # fills the lattice-shell index

    def draw(self, rng):
        kg8 = (8, 8, 8)
        return {
            "psi48": _blobs(rng, 48, 16.0, (0.7, 1.2)),
            "psi8": _blobs(rng, 48, 16.0, (0.8, 1.6)),
            "dz": [rng.standard_normal(kg8) + 1j * rng.standard_normal(kg8) for _ in self.QUAD_T],
            "psi128": _blobs(rng, 128, 40.0, (0.8, 1.6)),
        }

    def run(self, pk, inputs):
        out = PassResult()
        psi = pk.normalize(pk.Field3D(self.g48, inputs["psi48"]))
        psi8 = pk.normalize(pk.Field3D(self.g48, inputs["psi8"]))
        u = pk.normalize(pk.Field3D(self.g128, inputs["psi128"]))
        t0 = time.perf_counter()

        # criterion 8: k-truncation halving and the quadratic identity
        e_free = pk.free_energy(psi)
        kgrids = {k_max: pk.KGrid(int(2 * k_max / self.DK), k_max) for k_max in (1.0, 2.0)}
        eps = {}
        for k_max, kg in kgrids.items():
            e_min, _ = pk.min_product_energy(psi, kg)
            eps[k_max] = abs(e_min - e_free)
        ratio = eps[2.0] / eps[1.0]
        kg8 = pk.KGrid(8, 1.0)
        e_opt, disp = pk.min_product_energy(psi8, kg8)
        w = kg8.weights()
        quad = []
        for t, dz in zip(self.QUAD_T, inputs["dz"]):
            pert = pk.PhononDisplacement(kg8, disp.z + t * dz, 1.0)
            lhs = pk.product_energy(psi8, pert) - e_opt
            rhs = t**2 * float(np.sum(w * np.abs(dz) ** 2))
            quad.append((lhs, rhs))
        # alpha scaling: the relative defect is the same at every alpha
        d1 = eps[1.0] / abs(e_free)
        alpha_d = [pk.alpha_scaling_check(psi, a, kgrids[1.0]) for a in self.ALPHAS]

        # criterion 7: Fubini defects of the Haar average, and the profiles
        fubini = [pk.rotational_density_check(u, W) for W in self.fields.values()]
        rho = u.density()
        _, means, counts = pk.shell_profile(rho)
        prof = pk.spherical_average(rho)
        out.op_s.append(time.perf_counter() - t0)

        shell_mass = float(np.sum(means * counts) * self.g128.cell_volume)
        out.values += [e_free, eps[1.0], eps[2.0], e_opt, *np.ravel(quad), *alpha_d]
        out.values += [*np.ravel(fubini), shell_mass, float(np.sum(prof.values))]
        out.check("eps(2k)/eps(k) <= 0.5", ratio <= 0.5, f"{ratio:.3f}")
        for t, (lhs, rhs) in zip(self.QUAD_T, quad):
            ok = abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
            out.check(f"quadratic identity at t={t}", ok, f"{lhs - rhs:.2e}")
        for a, d in zip(self.ALPHAS, alpha_d):
            ok = abs(d - d1) <= 1e-10 * abs(d1)
            out.check(f"alpha={a} defect equals the alpha=1 defect", ok, f"{d:.12g} vs {d1:.12g}")
        worst = max(max(pair) for pair in fubini)
        out.check("Fubini defects <= 1e-4", worst <= 1e-4, f"{worst:.2e}")
        out.check("shell profile keeps the mass", abs(shell_mass - rho.mass()) <= 1e-12)
        out.check("spherical average finite", bool(np.all(np.isfinite(prof.values))))
        return out


WORKLOADS = {w.name: w for w in (WellDeriv, AnsatzHaar)}
