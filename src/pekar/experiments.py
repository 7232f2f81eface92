"""Experiment drivers: the R-sweep, perturbation derivatives, rotation checks.

Two headline computations.

(A) Symmetry breaking: for the annular well the unconstrained minimum
    e(V_R) (reached by an off-center lump seeded at the translate of the
    free minimizer) drops below the radially constrained minimum
    e_rad(V_R); the sweep records both, the variational trial bound
    e(0) - ∫V_R|Q_R|², the well mass and the center-of-mass displacement
    that witnesses nonradiality.

(B) Derivative of δ ↦ e(V + δZ) for radial Z: central differences over a
    δ-schedule with Richardson extrapolation, checked against the pairing
    -∫Z|u_V|².  Perturbed solves warm-start near the unperturbed
    minimizer, which keeps them in the same rotation's basin and makes
    the one-sided variational quotients exact bracketing bounds for the
    monotone solver.  The first solve (+δ_max) starts from u_V; each later
    one starts from the Lagrange interpolation in δ, normalized, of u_V and
    every ±δ solved before it, so the finer δ's start next to their
    minimizers.  The seed is tested after its solve, on the energy the
    solve returns: a solve that ends above E_{V+δZ}(u_V) = e(V) - δ∫Z|u_V|²
    is redone from u_V.  The monotone solve from u_V ends at or below that
    value, so either way the result satisfies the bound forward ≤ -∫Z|u_V|².
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angular import lift_radial, spherical_average
from .fields import Field3D, Grid3D, RadialGrid, normalize
from .minimize import (
    MinimizerResult,
    SolveOptions,
    minimize,
    minimize_radial,
    solve_free,
    translate_seed,
)
from .potentials import PotentialSpec, mass_in_well, potential_energy, rotational_average
from .spectral import ops_for


@dataclass
class SweepRow:
    R: float
    e_full: float
    e_rad: float
    trial_bound: float
    well_mass: float
    anisotropy: float
    full_converged: bool
    rad_converged: bool
    full_iterations: int
    rad_iterations: int
    basin: str = "translate"  # which seed produced e_full

    @property
    def gap(self) -> float:
        return self.e_rad - self.e_full

    @property
    def flagged(self) -> bool:
        return not (self.full_converged and self.rad_converged)

    def as_dict(self) -> dict:
        return {
            "R": self.R,
            "e_full": self.e_full,
            "e_rad": self.e_rad,
            "trial_bound": self.trial_bound,
            "gap": self.gap,
            "well_mass": self.well_mass,
            "anisotropy": self.anisotropy,
            "basin": self.basin,
            "full_converged": self.full_converged,
            "rad_converged": self.rad_converged,
            "full_iterations": self.full_iterations,
            "rad_iterations": self.rad_iterations,
        }


@dataclass
class DerivativeReport:
    deltas: list
    e_base: float
    e_plus: list
    e_minus: list
    forward: list
    backward: list
    central: list
    pairing: float
    richardson: float
    defect: float
    flagged: bool

    def as_rows(self) -> list:
        shared = {"pairing": self.pairing, "richardson": self.richardson, "defect": self.defect}
        keys = ("delta", "e_plus", "e_minus", "forward", "backward", "central")
        per_delta = zip(self.deltas, self.e_plus, self.e_minus,
                        self.forward, self.backward, self.central)
        return [{**dict(zip(keys, vals)), **shared} for vals in per_delta]


@dataclass
class OrbitReport:
    energies: list
    max_profile_mismatch: float  # largest pairwise RMS distance between density profiles
    converged: list

    @property
    def energy_spread(self) -> float:
        return float(np.max(self.energies) - np.min(self.energies))


def center_of_mass(rho: Field3D) -> np.ndarray:
    """∫ x ρ dx, from the three axis marginals of ρ."""
    x = rho.grid.axis()
    v = rho.values
    marginals = (v.sum(axis=(1, 2)), v.sum(axis=(0, 2)), v.sum(axis=(0, 1)))
    return np.array([x @ m for m in marginals]) * rho.grid.cell_volume


def trial_upper_bound(R: float, grid: Grid3D, rgrid: Optional[RadialGrid] = None) -> float:
    """e(0) - ∫ V_R |Q_R|², the variational bound from the translated Q."""
    free = solve_free(rgrid)
    QR = translate_seed(free.psi, R, grid)
    VR = PotentialSpec(kind="annular", R=R).build(grid)
    return free.energy.total - potential_energy(VR, QR.density())


def sweep_R(
    R_list: Sequence[float],
    grid: Grid3D,
    rgrid: RadialGrid,
    opts: SolveOptions = SolveOptions(),
) -> list:
    """One row per R: full solve seeded at the translate, radial solve, bound.

    Below the symmetry-breaking crossover the off-center seed converges to a
    lump basin that sits above the radial minimum; the driver then re-solves
    from the lifted radial minimizer and keeps the lower of the two, so
    e_full ≤ e_rad holds across the whole sweep up to discretization differences.
    Q, and with it the seed and the trial bound, is solved on ``rgrid``.
    """
    free = solve_free(rgrid)
    # build the operators once, before the threads share them: the full box's,
    # the class of the x translates (y and z even) and of the lifted fallback
    for even in ((), (1, 2), (0, 1, 2)):
        ops_for(grid, even)

    def run_one(R: float) -> SweepRow:
        spec = PotentialSpec(kind="annular", R=R)
        V = spec.build(grid)
        seed = translate_seed(free.psi, R, grid)
        full = minimize(V, opts, seed_field=seed)
        Vr = spec.build_radial(rgrid)
        rad = minimize_radial(Vr, opts)
        basin = "translate"
        margin = 10 * max(opts.tolerance_energy, 1e-8)
        if full.energy.total > rad.energy.total - margin:
            seed2 = normalize(lift_radial(rad.psi, grid))
            alt = minimize(V, opts, seed_field=seed2)
            if alt.energy.total < full.energy.total:
                full, basin = alt, "radial"
        rho = full.psi.density()
        return SweepRow(
            R=R,
            e_full=full.energy.total,
            e_rad=rad.energy.total,
            trial_bound=free.energy.total - potential_energy(V, seed.density()),
            well_mass=mass_in_well(rho, R),
            anisotropy=float(np.linalg.norm(center_of_mass(rho))),
            full_converged=full.converged,
            rad_converged=rad.converged,
            full_iterations=full.iterations,
            rad_iterations=rad.iterations,
            basin=basin,
        )

    with ThreadPoolExecutor(os.cpu_count()) as pool:
        return list(pool.map(run_one, R_list))


def perturbed_energy(
    V: Field3D,
    Z: Field3D,
    delta: float,
    opts: SolveOptions = SolveOptions(),
    warm: Optional[Field3D] = None,
) -> MinimizerResult:
    """Minimize E over the sphere for the potential V + δZ (warm-started)."""
    if Z.grid != V.grid:
        raise ValueError("potential and perturbation live on different grids")
    Vp = Field3D(V.grid, V.values + delta * Z.values)
    return minimize(Vp, opts, seed_field=warm)


def _check_deltas(deltas: Sequence[float]) -> None:
    """ValueError unless non-empty, positive (forward is +δ) and distinct (Richardson)."""
    if not deltas:
        raise ValueError("deltas must be non-empty")
    if min(deltas) <= 0 or len(set(deltas)) < len(deltas):
        raise ValueError("deltas must be positive and distinct")


def fd_derivative(
    V: Field3D,
    Zspec: PotentialSpec,
    grid: Grid3D,
    opts: SolveOptions = SolveOptions(),
    deltas: Sequence[float] = (0.04, 0.02, 0.01),
    *,
    base: MinimizerResult,
) -> DerivativeReport:
    """Central differences of δ ↦ e(V + δZ) against the pairing -∫Z|u_V|².

    Z must be radial: for nonradial perturbations the map need not be
    differentiable (the sup/inf pairings over the minimizer set differ),
    so no derivative is claimed there.  Every δ after the first is solved
    from the interpolated seed of the module docstring, (B), and solved
    again from u_V only when that solve ends above E_{V+δZ}(u_V); the
    driver evaluates no functional outside its solves.
    """
    _check_deltas(deltas)
    if not Zspec.is_radial:
        raise ValueError("derivative checks require a radial perturbation Z")
    Z = Zspec.build(grid)
    uV = base.psi
    e0 = base.energy.total
    pairing = potential_energy(Z, uV.density())

    solved = {0.0: uV.values}  # minimizer at each δ solved so far

    def solve_at(delta: float) -> MinimizerResult:
        res = None
        if len(solved) > 1:
            # Lagrange interpolation in δ through the solved δ's, normalized
            guess = sum(
                np.prod([(delta - xm) / (xj - xm) for xm in solved if xm != xj]) * u
                for xj, u in solved.items()
            )
            res = perturbed_energy(V, Z, delta, opts, warm=normalize(Field3D(grid, guess)))
        # the monotone solve from u_V ends at or below E_{V+δZ}(u_V) = e0 - δ·pairing,
        # the variational bound's reference; a seeded solve that ends above it is redone
        if res is None or res.energy.total > e0 - delta * pairing:
            res = perturbed_energy(V, Z, delta, opts, warm=uV)
        solved[delta] = res.psi.values
        return res

    deltas = sorted(deltas, reverse=True)
    e_plus, e_minus, fwd, bwd, cen = [], [], [], [], []
    flagged = not base.converged
    for d in deltas:
        rp = solve_at(+d)
        rm = solve_at(-d)
        flagged = flagged or not (rp.converged and rm.converged)
        e_plus.append(rp.energy.total)
        e_minus.append(rm.energy.total)
        fwd.append((rp.energy.total - e0) / d)
        bwd.append((e0 - rm.energy.total) / d)
        cen.append((rp.energy.total - rm.energy.total) / (2 * d))
    if len(cen) >= 2:
        # classic h² elimination from the two finest central differences
        h1, h2 = deltas[-2], deltas[-1]
        r = (h1 / h2) ** 2
        richardson = (r * cen[-1] - cen[-2]) / (r - 1)
    else:
        richardson = cen[-1]
    defect = abs(richardson + pairing)
    return DerivativeReport(
        deltas=list(deltas),
        e_base=e0,
        e_plus=e_plus,
        e_minus=e_minus,
        forward=fwd,
        backward=bwd,
        central=cen,
        pairing=pairing,
        richardson=richardson,
        defect=defect,
        flagged=flagged,
    )


def rotational_density_check(u: Field3D, W: Field3D) -> tuple:
    """Fubini defects of the Haar-average pairing, (|∫⟨ρ⟩W - ∫ρ⟨W⟩|, |∫ρ⟨W⟩ - ∫⟨ρ⟩⟨W⟩|).

    With the exact shell projection both vanish to rounding; anything
    larger flags a broken average.
    """
    if u.grid != W.grid:
        raise ValueError("wave function and potential live on different grids")
    rho = u.density()
    rho_avg = rotational_average(rho)
    W_avg = rotational_average(W)
    a = potential_energy(W, rho_avg)
    b = potential_energy(W_avg, rho)
    c = potential_energy(W_avg, rho_avg)
    return abs(a - b), abs(b - c)


# the lattice-symmetric translate directions: axis, face diagonal, cube diagonal
ORBIT_DIRECTIONS = {"axis": (1.0, 0.0, 0.0), "face": (1.0, 1.0, 0.0), "diagonal": (1.0, 1.0, 1.0)}


def rotation_orbit_evidence(
    Vspec: PotentialSpec,
    grid: Grid3D,
    opts: SolveOptions = SolveOptions(),
    rgrid: Optional[RadialGrid] = None,
) -> OrbitReport:
    """Solve the annular well from Q (solved on ``rgrid``, default grid if
    None) translated along each of ``ORBIT_DIRECTIONS``; compare energies
    and spherical-average density profiles.  Each seed keeps its lattice
    symmetry under the solver, so each solve stays on its direction, and
    the energy spread is the lattice anisotropy A(n) of the orbit, which
    tends to 0 with n if the minimizers form one rotation orbit.  The
    lowest direction depends on n (the axis at n=32 on the R=8 well)."""
    if Vspec.kind != "annular":
        raise ValueError(f"the orbit needs an annular potential, got {Vspec.kind!r}")
    V = Vspec.build(grid)
    Q = solve_free(rgrid).psi
    energies, profiles, converged = [], [], []
    for d in ORBIT_DIRECTIONS.values():
        res = minimize(V, opts, seed_field=translate_seed(Q, Vspec.R, grid, direction=d))
        prof = spherical_average(res.psi.density())
        profiles.append(prof.values[~prof.extrapolated])
        energies.append(res.energy.total)
        converged.append(res.converged)
    mismatch = max(
        float(np.sqrt(np.mean((a - b) ** 2))) for a, b in itertools.combinations(profiles, 2)
    )
    return OrbitReport(energies=energies, max_profile_mismatch=mismatch, converged=converged)
