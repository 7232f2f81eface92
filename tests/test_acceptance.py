"""Acceptance suite.

One test per criterion, each printing an `ACCEPTANCE <id>: PASS/FAIL` line
(run with `pytest tests/test_acceptance.py -v -s`).  Heavy solves are
session fixtures shared across criteria; the whole module takes roughly
1-3 minutes on two cores, dominated by the R=8 well and the
perturbation-derivative solves at n=128.

Box convention: production boxes are chosen so the radial reference
r_max = 24 matches the box's inscribed ball, i.e. domain [-24, 24]³
(side 48) for the free problem and [-20, 20]³ (side 40 ≥ 2(R+2) on the
half-width) for the R = 8 well; the R = 10 well uses side 48 = 4(R+2)
at n = 64.  On a side-24 box no faithful free-space scheme can meet the
1e-3 cross-method target: the free minimizer holds ~17% of its mass
beyond |x| = 6 and ~0.2% beyond |x| = 12, worth ~4e-3 relative energy.

The combined solver tolerance used for gap margins is 2e-4: the scale at
which independently seeded solves of the same problem reproduce energies
(seed-independence is asserted at 1e-3 relative ≈ 1e-4 absolute here).
"""

import numpy as np
import pytest

from pekar import (
    Field3D,
    Grid3D,
    KGrid,
    PotentialSpec,
    RadialGrid,
    SeedSpec,
    SolveOptions,
    coulomb_self_energy,
    fd_derivative,
    free_energy,
    kinetic_energy,
    min_product_energy,
    minimize,
    minimize_radial,
    radial_coulomb,
    rotational_density_check,
    solve_free,
    strauss_bound_check,
    translate_seed,
    trial_upper_bound,
)
from pekar.experiments import center_of_mass
from pekar.minimize import build_radial_seed

from conftest import ball_density, ball_density_radial, gaussian_psi, gaussian_radial, smooth_random_psi

COMBINED_SOLVER_TOL = 2e-4

RGRID = RadialGrid(4096, 24.0)
RADIAL_OPTS = SolveOptions(max_iters=2000, tolerance_residual=1e-6)
FULL_OPTS = SolveOptions(max_iters=2000, tolerance_residual=1e-5)

_RUNS = []  # every MinimizerResult produced here, checked by criterion 10


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="session")
def free_radial():
    res = solve_free(RGRID, RADIAL_OPTS)
    _RUNS.append(res)
    return res


@pytest.fixture(scope="session")
def free_3d():
    from dataclasses import replace

    grid = Grid3D(128, 48.0)  # domain [-24, 24]³ matching r_max = 24
    V = Field3D(grid, np.zeros(grid.shape))
    res = minimize(V, replace(FULL_OPTS, seed=SeedSpec(kind="radial_gaussian", sigma=2.66)))
    _RUNS.append(res)
    return res


@pytest.fixture(scope="session")
def r8(free_radial):
    grid = Grid3D(128, 40.0)  # 2(R+2) = 20 on the half-width for R = 8
    spec = PotentialSpec(kind="annular", R=8.0)
    V = spec.build(grid)
    seed = translate_seed(free_radial.psi, 8.0, grid)
    full = minimize(V, FULL_OPTS, seed_field=seed)
    Vr = spec.build_radial(RGRID)
    rad = minimize_radial(Vr, RADIAL_OPTS,
                          seed_field=build_radial_seed(SeedSpec(kind="translated_q", R=8.0), RGRID))
    _RUNS.extend([full, rad])
    return {"grid": grid, "V": V, "full": full, "rad": rad, "seed": seed}


@pytest.fixture(scope="session")
def r10(free_radial):
    grid = Grid3D(64, 48.0)  # L = 4(R+2) for R = 10
    V = PotentialSpec(kind="annular", R=10.0).build(grid)
    seed = translate_seed(free_radial.psi, 10.0, grid)
    full = minimize(V, FULL_OPTS, seed_field=seed)
    _RUNS.append(full)
    return {"grid": grid, "full": full}


@pytest.fixture(scope="session")
def deriv_report(r8):
    Z = PotentialSpec(kind="radial_bump", center=5.0, width=2.0, amplitude=1.0)
    rep = fd_derivative(r8["V"], Z, r8["grid"], FULL_OPTS,
                        deltas=(0.04, 0.02, 0.01), base=r8["full"])
    return rep


class TestCriterion1CrossMethodFreeEnergy:
    def test_radial_vs_3d_free_energy(self, free_radial, free_3d):
        e_rad = free_radial.energy.total
        e_3d = free_3d.energy.total
        rel = abs(e_rad - e_3d) / abs(e_rad)
        ok = rel <= 1e-3 and e_rad < 0 and e_3d < 0
        report("1 (cross-method e(0))",
               ok, f"e_rad={e_rad:.8f} e_3d={e_3d:.8f} rel={rel:.2e} (tol 1e-3)")
        assert free_radial.converged and free_3d.converged
        assert e_rad < 0 and e_3d < 0
        assert rel <= 1e-3


class TestCriterion2Virial:
    def test_virial_identity_at_Q(self, free_radial):
        b = free_radial.energy
        defect = abs(b.coulomb - 2 * b.kinetic) / b.coulomb
        ok = defect <= 1e-3
        report("2 (virial at Q)", ok, f"|C-2K|/C = {defect:.2e} (tol 1e-3)")
        assert defect <= 1e-3


class TestCriterion3NewtonEquivalence:
    @pytest.mark.parametrize(
        "name,make_r,make_g,exact",
        [
            ("gaussian s=1",
             lambda rg: gaussian_radial(rg, 1.0).density(),
             lambda g: gaussian_psi(g, 1.0).density(),
             1 / np.sqrt(np.pi)),
            ("ball a=2",
             lambda rg: ball_density_radial(rg, 2.0),
             lambda g: ball_density(g, 2.0),
             0.6),
        ],
    )
    def test_radial_vs_3d_vs_analytic(self, name, make_r, make_g, exact):
        grid = Grid3D(96, 24.0)
        rg = RadialGrid(2048, 24.0)
        d_rad = radial_coulomb(make_r(rg))
        d_3d = coulomb_self_energy(make_g(grid))
        rel_pair = abs(d_rad - d_3d) / abs(d_rad)
        rel_r = abs(d_rad - exact) / exact
        rel_g = abs(d_3d - exact) / exact
        ok = rel_pair <= 5e-3 and rel_r <= 5e-3 and rel_g <= 5e-3
        report(f"3 (Newton equivalence, {name})", ok,
               f"radial={d_rad:.6f} 3d={d_3d:.6f} exact={exact:.6f} "
               f"rels=({rel_pair:.1e},{rel_r:.1e},{rel_g:.1e}) (tol 5e-3)")
        assert rel_pair <= 5e-3
        assert rel_r <= 5e-3
        assert rel_g <= 5e-3


class TestCriterion4SymmetryBreaking:
    def test_energy_ordering_and_anisotropy(self, free_radial, r8):
        e_full = r8["full"].energy.total
        e_rad = r8["rad"].energy.total
        tb = trial_upper_bound(8.0, r8["grid"], RGRID)
        gap = e_rad - e_full
        com = float(np.linalg.norm(center_of_mass(r8["full"].psi.density())))
        ok = (e_full <= tb + 1e-3) and (gap > 10 * COMBINED_SOLVER_TOL) and (com > 0.5)
        report("4 (symmetry breaking, R=8)", ok,
               f"e_full={e_full:.6f} e_rad={e_rad:.6f} trial={tb:.6f} "
               f"gap={gap:.2e} (>{10 * COMBINED_SOLVER_TOL:.0e}) |com|={com:.3f} (>0.5)")
        assert r8["full"].converged and r8["rad"].converged
        assert e_full <= tb + 1e-3
        assert gap > 10 * COMBINED_SOLVER_TOL
        assert com > 0.5


def _well_mass_oracle(Q, R):
    """Exact angular-fraction reduction of ∫_{2≤|x|≤R} |Q(x-ζ_R)|² dx."""
    g = Q.grid
    r = g.nodes()
    zeta = (R + 2.0) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cmin = (4.0 - zeta**2 - r**2) / (2 * zeta * np.maximum(r, 1e-12))
        cmax = (R**2 - zeta**2 - r**2) / (2 * zeta * np.maximum(r, 1e-12))
    frac = np.maximum(np.clip(cmax, -1, 1) - np.clip(cmin, -1, 1), 0.0) / 2
    frac[0] = 1.0 if 2.0 <= zeta <= R else 0.0
    return float(np.sum(g.volume_weights() * Q.values**2 * frac))


class TestCriterion5WellMass:
    def test_monotone_over_R(self, free_radial):
        from pekar.potentials import mass_in_well

        grid = Grid3D(128, 48.0)
        grid_vals = []
        oracle_vals = []
        for R in (6.0, 8.0, 10.0):
            QR = translate_seed(free_radial.psi, R, grid)
            grid_vals.append(mass_in_well(QR.density(), R))
            oracle_vals.append(_well_mass_oracle(free_radial.psi, R))
        mono = oracle_vals[0] < oracle_vals[1] < oracle_vals[2]
        # lattice quantization of the |x|=2 boundary costs O(dx)·surface·ρ ≈ 3e-3
        agree = max(abs(a - b) for a, b in zip(grid_vals, oracle_vals)) < 5e-3
        report("5a (well mass monotone over R=6,8,10)", mono and agree,
               f"oracle={[f'{v:.4f}' for v in oracle_vals]} grid={[f'{v:.4f}' for v in grid_vals]}")
        assert mono
        assert agree

    def test_exceeds_09_at_R10(self, free_radial, r10):
        # The well mass is that of the solved well minimizer u_{V_R}, as in
        # SweepRow.well_mass and full.json.  The translated free minimizer
        # Q_R is only its seed; its mass (0.868 at R=10) is printed for
        # context.  At n=64 the minimizer's mass is within 2e-3 of n=128.
        from pekar.potentials import mass_in_well

        grid, u = r10["grid"], r10["full"]
        val = mass_in_well(u.psi.density(), 10.0)
        trial = _well_mass_oracle(free_radial.psi, 10.0)
        ok = u.converged and val > 0.9
        report("5b (well mass > 0.9 at R=10)", ok,
               f"solved minimizer u_V (n={grid.n}, L={grid.L:g}, "
               f"{'converged' if u.converged else 'NOT converged'} in {u.iterations} iters): "
               f"{val:.4f} (needs > 0.9); context, not asserted: trial state Q_R {trial:.4f}")
        assert u.converged
        assert val > 0.9


class TestCriterion6DerivativeFormula:
    def test_richardson_matches_pairing(self, deriv_report):
        rep = deriv_report
        rel = rep.defect / abs(rep.pairing)
        ok = rel <= 1e-2 and not rep.flagged
        report("6 (derivative formula, R=8)", ok,
               f"richardson={rep.richardson:.6f} -pairing={-rep.pairing:.6f} "
               f"rel defect={rel:.2e} (tol 1e-2)")
        assert not rep.flagged
        assert rel <= 1e-2

    def test_central_between_one_sided_quotients(self, deriv_report):
        rep = deriv_report
        ok = True
        for i in range(len(rep.deltas)):
            lo = min(rep.forward[i], rep.backward[i]) - 1e-12
            hi = max(rep.forward[i], rep.backward[i]) + 1e-12
            ok = ok and (lo <= rep.central[i] <= hi)
        report("6b (central difference bracketing)", ok,
               f"fwd={[f'{v:.5f}' for v in rep.forward]} "
               f"bwd={[f'{v:.5f}' for v in rep.backward]}")
        for i in range(len(rep.deltas)):
            assert min(rep.forward[i], rep.backward[i]) - 1e-12 <= rep.central[i]
            assert rep.central[i] <= max(rep.forward[i], rep.backward[i]) + 1e-12


class TestCriterion7RotationalAverages:
    def test_fubini_defects_for_three_test_fields(self, r8):
        grid = r8["grid"]
        u = r8["full"].psi
        tests = {
            "x1^2": PotentialSpec(kind="x1_squared").build(grid),
            "radial bump": PotentialSpec(kind="radial_bump", center=5.0, width=2.0).build(grid),
            "constant": Field3D(grid, np.full(grid.shape, 0.7)),
        }
        worst = 0.0
        for name, W in tests.items():
            d1, d2 = rotational_density_check(u, W)
            worst = max(worst, d1, d2)
        ok = worst <= 1e-4
        report("7 (rotational-average identities)", ok, f"worst defect {worst:.2e} (tol 1e-4)")
        assert worst <= 1e-4


class TestCriterion8CompletingTheSquare:
    def test_truncation_halving_and_quadratic_identity(self):
        # the doubling must be tested in the tail-dominated regime: dk = 0.125
        # keeps the singular-cell quadrature floor (~dk³) well below the
        # k-truncation error of width ~1 densities at k_max = 1
        grid = Grid3D(48, 16.0)
        rng = np.random.default_rng(2024)
        dk = 0.125
        worst_ratio = 0.0
        for i in range(10):
            psi = smooth_random_psi(grid, rng, width_range=(0.7, 1.2))
            e_free = free_energy(psi)
            eps = {}
            for k_max in (1.0, 2.0):
                kg = KGrid(int(2 * k_max / dk), k_max)
                e_min, disp = min_product_energy(psi, kg)
                eps[k_max] = abs(e_min - e_free)
            ratio = eps[2.0] / eps[1.0]
            worst_ratio = max(worst_ratio, ratio)
        # quadratic-optimality identity, exact to 1e-10
        psi = smooth_random_psi(grid, rng)
        kg = KGrid(8, 1.0)
        e_opt, disp = min_product_energy(psi, kg)
        w = kg.weights()
        quad_ok = True
        from pekar import PhononDisplacement, product_energy

        for t in (0.5, 1.0):
            dz = rng.standard_normal(kg.shape) + 1j * rng.standard_normal(kg.shape)
            pert = PhononDisplacement(kg, disp.z + t * dz, 1.0)
            lhs = product_energy(psi, pert) - e_opt
            rhs = t**2 * float(np.sum(w * np.abs(dz) ** 2))
            quad_ok = quad_ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        ok = worst_ratio <= 0.5 and quad_ok
        report("8 (completing the square)", ok,
               f"worst eps(2k)/eps(k) = {worst_ratio:.3f} (needs <= 0.5); quadratic identity "
               f"{'exact' if quad_ok else 'violated'}")
        assert worst_ratio <= 0.5
        assert quad_ok


class TestCriterion9StraussBound:
    def test_all_converged_radial_minimizers(self, free_radial):
        margins = {"free Q": strauss_bound_check(free_radial.psi)}
        for R in (6.0, 8.0, 10.0):
            Vr = PotentialSpec(kind="annular", R=R).build_radial(RGRID)
            res = minimize_radial(Vr, RADIAL_OPTS,
                                  seed_field=build_radial_seed(SeedSpec(kind="translated_q", R=R), RGRID))
            _RUNS.append(res)
            assert res.converged
            margins[f"R={R}"] = strauss_bound_check(res.psi)
        ok = all(m >= 0.0 for m in margins.values())
        report("9 (Strauss bound margins)", ok,
               " ".join(f"{k}:{v:.4f}" for k, v in margins.items()))
        for k, m in margins.items():
            assert m >= 0.0, k


class TestCriterion10InvarianceSuite:
    def test_lattice_invariance_of_free_energies(self):
        grid = Grid3D(32, 16.0)
        psi = gaussian_psi(grid, 0.8, center=(0.5, -0.25, 0.75))
        T0 = kinetic_energy(psi)
        D0 = coulomb_self_energy(psi.density())
        worst = 0.0
        rolled = Field3D(grid, np.roll(psi.values, (2, -1, 3), axis=(0, 1, 2)))
        worst = max(worst, abs(kinetic_energy(rolled) - T0),
                    abs(coulomb_self_energy(rolled.density()) - D0))
        for tf in [lambda v: v.transpose(1, 2, 0), lambda v: v[::-1, :, ::-1],
                   lambda v: np.ascontiguousarray(v.transpose(2, 1, 0))[:, ::-1, :]]:
            g = Field3D(grid, np.ascontiguousarray(tf(psi.values)))
            worst = max(worst, abs(kinetic_energy(g) - T0),
                        abs(coulomb_self_energy(g.density()) - D0))
        ok = worst <= 1e-12
        report("10a (translation/rotation invariance)", ok, f"worst defect {worst:.2e} (tol 1e-12)")
        assert worst <= 1e-12

    def test_descent_monotonicity_and_norms_on_all_runs(self, free_radial, free_3d, r8, r10):
        assert len(_RUNS) >= 5
        worst_up = 0.0
        worst_norm = 0.0
        for res in _RUNS:
            if len(res.history) > 1:
                worst_up = max(worst_up, float(np.max(np.diff(res.history))))
            worst_norm = max(worst_norm, float(np.max(np.abs(res.norm_history - 1.0))))
        ok = worst_up <= 0.0 and worst_norm <= 1e-12
        report("10b (monotone descent, unit norms)", ok,
               f"{len(_RUNS)} runs; worst uphill step {worst_up:.2e}; "
               f"worst norm defect {worst_norm:.2e}")
        assert worst_up <= 0.0
        assert worst_norm <= 1e-12
