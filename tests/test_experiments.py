import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pekar import (
    BoundarySupportWarning,
    Field3D,
    Grid3D,
    PotentialSpec,
    RadialGrid,
    SolveOptions,
    fd_derivative,
    minimize,
    perturbed_energy,
    potential_energy,
    rotation_orbit_evidence,
    rotational_average,
    rotational_density_check,
    solve_free,
    sweep_R,
    translate_seed,
    trial_upper_bound,
)
from pekar.experiments import center_of_mass

from conftest import gaussian_psi

OPTS = SolveOptions(max_iters=400, tolerance_residual=2e-5, tolerance_energy=1e-10)


@pytest.fixture(scope="module")
def grid_R4():
    # smallest comfortable box for the R=4 well (R+1 = 5 < L/2 = 10)
    return Grid3D(48, 20.0)


@pytest.fixture(scope="module")
def base_R4(grid_R4):
    V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
    seed = translate_seed(solve_free().psi, 4.0, grid_R4)
    return minimize(V, OPTS, seed_field=seed)


class TestTrialBound:
    def test_bounded_below_by_e0_minus_one(self, grid_R4):
        e0 = solve_free().energy.total
        for R in (4.0, 6.0):
            g = Grid3D(48, max(20.0, 4 * (R + 2)))
            tb = trial_upper_bound(R, g)
            assert tb >= e0 - 1.0 - 1e-9

    def test_below_e0_and_decreasing_in_R(self):
        e0 = solve_free().energy.total
        vals = [trial_upper_bound(R, Grid3D(48, 4 * (R + 2))) for R in (6.0, 8.0, 10.0)]
        assert all(v < e0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_well_pairing_in_unit_interval_and_growing(self):
        # ∫ V_R |Q_R|² ∈ [0,1] and → 1 as the well swallows the translate
        from pekar.potentials import PotentialSpec, potential_energy

        free = solve_free()
        pairs = []
        for R in (6.0, 8.0, 10.0):
            g = Grid3D(96, 4 * (R + 2))
            QR = translate_seed(free.psi, R, g)
            VR = PotentialSpec(kind="annular", R=R).build(g)
            pairs.append(potential_energy(VR, QR.density()))
        assert all(0.0 <= p <= 1.0 for p in pairs)
        assert pairs[0] < pairs[1] < pairs[2]

    def test_energy_of_translate_is_e0_minus_pairing(self):
        # E_{V_R}(Q_R) decomposes as free energy (≈ e(0)) minus the pairing
        from pekar import pekar_energy
        from pekar.potentials import PotentialSpec, potential_energy

        free = solve_free()
        g = Grid3D(64, 32.0)
        R = 6.0
        QR = translate_seed(free.psi, R, g)
        VR = PotentialSpec(kind="annular", R=R).build(g)
        b = pekar_energy(QR, VR)
        pairing = potential_energy(VR, QR.density())
        assert b.potential == pytest.approx(pairing, rel=1e-12)
        assert b.total == pytest.approx(free.energy.total - pairing, abs=5e-3)


class TestPerturbedEnergy:
    def test_delta_zero_reproduces_base(self, grid_R4, base_R4):
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Z = PotentialSpec(kind="radial_bump", center=3.0, width=1.0).build(grid_R4)
        res = perturbed_energy(V, Z, 0.0, OPTS, warm=base_R4.psi)
        # the warm start is already stationary, so the solve returns it as is
        # (re-normalizing the seed costs one ulp in the re-evaluated energies)
        assert res.energy.total == pytest.approx(base_R4.energy.total, abs=1e-13)
        assert res.iterations == 0

    def test_constant_shift_is_exact(self, grid_R4, base_R4):
        # V + δc shifts the functional by -δc: identical iterates, shifted energy
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        c, d = 0.7, 0.05
        Z = Field3D(grid_R4, np.full(grid_R4.shape, c))
        res = perturbed_energy(V, Z, d, OPTS, warm=base_R4.psi)
        assert res.energy.total == pytest.approx(base_R4.energy.total - d * c, abs=1e-12)

    def test_perturbation_on_another_grid_rejected(self):
        # same shape, other side: adding the value arrays would be meaningless
        V = PotentialSpec(kind="annular", R=4.0).build(Grid3D(16, 16.0))
        Z = PotentialSpec(kind="radial_bump", center=3.0, width=1.0).build(Grid3D(16, 40.0))
        with pytest.raises(ValueError, match="different grids"):
            perturbed_energy(V, Z, 0.01, SolveOptions(max_iters=3))


class TestFdDerivative:
    def test_zero_perturbation(self, grid_R4, base_R4):
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Z = PotentialSpec(kind="constant", value=0.0)
        rep = fd_derivative(V, Z, grid_R4, OPTS, deltas=(0.02, 0.01), base=base_R4)
        assert rep.pairing == 0.0
        assert rep.richardson == pytest.approx(0.0, abs=1e-8)

    def test_unit_perturbation_exact_derivative(self, grid_R4, base_R4):
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Z = PotentialSpec(kind="constant", value=1.0)
        rep = fd_derivative(V, Z, grid_R4, OPTS, deltas=(0.02, 0.01), base=base_R4)
        assert rep.pairing == pytest.approx(1.0, abs=1e-10)
        assert rep.richardson == pytest.approx(-1.0, abs=1e-8)
        assert rep.defect <= 1e-8

    def test_bump_perturbation_brackets_and_defect(self, grid_R4, base_R4):
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Z = PotentialSpec(kind="radial_bump", center=3.0, width=1.5)
        rep = fd_derivative(V, Z, grid_R4, OPTS, deltas=(0.04, 0.02, 0.01), base=base_R4)
        assert not rep.flagged
        assert rep.pairing > 0.1
        for i in range(len(rep.deltas)):
            lo = min(rep.forward[i], rep.backward[i]) - 1e-12
            hi = max(rep.forward[i], rep.backward[i]) + 1e-12
            assert lo <= rep.central[i] <= hi
            # warm-started monotone solves make the variational bounds exact
            assert rep.forward[i] <= -rep.pairing + 1e-10
            assert rep.backward[i] >= -rep.pairing - 0.05 * rep.deltas[i] - 1e-10
        assert rep.defect <= 1e-2 * rep.pairing

    def test_ladder_seeds_stay_below_the_base_minimizer(self, grid_R4, base_R4, monkeypatch):
        # each warm start after the first interpolates the δ's already solved;
        # on this ladder each starts below u_V, so no solve is redone from u_V
        import pekar.experiments as exp
        from pekar import pekar_energy

        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Zspec = PotentialSpec(kind="radial_bump", center=3.0, width=1.5)
        Z = Zspec.build(grid_R4)
        calls = []
        solve = exp.perturbed_energy

        def recording(V_, Z_, delta, opts, warm=None):
            res = solve(V_, Z_, delta, opts, warm=warm)
            calls.append((delta, warm, res.iterations))
            return res

        monkeypatch.setattr(exp, "perturbed_energy", recording)
        fd_derivative(V, Zspec, grid_R4, OPTS, deltas=(0.04, 0.02, 0.01), base=base_R4)
        assert [c[0] for c in calls] == [0.04, -0.04, 0.02, -0.02, 0.01, -0.01]
        for delta, warm, _ in calls:
            Vd = Field3D(grid_R4, V.values + delta * Z.values)
            assert pekar_energy(warm, Vd).total <= pekar_energy(base_R4.psi, Vd).total + 1e-12
        iters = [c[2] for c in calls]
        assert sum(iters[2:]) < sum(iters[:2])

    def test_perturbed_potential_built_once_per_solve(self, grid_R4, base_R4, monkeypatch):
        # the ladder tests its interpolated seed on the energy its solve returns,
        # so only the solve itself builds V + δZ
        import pekar.experiments as exp

        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Zspec = PotentialSpec(kind="radial_bump", center=3.0, width=1.5)
        Z = Zspec.build(grid_R4)
        deltas = (0.04, 0.02, 0.01)
        perturbed = [V.values + s * d * Z.values for d in deltas for s in (1, -1)]
        builds = []

        class Counting(Field3D):
            def __post_init__(self):
                super().__post_init__()
                if any(np.array_equal(self.values, p) for p in perturbed):
                    builds.append(self)

        monkeypatch.setattr(exp, "Field3D", Counting)
        fd_derivative(V, Zspec, grid_R4, OPTS, deltas=deltas, base=base_R4)
        assert len(builds) == 6

    def test_no_padded_transform_outside_the_solves(self, grid_R4, base_R4, monkeypatch):
        # the interpolated seeds are judged by the energies their solves
        # return; the driver evaluates no functional of its own
        import pekar.experiments as exp
        from pekar.spectral import SpectralOps

        inside = [False]
        counts = {True: 0, False: 0}
        solve, transform = exp.minimize, SpectralOps.fft_padded

        def tracked_solve(*args, **kwargs):
            inside[0] = True
            try:
                return solve(*args, **kwargs)
            finally:
                inside[0] = False

        def counted(self, *args, **kwargs):
            counts[inside[0]] += 1
            return transform(self, *args, **kwargs)

        monkeypatch.setattr(exp, "minimize", tracked_solve)
        monkeypatch.setattr(SpectralOps, "fft_padded", counted)
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Zspec = PotentialSpec(kind="radial_bump", center=3.0, width=1.5)
        fd_derivative(V, Zspec, grid_R4, OPTS, deltas=(0.04, 0.02, 0.01), base=base_R4)
        assert counts[True] > 0
        assert counts[False] == 0

    def test_seeded_solve_above_the_bound_is_redone_from_u_V(self, grid_R4, base_R4, monkeypatch):
        # the first solve from an interpolated seed is made to end above
        # E_{V+δZ}(u_V); the driver must solve that δ again from u_V and
        # keep the bracket forward <= -pairing
        import pekar.experiments as exp

        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        Zspec = PotentialSpec(kind="radial_bump", center=3.0, width=1.5)
        calls = []
        solve = exp.perturbed_energy

        def spoiled(V_, Z_, delta, opts, warm=None):
            res = solve(V_, Z_, delta, opts, warm=warm)
            calls.append((delta, warm))
            if len(calls) == 3:  # +0.02, the first interpolated seed
                res = replace(res, energy=replace(res.energy, kinetic=res.energy.kinetic + 1.0))
            return res

        monkeypatch.setattr(exp, "perturbed_energy", spoiled)
        rep = fd_derivative(V, Zspec, grid_R4, OPTS, deltas=(0.04, 0.02, 0.01), base=base_R4)
        assert [c[0] for c in calls] == [0.04, -0.04, 0.02, 0.02, -0.02, 0.01, -0.01]
        assert calls[2][1] is not base_R4.psi
        assert calls[3][1] is base_R4.psi
        for i in range(len(rep.deltas)):
            assert rep.forward[i] <= -rep.pairing + 1e-10

    def test_empty_deltas_rejected_before_the_base_solve(self, grid_R4, base_R4, monkeypatch):
        import pekar.experiments as exp

        monkeypatch.setattr(exp, "minimize", lambda *a, **k: pytest.fail("base solve started"))
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        with pytest.raises(ValueError, match="deltas must be non-empty"):
            fd_derivative(V, PotentialSpec(kind="constant", value=1.0), grid_R4, OPTS, deltas=[],
                          base=base_R4)

    @pytest.mark.parametrize("deltas", [[0.01, 0.01], [0.02, -0.01], [0.0]])
    def test_bad_deltas_rejected_before_any_solve(self, grid_R4, base_R4, monkeypatch, deltas):
        # repeated δ's divided by zero in the Richardson step after four solves,
        # and a negative δ swapped the forward and backward quotients
        import pekar.experiments as exp

        monkeypatch.setattr(exp, "minimize", lambda *a, **k: pytest.fail("a solve started"))
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        with pytest.raises(ValueError, match="deltas must be positive and distinct"):
            fd_derivative(V, PotentialSpec(kind="constant", value=1.0), grid_R4, OPTS,
                          deltas=deltas, base=base_R4)

    def test_nonradial_perturbation_rejected(self, grid_R4, base_R4):
        V = PotentialSpec(kind="annular", R=4.0).build(grid_R4)
        with pytest.raises(ValueError, match="radial"):
            fd_derivative(V, PotentialSpec(kind="x1_squared"), grid_R4, OPTS, base=base_R4)


class TestRotationalDensityCheck:
    def test_radial_density_is_exact(self, grid32):
        u = gaussian_psi(grid32, 1.2)
        X, _, _ = grid32.meshgrid()
        W = Field3D(grid32, np.broadcast_to(X * X, grid32.shape).copy())
        d1, d2 = rotational_density_check(u, W)
        assert d1 <= 1e-6 and d2 <= 1e-6

    def test_nonradial_density_still_exact_by_projection(self, grid32):
        u = gaussian_psi(grid32, 1.0, center=(1.5, -0.5, 0.75))
        rng = np.random.default_rng(0)
        W = Field3D(grid32, rng.standard_normal(grid32.shape))
        d1, d2 = rotational_density_check(u, W)
        assert d1 <= 1e-10 and d2 <= 1e-10

    def test_radial_W_first_defect_vanishes(self, grid32):
        u = gaussian_psi(grid32, 1.0, center=(1.0, 0.0, 0.0))
        W = Field3D(grid32, np.exp(-grid32.radius()))
        d1, _ = rotational_density_check(u, W)
        assert d1 <= 1e-6

    def test_grid_mismatch_rejected_before_projecting(self, grid32, monkeypatch):
        import pekar.angular as ang

        calls = []
        means = ang._shell_means
        monkeypatch.setattr(ang, "_shell_means", lambda f, **kw: calls.append(f) or means(f, **kw))
        u = gaussian_psi(grid32, 1.0)
        rotational_density_check(u, Field3D(grid32, np.exp(-grid32.radius())))
        assert len(calls) == 2  # the counter sees the two averages of a valid call
        other = Grid3D(grid32.n, grid32.L + 1.0)
        calls.clear()
        with pytest.raises(ValueError, match="different grids"):
            rotational_density_check(u, Field3D(other, np.exp(-other.radius())))
        assert calls == []

    @pytest.mark.parametrize("n, L", [(32, 16.0), (64, 24.0)])
    def test_slab_pairings_are_the_box_pairings(self, n, L):
        from pekar.angular import _shell_means, haar_pairings

        grid = Grid3D(n, L)
        u = gaussian_psi(grid, 1.0, center=(1.5, -0.5, 0.75))
        rho = u.density()
        assert np.array_equal(_shell_means(u, square=True), _shell_means(rho))
        fields = [
            PotentialSpec(kind="x1_squared").build(grid),
            PotentialSpec(kind="radial_bump", center=5.0, width=2.0).build(grid),
            Field3D(grid, np.full(grid.shape, 0.7)),
            Field3D(grid, np.random.default_rng(n).standard_normal(grid.shape)),
        ]
        for W in fields:
            rho_avg, W_avg = rotational_average(rho), rotational_average(W)
            box = [
                potential_energy(W, rho_avg),
                potential_energy(W_avg, rho),
                potential_energy(W_avg, rho_avg),
            ]
            tol = 1e-13 * max(abs(v) for v in box)
            np.testing.assert_allclose(haar_pairings(u, W), box, rtol=0, atol=tol)

    def _broken_check(self, grid32, monkeypatch, attr, fake):
        import pekar.angular as ang

        monkeypatch.setattr(ang, attr, fake)
        u = gaussian_psi(grid32, 1.0, center=(1.5, -0.5, 0.75))
        W = PotentialSpec(kind="radial_bump", center=3.0, width=2.0).build(grid32)
        return rotational_density_check(u, W)

    def test_fold_missing_a_mirror_image_is_flagged(self, grid32, monkeypatch):
        import pekar.angular as ang

        def three_images(f, square=False):
            inverse, counts, _ = ang._shell_index(f.grid)
            v = f.values**2 if square else f.values
            fold = sum(ang._mirror_images(v)[:3])
            return np.bincount(inverse.ravel(), weights=fold.ravel(), minlength=len(counts)) / counts

        defects = self._broken_check(grid32, monkeypatch, "_shell_means", three_images)
        assert max(defects) > 1e-4

    def test_wrong_shell_counts_are_flagged(self, grid32, monkeypatch):
        import pekar.angular as ang

        index = ang._shell_index

        def quarter_counts(grid):
            inverse, counts, radii = index(grid)
            return inverse, counts // 4, radii

        defects = self._broken_check(grid32, monkeypatch, "_shell_index", quarter_counts)
        assert max(defects) > 1e-4


class TestOrbitEvidence:
    def test_three_lattice_directions_agree(self, grid_R4):
        # R=4 is in the radial regime: all three seeds reach the centred minimizer
        spec = PotentialSpec(kind="annular", R=4.0)
        rep = rotation_orbit_evidence(spec, grid_R4, OPTS)
        assert len(rep.energies) == 3 and all(rep.converged)
        assert rep.energy_spread <= 1e-3 * abs(np.mean(rep.energies))
        peak = 0.06  # density scale of the bound lump
        assert rep.max_profile_mismatch <= 2e-3 * peak + 5e-4

    def test_each_solve_stays_on_its_direction(self, monkeypatch):
        # R=8 breaks the symmetry: each lump keeps its seed's lattice symmetry,
        # so the spread is the lattice anisotropy A(32), the axis lowest
        import pekar.experiments as exp

        solved, solve = [], exp.minimize

        def recording(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(exp, "minimize", recording)
        grid = Grid3D(32, 40.0)
        opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
        rep = rotation_orbit_evidence(PotentialSpec(kind="annular", R=8.0), grid, opts)
        assert all(rep.converged)
        for res, d in zip(solved, exp.ORBIT_DIRECTIONS.values()):
            com = center_of_mass(res.psi.density())
            d = np.asarray(d) / np.linalg.norm(d)
            assert com @ d > 2.0
            assert np.linalg.norm(com - (com @ d) * d) <= 1e-9 * np.linalg.norm(com)
        assert np.argmin(rep.energies) == 0
        assert rep.energy_spread == pytest.approx(8.7e-5, abs=0.05e-5)

    def test_non_annular_potential_rejected(self, grid_R4, monkeypatch):
        import pekar.experiments as exp

        monkeypatch.setattr(exp, "minimize", None)  # no solve is started
        with pytest.raises(ValueError, match="annular"):
            rotation_orbit_evidence(PotentialSpec(kind="constant", value=1.0), grid_R4, OPTS)


class TestSweep:
    def test_rows_satisfy_ordering_invariants(self, grid_R4):
        rg = RadialGrid(1024, np.sqrt(3) / 2 * grid_R4.L + 0.5)
        # from the translate of Q solved on rg, the R=5 solve takes 413 steps
        rows = sweep_R([4.0, 5.0], grid_R4, rg, replace(OPTS, max_iters=600))
        assert len(rows) == 2
        for row in rows:
            assert not row.flagged
            # 3D-vs-radial comparisons carry the lifted-consistency tolerance
            assert row.e_full <= row.e_rad + 5e-3 * abs(row.e_rad)
            assert row.e_full <= row.trial_bound + 1e-6
            assert 0.0 <= row.well_mass <= 1.0
        # deeper well binds harder
        assert rows[1].e_full < rows[0].e_full

    def test_trial_bound_from_the_sweep_radial_grid(self):
        # Q, its translate and the bound all come from rgrid, not the default radial grid
        grid, rg = Grid3D(32, 20.0), RadialGrid(512, 18.0)
        (row,) = sweep_R([4.0], grid, rg, SolveOptions(max_iters=5))
        assert row.trial_bound == trial_upper_bound(4.0, grid, rg)

    def test_each_R_builds_its_inputs_once(self, monkeypatch):
        # the marginal sweep of the CLI tests: the trial bound reuses the V_R and
        # the seed of the R's solve, so the box warning is printed once as well
        import pekar.experiments as exp

        builds, translates = [], []
        build, translate = PotentialSpec.build, exp.translate_seed

        def counting_build(spec, grid):
            builds.append(spec.kind)
            return build(spec, grid)

        def counting_translate(*args, **kwargs):
            translates.append(args[1])
            return translate(*args, **kwargs)

        monkeypatch.setattr(PotentialSpec, "build", counting_build)
        monkeypatch.setattr(exp, "translate_seed", counting_translate)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            opts = SolveOptions(max_iters=300, tolerance_residual=5e-5)
            sweep_R([4.0], Grid3D(32, 20.0), RadialGrid(512, 18.0), opts)
        assert builds == ["annular"]
        assert translates == [4.0]
        assert len([w for w in caught if issubclass(w.category, BoundarySupportWarning)]) == 1

    def test_workers_give_identical_rows(self, grid_R4, monkeypatch):
        # the sweep runs one thread per core, so two cores solve the two R's at once
        rg = RadialGrid(1024, np.sqrt(3) / 2 * grid_R4.L + 0.5)
        opts = replace(OPTS, max_iters=60)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = sweep_R([4.0, 4.5], grid_R4, rg, opts)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threaded = sweep_R([4.0, 4.5], grid_R4, rg, opts)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in threaded]


class TestCenterOfMass:
    def test_symmetric_density_centered(self, grid32):
        rho = gaussian_psi(grid32, 1.0).density()
        np.testing.assert_allclose(center_of_mass(rho), 0.0, atol=1e-12)

    def test_offset_density_detected(self, grid32):
        rho = gaussian_psi(grid32, 0.8, center=(2.0, -1.0, 0.5)).density()
        np.testing.assert_allclose(center_of_mass(rho), [2.0, -1.0, 0.5], atol=1e-3)

    def test_marginals_match_the_full_sums(self, grid32):
        rho = gaussian_psi(grid32, 0.8, center=(2.0, -1.0, 0.5)).density()
        x, v = grid32.axis(), rho.values
        full = np.array([np.sum(x[:, None, None] * v), np.sum(x[None, :, None] * v),
                         np.sum(x[None, None, :] * v)]) * grid32.cell_volume
        np.testing.assert_allclose(center_of_mass(rho), full, rtol=0.0, atol=1e-12)
