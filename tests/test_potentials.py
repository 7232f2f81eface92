import numpy as np
import pytest

from pekar import (
    Field3D,
    Grid3D,
    RadialGrid,
    PotentialSpec,
    annular_profile,
    lift_radial,
    mass_in_well,
    potential_energy,
    rotational_average,
    smooth_ramp,
)

from conftest import gaussian_psi, gaussian_radial


class TestSmoothRamp:
    def test_endpoints_exact(self):
        assert smooth_ramp(np.array([0.0]))[0] == 0.0
        assert smooth_ramp(np.array([1.0]))[0] == 1.0
        assert smooth_ramp(np.array([-3.0]))[0] == 0.0
        assert smooth_ramp(np.array([5.0]))[0] == 1.0

    def test_monotone(self):
        t = np.linspace(-0.5, 1.5, 1001)
        v = smooth_ramp(t)
        assert np.all(np.diff(v) >= 0)
        assert np.all((v >= 0) & (v <= 1))


class TestAnnularWell:
    def test_region_values_R6(self):
        # V(0)=0, V(3)=1, V(8)=0 for R=6; endpoints V(1)=0, V(2)=1 exact
        r = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 7.0, 8.0, 100.0])
        v = annular_profile(r, 6.0)
        np.testing.assert_array_equal(v, [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

    def test_transition_monotonicity(self):
        R = 6.0
        up = annular_profile(np.linspace(1.0, 2.0, 501), R)
        down = annular_profile(np.linspace(R, R + 1.0, 501), R)
        assert np.all(np.diff(up) >= 0)
        assert np.all(np.diff(down) <= 0)

    def test_grid_field_within_bounds_and_plateaus(self):
        g = Grid3D(64, 32.0)
        V = PotentialSpec(kind="annular", R=6.0).build(g)
        assert V.values.min() >= 0.0
        assert V.values.max() <= 1.0
        rr = g.radius()
        assert np.all(V.values[rr <= 1.0] == 0.0)
        assert np.all(V.values[(rr >= 2.0) & (rr <= 6.0)] == 1.0)
        assert np.all(V.values[rr >= 7.0] == 0.0)

    def test_R_must_exceed_2(self):
        g = Grid3D(32, 32.0)
        with pytest.raises(ValueError, match="R must exceed 2"):
            PotentialSpec(kind="annular", R=1.5).build(g)

    def test_potential_exits_box(self):
        g = Grid3D(32, 16.0)
        with pytest.raises(ValueError, match="potential exits box"):
            PotentialSpec(kind="annular", R=8.0).build(g)

    def test_strength_multiplier(self):
        g = Grid3D(32, 32.0)
        V1 = PotentialSpec(kind="annular", R=5.0).build(g)
        V2 = PotentialSpec(kind="annular", R=5.0, lam=2.5).build(g)
        np.testing.assert_allclose(V2.values, 2.5 * V1.values, rtol=1e-15)
        with pytest.raises(ValueError, match="lam"):
            PotentialSpec(kind="annular", R=5.0, lam=0.5)


class TestRotationalAverage:
    def test_radial_field_unchanged(self, grid32):
        rg = RadialGrid(2048, np.sqrt(3) / 2 * grid32.L + 0.5)
        W = lift_radial(gaussian_radial(rg, 1.5), grid32)
        avg = rotational_average(W)
        np.testing.assert_allclose(avg.values, W.values, rtol=1e-13, atol=1e-15)

    def test_x1_squared_becomes_r2_over_3(self, grid32):
        X, _, _ = grid32.meshgrid()
        W = Field3D(grid32, np.broadcast_to(X * X, grid32.shape).copy())
        avg = rotational_average(W)
        rr2 = grid32.radius() ** 2
        np.testing.assert_allclose(avg.values, rr2 / 3, rtol=1e-12, atol=1e-13)

    def test_x1_averages_to_zero(self, grid32):
        X, _, _ = grid32.meshgrid()
        W = Field3D(grid32, np.broadcast_to(X, grid32.shape).copy())
        avg = rotational_average(W)
        assert np.max(np.abs(avg.values)) < 1e-13 * grid32.L

    def test_idempotent(self, grid32):
        rng = np.random.default_rng(0)
        W = Field3D(grid32, rng.standard_normal(grid32.shape))
        a1 = rotational_average(W)
        a2 = rotational_average(a1)
        np.testing.assert_allclose(a2.values, a1.values, rtol=0, atol=1e-13)

    def test_pairing_identity_for_radial_density(self, grid32):
        # ∫⟨W⟩ρ = ∫Wρ whenever ρ is radial
        rng = np.random.default_rng(1)
        W = Field3D(grid32, rng.standard_normal(grid32.shape))
        rg = RadialGrid(2048, np.sqrt(3) / 2 * grid32.L + 0.5)
        rho = lift_radial(gaussian_radial(rg, 1.2).density(), grid32)
        lhs = potential_energy(rotational_average(W), rho)
        rhs = potential_energy(W, rho)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_commutes_with_cube_symmetries(self, grid32):
        rng = np.random.default_rng(2)
        W = Field3D(grid32, rng.standard_normal(grid32.shape))
        avg = rotational_average(W)
        g = Field3D(grid32, np.ascontiguousarray(W.values.transpose(1, 2, 0)[:, ::-1, :]))
        lhs = rotational_average(g).values
        rhs = np.ascontiguousarray(avg.values.transpose(1, 2, 0)[:, ::-1, :])
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13)


class TestPotentialEnergyAndWellMass:
    def test_zero_potential(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        V = Field3D(grid32, np.zeros(grid32.shape))
        assert potential_energy(V, psi.density()) == 0.0

    def test_unit_potential_gives_unit_pairing(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        V = Field3D(grid32, np.ones(grid32.shape))
        assert potential_energy(V, psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_mass_in_well_zero_for_core_support(self, grid32):
        rr = grid32.radius()
        vals = np.where(rr < 0.95, 1.0, 0.0)
        rho = Field3D(grid32, vals / (np.sum(vals) * grid32.cell_volume))
        assert mass_in_well(rho, 6.0) == 0.0

    def test_mass_in_well_one_for_annulus_support(self):
        g = Grid3D(48, 24.0)
        rr = g.radius()
        R = 8.0
        vals = np.where((rr >= 2.0) & (rr <= R), 1.0, 0.0)
        rho = Field3D(g, vals / (np.sum(vals) * g.cell_volume))
        assert mass_in_well(rho, R) == pytest.approx(1.0, abs=1e-12)

    def test_grid_mismatch_rejected(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        other = Grid3D(32, 20.0)
        V = Field3D(other, np.zeros(other.shape))
        with pytest.raises(ValueError, match="different grids"):
            potential_energy(V, psi.density())


class TestPotentialSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown potential kind"):
            PotentialSpec(kind="coulombic")

    def test_radial_bump_profile_support(self):
        spec = PotentialSpec(kind="radial_bump", center=5.0, width=2.0, amplitude=1.0)
        assert spec.profile(np.array([5.0]))[0] == pytest.approx(1.0, abs=1e-15)
        r = np.linspace(0, 12, 1000)
        v = spec.profile(r)
        assert np.all(v[(r <= 3.0) | (r >= 7.0)] == 0.0)
        assert np.all((v >= 0.0) & (v <= 1.0))

    def test_x1_squared_build(self, grid32):
        W = PotentialSpec(kind="x1_squared").build(grid32)
        X, _, _ = grid32.meshgrid()
        np.testing.assert_array_equal(W.values, np.broadcast_to(X * X, grid32.shape))
        assert not PotentialSpec(kind="x1_squared").is_radial
