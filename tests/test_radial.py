import numpy as np
import pytest

from pekar import (
    Field3D,
    Grid3D,
    RadialField,
    RadialGrid,
    coulomb_self_energy,
    h1_norm,
    lift_radial,
    radial_coulomb,
    radial_coulomb_potential,
    radial_kinetic,
    strauss_bound_check,
)

from conftest import ball_density_radial, gaussian_radial


class TestRadialCoulomb:
    def test_zero_density(self, rgrid2048):
        assert radial_coulomb(RadialField(rgrid2048, np.zeros(rgrid2048.m))) == 0.0

    def test_uniform_ball(self, rgrid2048):
        a = 2.0
        rho = ball_density_radial(rgrid2048, a)
        assert radial_coulomb(rho) == pytest.approx(6 / (5 * a), rel=5e-4)

    def test_gaussian(self, rgrid2048):
        # trapezoid double quadrature is second order: ~2.5e-6 at m=2048
        sigma = 1.0
        rho = gaussian_radial(rgrid2048, sigma).density()
        assert radial_coulomb(rho) == pytest.approx(1 / (sigma * np.sqrt(np.pi)), rel=1e-5)

    def test_gaussian_quadrature_second_order(self):
        sigma, exact = 1.0, 1 / np.sqrt(np.pi)
        errs = []
        for m in (1024, 2048, 4096):
            rg = RadialGrid(m, 16.0)
            rho = gaussian_radial(rg, sigma).density()
            errs.append(abs(radial_coulomb(rho) - exact) / exact)
        assert errs[1] < errs[0] / 3
        assert errs[2] < errs[1] / 3

    def test_negative_density_rejected(self, rgrid2048):
        vals = np.zeros(rgrid2048.m)
        vals[5] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            radial_coulomb(RadialField(rgrid2048, vals))

    def test_prefix_sum_matches_dense_double_sum(self):
        # independent oracle: materialize the (4π)² a_i a_j / max(r_i,r_j) matrix
        rg = RadialGrid(128, 8.0)
        rng = np.random.default_rng(5)
        rho = RadialField(rg, rng.random(rg.m))
        r, w = rg.nodes(), rg.weights()
        a = w * rho.values * r * r
        rmax = np.maximum.outer(r, r)
        rmax[0, 0] = 1.0
        dense = (4 * np.pi) ** 2 * float(a @ (1.0 / rmax) @ a)
        assert radial_coulomb(rho) == pytest.approx(dense, rel=1e-12)

    def test_potential_consistent_with_energy(self):
        # radial_coulomb is Σ M ρ Φ, so Φ itself is checked against the dense
        # per-node sum Φ_j = 4π Σ_i w_i ρ_i r_i² / max(r_i, r_j)
        rg = RadialGrid(256, 10.0)
        rho = gaussian_radial(rg, 1.3).density()
        r, w = rg.nodes(), rg.weights()
        rmax = np.maximum.outer(r, r)
        rmax[0, 0] = 1.0
        dense = 4 * np.pi * (w * rho.values * r * r) @ (1.0 / rmax)
        np.testing.assert_allclose(radial_coulomb_potential(rho), dense, rtol=1e-12, atol=0)

    def test_gaussian_potential_matches_erf(self, rgrid2048):
        from scipy.special import erf

        sigma = 1.0
        rho = gaussian_radial(rgrid2048, sigma).density()
        phi = radial_coulomb_potential(rho)
        r = rgrid2048.nodes()[1:]
        expect = erf(r / (sigma * np.sqrt(2))) / r
        np.testing.assert_allclose(phi[1:], expect, rtol=5e-4, atol=1e-6)


class TestNewtonEquivalence:
    @pytest.mark.parametrize(
        "maker,exact",
        [
            (lambda rg: gaussian_radial(rg, 1.0).density(), 1 / np.sqrt(np.pi)),
            (lambda rg: ball_density_radial(rg, 2.0), 0.6),
        ],
        ids=["gaussian", "ball"],
    )
    def test_radial_matches_lifted_3d(self, maker, exact):
        grid = Grid3D(96, 24.0)
        rg = RadialGrid(2048, np.sqrt(3) / 2 * grid.L + 1.0)
        rho_r = maker(rg)
        d_rad = radial_coulomb(rho_r)
        lifted = lift_radial(rho_r, grid)
        lifted = Field3D(grid, np.clip(lifted.values, 0.0, None))
        lifted = Field3D(grid, lifted.values / lifted.mass())
        d_3d = coulomb_self_energy(lifted)
        assert abs(d_rad - d_3d) / abs(d_rad) <= 5e-3
        assert d_rad == pytest.approx(exact, rel=5e-3)
        assert d_3d == pytest.approx(exact, rel=5e-3)


class TestKineticRadial:
    def test_gaussian_kinetic(self, rgrid2048):
        sigma = 1.0
        u = gaussian_radial(rgrid2048, sigma)
        assert radial_kinetic(u) == pytest.approx(3 / (4 * sigma**2), rel=1e-5)

    def test_constant_profile_zero(self, rgrid2048):
        u = RadialField(rgrid2048, np.ones(rgrid2048.m))
        assert radial_kinetic(u) == 0.0


class TestStraussBound:
    def test_zero_field_margin_is_bound_value(self, rgrid2048):
        # ‖0‖_H1 = 0 makes the bound vanish identically: margin 0 = bound at r=2
        u = RadialField(rgrid2048, np.zeros(rgrid2048.m))
        assert strauss_bound_check(u) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_has_positive_margin(self, rgrid2048):
        u = gaussian_radial(rgrid2048, 1.0)
        assert strauss_bound_check(u) > 0.0

    def test_genuine_h1_profiles_never_violate(self):
        # the bound is a theorem for H¹ profiles: with the self-computed norm
        # even slow algebraic decay keeps the margin nonnegative
        rg = RadialGrid(4096, 40.0)
        r = rg.nodes()
        vals = np.where(r > 0.5, np.maximum(r, 0.5) ** -0.4, 0.5**-0.4)
        u = RadialField(rg, vals)
        assert strauss_bound_check(u) >= 0.0

    def test_slow_decay_flagged_against_norm_budget(self):
        # checking the same profile against a unit H¹ budget flags the decay:
        # u·r = r^0.6 grows without bound while the envelope stays at ~0.4/r
        rg = RadialGrid(4096, 40.0)
        r = rg.nodes()
        vals = np.where(r > 0.5, np.maximum(r, 0.5) ** -0.4, 0.5**-0.4)
        u = RadialField(rg, vals)
        assert strauss_bound_check(u, h1=1.0) < 0.0

    def test_explicit_h1_norm_accepted(self, rgrid2048):
        u = gaussian_radial(rgrid2048, 1.0)
        m1 = strauss_bound_check(u, h1=h1_norm(u))
        m2 = strauss_bound_check(u)
        assert m1 == pytest.approx(m2, rel=1e-14)
