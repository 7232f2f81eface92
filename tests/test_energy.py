import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pekar import (
    CoercivityError,
    EnergyBreakdown,
    Field3D,
    Grid3D,
    el_residual,
    energy_gradient,
    free_energy,
    normalize,
    pekar_energy,
    radial_el_residual,
    radial_pekar_energy,
)
from pekar import energy
from pekar.energy import check_coercivity
from pekar.potentials import smooth_bump
from pekar.spectral import SpectralOps

from conftest import cube_symmetries, gaussian_psi, gaussian_radial, smooth_random_psi


class TestBreakdown:
    def test_total_identity_by_construction(self):
        b = EnergyBreakdown(kinetic=1.5, coulomb=0.7, potential=0.2)
        assert b.total == 1.5 - 0.7 - 0.2

    def test_gaussian_closed_form(self, grid48):
        sigma = 1.0
        psi = gaussian_psi(grid48, sigma)
        b = pekar_energy(psi)
        expect = 3 / (4 * sigma**2) - 1 / (sigma * np.sqrt(np.pi))
        assert b.total == pytest.approx(expect, rel=1e-7)
        assert b.potential == 0.0

    def test_free_energy_consistency(self, grid32):
        psi = smooth_random_psi(grid32, np.random.default_rng(0))
        b = pekar_energy(psi)
        assert free_energy(psi) == b.kinetic - b.coulomb

    def test_one_shot_energies_compute_no_potential(self, grid32, monkeypatch):
        # they take the padded reduction, a padded inverse cheaper than Φ_ρ
        calls = []
        potential = SpectralOps.coulomb_potential

        def counting(*args, **kw):
            calls.append(args)
            return potential(*args, **kw)

        monkeypatch.setattr(SpectralOps, "coulomb_potential", counting)
        psi = gaussian_psi(grid32, 1.0)
        pekar_energy(psi)
        free_energy(psi)
        assert calls == []
        el_residual(psi)
        assert len(calls) == 1

    def test_residual_reads_the_potential_of_evaluate(self, grid32, rgrid2048, monkeypatch):
        # both functionals compute Φ once per evaluation and hand it to residual
        radial_calls, padded_calls = [], []
        potential = energy.radial_coulomb_potential
        fft_padded = SpectralOps.fft_padded

        def counting_potential(rho):
            radial_calls.append(rho)
            return potential(rho)

        def counting_padded(self, values, **kw):
            padded_calls.append(values)
            return fft_padded(self, values, **kw)

        monkeypatch.setattr(energy, "radial_coulomb_potential", counting_potential)
        monkeypatch.setattr(SpectralOps, "fft_padded", counting_padded)
        u = gaussian_radial(rgrid2048, 1.0).values
        F = energy.RadialFunctional(rgrid2048)
        bd, (_, phi) = F.evaluate(u)
        assert len(radial_calls) == 1
        assert bd.coulomb == float(np.sum(F.M * u**2 * phi))
        F.residual(bd, (u, phi))
        assert len(radial_calls) == 1

        psi = gaussian_psi(grid32, 1.0).values
        B = energy.BoxFunctional(grid32)
        x = B.to_coords(psi)
        fields = B.evaluate(x)
        assert len(padded_calls) == 1
        B.residual(*fields)
        assert len(padded_calls) == 1

    def test_translation_invariance_of_free_energy(self, grid32):
        psi = gaussian_psi(grid32, 0.8)
        e0 = free_energy(psi)
        rolled = Field3D(grid32, np.roll(psi.values, (2, -1, 3), axis=(0, 1, 2)))
        assert free_energy(rolled) == pytest.approx(e0, abs=1e-12)

    def test_dilation_scaling_family(self, grid48):
        # ψ_λ = λ^{3/2} ψ(λx) on the shrunk box: total(λ) = Tλ² - Cλ exactly
        psi = gaussian_psi(grid48, 1.0)
        b1 = pekar_energy(psi)
        for lam in (0.5, 2.0):
            g2 = Grid3D(grid48.n, grid48.L / lam)
            psi_l = Field3D(g2, lam**1.5 * psi.values)
            b2 = pekar_energy(psi_l)
            assert b2.kinetic == pytest.approx(lam**2 * b1.kinetic, rel=1e-12)
            assert b2.coulomb == pytest.approx(lam * b1.coulomb, rel=1e-10)
        # the optimal dilation of the free energy is λ* = C/(2T)
        lam_star = b1.coulomb / (2 * b1.kinetic)
        lams = np.linspace(0.5 * lam_star, 1.5 * lam_star, 21)
        totals = lams**2 * b1.kinetic - lams * b1.coulomb
        assert np.argmin(totals) == 10


class TestGradient:
    def test_matches_finite_differences(self, grid32):
        rng = np.random.default_rng(42)
        psi = smooth_random_psi(grid32, rng)
        V = Field3D(grid32, np.exp(-grid32.radius()))
        _, grad = energy_gradient(psi, V)
        dv = grid32.cell_volume
        h = 1e-5
        for _ in range(10):
            d = normalize(Field3D(grid32, rng.standard_normal(grid32.shape))).values
            ep = pekar_energy(Field3D(grid32, psi.values + h * d), V).total
            em = pekar_energy(Field3D(grid32, psi.values - h * d), V).total
            fd = (ep - em) / (2 * h)
            an = float(np.sum(grad.values * d) * dv)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(4, 12).map(lambda k: 2 * k),
        L=st.floats(8.0, 32.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_directional_derivative_property(self, n, L, seed):
        grid = Grid3D(n, L)
        rng = np.random.default_rng(seed)
        psi = smooth_random_psi(grid, rng)
        h = smooth_random_psi(grid, rng)
        V = Field3D(grid, rng.uniform(0.5, 2.0) * np.exp(-grid.radius() ** 2 / 8))
        _, grad = energy_gradient(psi, V)
        t = 1e-5
        ep = pekar_energy(Field3D(grid, psi.values + t * h.values), V).total
        em = pekar_energy(Field3D(grid, psi.values - t * h.values), V).total
        fd = (ep - em) / (2 * t)
        an = grad.inner(h)
        # relative to ‖grad‖‖h‖, which bounds the pairing (Cauchy–Schwarz)
        assert abs(fd - an) <= 1e-8 * grad.norm() * h.norm()

    def test_rayleigh_identity_two_ways(self, grid32):
        psi = smooth_random_psi(grid32, np.random.default_rng(1))
        V = Field3D(grid32, np.exp(-grid32.radius() ** 2))
        res = el_residual(psi, V)
        b = pekar_energy(psi, V)
        mu2 = b.kinetic - 2 * b.coulomb - b.potential
        assert abs(res.mu - mu2) <= 1e-10 * max(1.0, abs(mu2))


class TestLatticeSymmetryProperty:
    """pekar_energy is invariant under the cube group (with a radial V) and
    under lattice shifts (V = 0), for smooth random fields supported in a
    ball of radius L/4 about the origin, well inside the inscribed ball."""

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(n=st.integers(4, 12).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_cube_symmetries_and_shifts(self, n, seed):
        grid = Grid3D(n, 16.0)
        rng = np.random.default_rng(seed)
        a = grid.L / 4
        X, Y, Z = grid.meshgrid()
        vals = np.zeros(grid.shape)
        for _ in range(3):
            c = rng.uniform(-a / 2, a / 2, size=3)
            s2 = rng.uniform(0.5, 2.0) ** 2
            vals += rng.uniform(0.3, 1.0) * np.exp(
                -((X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2) / (4 * s2)
            )
        vals *= smooth_bump(grid.radius() / a)
        psi = normalize(Field3D(grid, vals))
        V = Field3D(grid, rng.uniform(0.5, 2.0) * np.exp(-grid.radius() ** 2 / 8))

        def assert_same(b, ref):
            scale = ref.kinetic + ref.coulomb + abs(ref.potential)
            for k in ("kinetic", "coulomb", "potential", "total"):
                assert abs(getattr(b, k) - getattr(ref, k)) <= 1e-12 * scale, k

        ref = pekar_energy(psi, V)
        for tf in cube_symmetries():
            assert_same(pekar_energy(Field3D(grid, tf(psi.values)), V), ref)

        # whole-cell shifts that keep the support |x - shift| < L/4 inside
        # the ball of radius L/2 - dx
        ref = pekar_energy(psi)
        reach = int((grid.L / 2 - grid.dx - a) / grid.dx)
        for _ in range(4):
            shift = rng.integers(-reach, reach + 1, size=3)
            if np.linalg.norm(shift) > reach:
                continue
            rolled = Field3D(grid, np.roll(psi.values, tuple(shift), axis=(0, 1, 2)))
            assert_same(pekar_energy(rolled), ref)


class TestELResidual:
    def test_random_field_has_large_residual(self, grid32):
        rng = np.random.default_rng(9)
        psi = normalize(Field3D(grid32, rng.standard_normal(grid32.shape)))
        assert el_residual(psi).residual_norm > 1.0

    def test_radial_counterpart_consistency(self, rgrid2048):
        u = gaussian_radial(rgrid2048, 1.0)
        res = radial_el_residual(u)
        b = radial_pekar_energy(u)
        mu2 = b.kinetic - 2 * b.coulomb
        assert res.mu == pytest.approx(mu2, abs=1e-10)


class TestCoercivityRail:
    def test_violation_raises_with_diagnostics(self):
        bad = EnergyBreakdown(kinetic=1.0, coulomb=12.0, potential=0.0)
        with pytest.raises(CoercivityError, match="coercivity floor"):
            check_coercivity(bad)

    def test_normal_breakdown_passes(self):
        check_coercivity(EnergyBreakdown(kinetic=0.1, coulomb=0.2, potential=0.9))
