import itertools

import numpy as np
import pytest

from pekar import (
    Field3D,
    Grid3D,
    KGrid,
    PhononDisplacement,
    alpha_scaling_check,
    coupling_constant,
    density_fourier,
    free_energy,
    min_product_energy,
    kinetic_energy,
    optimal_displacement,
    product_energy,
)
from pekar.ansatz import _cell_integrals, _unit_cell_inv_k2, _J_CORNER

from conftest import gaussian_psi, smooth_random_psi


class TestKGrid:
    def test_axis_symmetric_and_nonzero(self):
        kg = KGrid(8, 2.0)
        ax = kg.axis()
        np.testing.assert_allclose(ax, -ax[::-1], atol=1e-15)
        assert kg.kmag().min() > 0.0
        assert kg.dk == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KGrid(7, 2.0)
        with pytest.raises(ValueError):
            KGrid(8, -1.0)

    @pytest.mark.parametrize("n_k, k_max, error", [
        (8.0, 2.0, TypeError), (True, 2.0, TypeError), ("8", 2.0, TypeError),
        (8, np.inf, ValueError), (8, np.nan, ValueError), (8, True, ValueError),
    ])
    def test_sizes_checked_when_built(self, n_k, k_max, error):
        # each of these used to build and fail later, in np.arange or as NaN weights
        with pytest.raises(error, match=r"^(n_k must be an integer|k_max must be a finite)"):
            KGrid(n_k, k_max)

    def test_corner_cell_closed_form_vs_adaptive_oracle(self):
        # J = 3 ∫₀¹∫₀¹ dx dy/(1+x²+y²) by adaptive quadrature
        from scipy.integrate import dblquad

        val, err = dblquad(lambda y, x: 3.0 / (1 + x * x + y * y), 0, 1, 0, 1, epsabs=1e-12)
        assert _J_CORNER == pytest.approx(val, abs=1e-10)

    def test_cell_table_vs_semianalytic_oracle(self):
        # reduce ∫ dz/(x²+y²+z²) analytically, integrate the rest adaptively
        from scipy.integrate import dblquad

        table = _cell_integrals(3)  # octant entry (a, b, c) is the cell at (a, b, c) + 1/2
        for key in [(3, 1, 1), (3, 3, 1), (5, 3, 1)]:
            cx, cy, cz = (k / 2 for k in key)

            def inner(y, x, cz=cz):
                a = np.sqrt(x * x + y * y)
                return (np.arctan((cz + 0.5) / a) - np.arctan((cz - 0.5) / a)) / a

            val, err = dblquad(inner, cx - 0.5, cx + 0.5, cy - 0.5, cy + 0.5, epsabs=1e-11)
            assert table[tuple(k // 2 for k in key)] == pytest.approx(val, abs=1e-8)

    def test_cached_cell_integrals_match_table_and_refuse_writes(self):
        n_k, h = 6, 3
        cached = _unit_cell_inv_k2(n_k)
        assert np.array_equal(cached[h:, h:, h:], _cell_integrals(h))
        # every axis permutation and reflection maps the table onto itself bit for bit
        for perm in itertools.permutations(range(3)):
            for flips in itertools.product((False, True), repeat=3):
                axes = tuple(ax for ax, f in enumerate(flips) if f)
                assert np.array_equal(np.flip(cached.transpose(perm), axis=axes), cached)
        kg = KGrid(n_k, 1.5)
        assert np.array_equal(kg.cell_inv_k2(), cached * kg.dk)
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 0.0

    def test_weights_positive_and_near_one_far_out(self):
        kg = KGrid(16, 4.0)
        w = kg.weights()
        assert np.all(w > 0)
        # β → dk³ away from the singular cells
        far = kg.kmag() > 3.0
        np.testing.assert_allclose(w[far], kg.dk**3, rtol=3e-3)


class TestDensityFourier:
    def test_gaussian_transform(self, grid32):
        sigma = 1.0  # density e^{-r²/(2σ²)} has transform e^{-σ²k²/2}
        rho = gaussian_psi(grid32, sigma).density()
        kg = KGrid(8, 2.0)
        got = density_fourier(rho, kg)
        k2 = kg.kmag() ** 2
        np.testing.assert_allclose(np.abs(got), np.exp(-sigma**2 * k2 / 2), rtol=1e-6)
        assert np.max(np.abs(got.imag)) < 1e-12

    def test_point_mass_has_unit_modulus(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[20, 13, 7] = 1.0 / grid32.cell_volume
        rho = Field3D(grid32, vals)
        kg = KGrid(8, 2.0)
        got = density_fourier(rho, kg)
        np.testing.assert_allclose(np.abs(got), 1.0, rtol=1e-12)

    def test_hermitian_symmetry_for_real_density(self, grid32):
        rho = smooth_random_psi(grid32, np.random.default_rng(3)).density()
        kg = KGrid(8, 2.0)
        got = density_fourier(rho, kg)
        flipped = got[::-1, ::-1, ::-1]
        np.testing.assert_allclose(flipped, np.conj(got), atol=1e-12)


    def test_matches_the_explicit_sum(self):
        # ρ̂(k) = Σ_x ρ(x) e^{-ik·x} dx³, summed over every cell for every mode
        g = Grid3D(8, 6.0)
        rho = Field3D(g, np.random.default_rng(5).random(g.shape))
        kg = KGrid(6, 2.0)
        X = np.stack(np.meshgrid(g.axis(), g.axis(), g.axis(), indexing="ij"), -1).reshape(-1, 3)
        K = np.stack(np.meshgrid(kg.axis(), kg.axis(), kg.axis(), indexing="ij"), -1).reshape(-1, 3)
        ref = (np.exp(-1j * K @ X.T) @ rho.values.ravel() * g.cell_volume).reshape(kg.shape)
        got = density_fourier(rho, kg)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestOptimalDisplacement:
    def test_literal_formula_on_flat_transform(self):
        kg = KGrid(8, 2.0)
        alpha = 1.7
        rho_hat = np.ones(kg.shape, dtype=complex)
        disp = optimal_displacement(rho_hat, kg, alpha)
        expect = np.sqrt(alpha / 2) / (np.pi * kg.kmag())
        np.testing.assert_allclose(disp.z.real, expect, rtol=1e-15)
        np.testing.assert_array_equal(disp.z.imag, np.zeros(kg.shape))

    def test_alpha_doubling_scales_by_sqrt2(self, grid32):
        rho = gaussian_psi(grid32, 1.0).density()
        kg = KGrid(8, 2.0)
        rh = density_fourier(rho, kg)
        z1 = optimal_displacement(rh, kg, 1.0).z
        z2 = optimal_displacement(rh, kg, 2.0).z
        np.testing.assert_allclose(z2, np.sqrt(2) * z1, rtol=1e-14)

    def test_conjugate_symmetry_invariant(self, grid32):
        rho = smooth_random_psi(grid32, np.random.default_rng(5)).density()
        kg = KGrid(8, 2.0)
        z = optimal_displacement(density_fourier(rho, kg), kg, 1.0).z
        np.testing.assert_allclose(z[::-1, ::-1, ::-1], np.conj(z), atol=1e-12)

    def test_alpha_must_be_positive(self):
        kg = KGrid(4, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            optimal_displacement(np.ones(kg.shape, dtype=complex), kg, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, grid32, bad):
        kg = KGrid(4, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            coupling_constant(bad)
        with pytest.raises(ValueError, match="alpha"):
            min_product_energy(gaussian_psi(grid32, 1.0), kg, alpha=bad)
        with pytest.raises(ValueError, match="alpha"):
            PhononDisplacement(kg, np.zeros(kg.shape, dtype=complex), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_displacement_rejected(self, bad):
        kg = KGrid(4, 1.0)
        z = np.zeros(kg.shape, dtype=complex)
        z[1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PhononDisplacement(kg, z, 1.0)


class TestProductEnergy:
    def test_zero_displacement_leaves_kinetic(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        kg = KGrid(8, 2.0)
        disp = PhononDisplacement(kg, np.zeros(kg.shape, dtype=complex), 1.0)
        assert product_energy(psi, disp) == pytest.approx(kinetic_energy(psi), rel=1e-13)

    def test_quadratic_expansion_exact(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        kg = KGrid(8, 2.0)
        e_opt, disp = min_product_energy(psi, kg)
        rng = np.random.default_rng(0)
        w = kg.weights()
        for t in (0.3, 1.0):
            dz = rng.standard_normal(kg.shape) + 1j * rng.standard_normal(kg.shape)
            pert = PhononDisplacement(kg, disp.z + t * dz, 1.0)
            lhs = product_energy(psi, pert) - e_opt
            rhs = t**2 * float(np.sum(w * np.abs(dz) ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_optimal_beats_random_displacements(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        kg = KGrid(8, 2.0)
        e_opt, disp = min_product_energy(psi, kg)
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal(kg.shape) + 1j * rng.standard_normal(kg.shape)
            other = PhononDisplacement(kg, z, 1.0)
            assert e_opt <= product_energy(psi, other) + 1e-12

    def test_min_product_energy_transforms_the_density_once(self, grid32, monkeypatch):
        import pekar.ansatz as ansatz

        calls = []
        transform = ansatz.density_fourier
        monkeypatch.setattr(ansatz, "density_fourier",
                            lambda rho, kg: calls.append(kg) or transform(rho, kg))
        psi = gaussian_psi(grid32, 1.0)
        kg = KGrid(8, 2.0)
        e_opt, disp = min_product_energy(psi, kg)
        assert calls == [kg]
        assert e_opt == product_energy(psi, disp)

    def test_incompatible_grids_rejected(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        kg = KGrid(8, 2.0)
        disp = PhononDisplacement(kg, np.zeros(kg.shape, dtype=complex), 2.0)
        other = Grid3D(32, 20.0)
        V = Field3D(other, np.zeros(other.shape))
        with pytest.raises(ValueError, match="incompatible grids"):
            product_energy(psi, disp, V=V)


class TestCompletingTheSquare:
    def test_collapse_reproduces_free_energy(self):
        g = Grid3D(48, 16.0)
        psi = gaussian_psi(g, 1.0)
        kg = KGrid(48, 3.0)  # dk = 0.125; the collapse floor scales ~dk³
        e_min, _ = min_product_energy(psi, kg)
        e_free = free_energy(psi)
        assert abs(e_min - e_free) <= 1e-2 * abs(e_free)

    def test_truncation_error_decreases_monotonically(self):
        g = Grid3D(48, 16.0)
        psi = gaussian_psi(g, 1.0)
        e_free = free_energy(psi)
        errs = []
        for k_max in (1.0, 2.0, 4.0):
            kg = KGrid(int(2 * k_max / 0.25), k_max)
            e_min, _ = min_product_energy(psi, kg)
            errs.append(abs(e_min - e_free))
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]

    def test_stated_hamiltonian_prefactor_fails_collapse(self):
        # the (2π)^{-3/2}√α coupling would miss the Coulomb collapse by 4π;
        # the adopted constant √(α/2)/π is pinned by this very check
        assert coupling_constant(1.0) ** 2 * 2 * np.pi**2 == pytest.approx(1.0, rel=1e-14)
        wrong = 1.0 / (2 * np.pi) ** 1.5
        assert wrong**2 * 2 * np.pi**2 == pytest.approx(1 / (4 * np.pi), rel=1e-12)


class TestAlphaScaling:
    def test_alpha_one_is_identity_case(self):
        g = Grid3D(48, 16.0)
        psi = gaussian_psi(g, 1.0)
        kg = KGrid(16, 2.0)
        d1 = alpha_scaling_check(psi, 1.0, kg)
        e_min, _ = min_product_energy(psi, kg)
        expect = abs(e_min - free_energy(psi)) / abs(free_energy(psi))
        assert d1 == pytest.approx(expect, rel=1e-10)

    def test_alpha_two_gaussian(self):
        g = Grid3D(48, 16.0)
        psi = gaussian_psi(g, 1.0)
        kg = KGrid(48, 3.0)
        assert alpha_scaling_check(psi, 2.0, kg) <= 1e-2

    def test_defect_translation_invariant(self):
        g = Grid3D(48, 16.0)
        psi = gaussian_psi(g, 1.0)
        kg = KGrid(16, 2.0)
        d0 = alpha_scaling_check(psi, 2.0, kg)
        rolled = Field3D(g, np.roll(psi.values, (3, -2, 1), axis=(0, 1, 2)))
        d1 = alpha_scaling_check(rolled, 2.0, kg)
        assert d1 == pytest.approx(d0, abs=1e-8)
