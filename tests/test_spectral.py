import os
import time
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft as sfft

from pekar import (
    BoundarySupportWarning,
    Field3D,
    Grid3D,
    RadialGrid,
    SolveOptions,
    coulomb_potential,
    coulomb_self_energy,
    kinetic_energy,
    normalize,
    sweep_R,
)
from pekar import spectral
from pekar.spectral import SpectralOps, ops_for

from conftest import ball_density, gaussian_psi, smooth_random_psi


# the mirror classes: the axes along which a field is even about the box centre
CLASSES = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def gaussian_kinetic_oracle(sigma: float) -> float:
    """1D radial quadrature of 4π ∫ ψ'(r)² r² dr for ψ ∝ exp(-r²/(4σ²))."""
    r = np.linspace(0.0, 30.0 * sigma, 400001)
    psi = np.exp(-(r**2) / (4 * sigma**2))
    nrm2 = np.trapezoid(4 * np.pi * psi**2 * r**2, r)
    dpsi = -r / (2 * sigma**2) * psi
    return float(np.trapezoid(4 * np.pi * dpsi**2 * r**2, r) / nrm2)


def gaussian_coulomb_oracle(sigma: float) -> float:
    """erf-potential quadrature: D = 4π ∫ ρ(r) Φ(r) r² dr for the unit Gaussian,
    ρ(r) = (2πσ²)^(-3/2) exp(-r²/2σ²), Φ(r) = erf(r/(σ√2))/r."""
    from scipy.special import erf

    r = np.linspace(1e-9, 30.0 * sigma, 400001)
    rho = (2 * np.pi * sigma**2) ** -1.5 * np.exp(-(r**2) / (2 * sigma**2))
    phi = erf(r / (sigma * np.sqrt(2))) / r
    return float(np.trapezoid(4 * np.pi * rho * phi * r**2, r))


class TestKinetic:
    def test_constant_field_has_zero_kinetic(self, grid32):
        f = normalize(Field3D(grid32, np.ones(grid32.shape)))
        assert kinetic_energy(f) == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_matches_closed_form_and_oracle(self, grid48):
        sigma = 1.0
        psi = gaussian_psi(grid48, sigma)
        oracle = gaussian_kinetic_oracle(sigma)
        assert oracle == pytest.approx(3 / (4 * sigma**2), rel=1e-8)
        assert kinetic_energy(psi) == pytest.approx(oracle, rel=1e-8)

    def test_single_fourier_mode(self, grid32):
        # ψ ∝ sin(2π x₁ / L) has -Δψ = (2π/L)² ψ
        x = grid32.axis()
        vals = np.broadcast_to(np.sin(2 * np.pi * x / grid32.L)[:, None, None], grid32.shape)
        psi = normalize(Field3D(grid32, vals.copy()))
        assert kinetic_energy(psi) == pytest.approx((2 * np.pi / grid32.L) ** 2, rel=1e-12)

    def test_single_mode_is_an_eigenfunction_of_neg_laplacian(self, grid32):
        # -Δ sin(2πx₁/L) = (2π/L)² sin(2πx₁/L), to rounding
        x = grid32.axis()
        vals = np.broadcast_to(np.sin(2 * np.pi * x / grid32.L)[:, None, None], grid32.shape)
        psi = normalize(Field3D(grid32, vals.copy())).values
        h = ops_for(grid32).neg_laplacian(psi)
        dv = grid32.cell_volume
        mu = float(np.sum(psi * h) * dv)
        res = h - mu * psi
        assert np.sqrt(np.sum(res * res) * dv) < 1e-12
        assert mu == pytest.approx((2 * np.pi / grid32.L) ** 2, rel=1e-12)

    def test_nonnegative_on_random_fields(self, grid32):
        rng = np.random.default_rng(7)
        for _ in range(5):
            psi = normalize(Field3D(grid32, rng.standard_normal(grid32.shape)))
            assert kinetic_energy(psi) >= 0.0


class TestCoulomb:
    def test_zero_density(self, grid32):
        assert coulomb_self_energy(Field3D(grid32, np.zeros(grid32.shape))) == 0.0

    def test_uniform_ball_self_energy(self):
        # 6/(5a) for the unit-mass ball of radius a
        g = Grid3D(96, 24.0)
        a = 2.0
        rho = ball_density(g, a)
        assert coulomb_self_energy(rho) == pytest.approx(6 / (5 * a), rel=5e-3)

    def test_gaussian_self_energy_vs_oracle(self, grid48):
        sigma = 1.0
        rho = gaussian_psi(grid48, sigma).density()
        oracle = gaussian_coulomb_oracle(sigma)
        assert oracle == pytest.approx(1 / (sigma * np.sqrt(np.pi)), rel=1e-8)
        assert coulomb_self_energy(rho) == pytest.approx(oracle, rel=1e-8)

    def test_negative_density_rejected(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, 0, 0] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            coulomb_self_energy(Field3D(grid32, vals))

    def test_boundary_support_warns(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, :, :] = 1.0  # sheet on a box face
        with pytest.warns(BoundarySupportWarning):
            coulomb_self_energy(Field3D(grid32, vals))

    def test_support_inside_the_box_does_not_warn(self, grid32):
        rho = ball_density(grid32, 4.0)  # radius half the inscribed one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # pyproject.toml ignores the warning globally
            coulomb_self_energy(rho)
        assert not [w for w in caught if issubclass(w.category, BoundarySupportWarning)]

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_boundary_mass_is_that_of_the_cells_near_the_faces(self, n):
        g = Grid3D(n, 10.0)
        near = np.abs(g.axis()) >= g.L / 2 - 2 * g.dx
        mask = near[:, None, None] | near[None, :, None] | near[None, None, :]
        rho = np.random.default_rng(n).random(g.shape)
        ref = np.sum(rho[mask]) * g.cell_volume
        tol = 1e-14 * np.sum(np.abs(rho)) * g.cell_volume
        assert abs(ops_for(g).boundary_mass(rho) - ref) <= tol

    def test_positivity_on_random_densities(self, grid32):
        rng = np.random.default_rng(3)
        for _ in range(8):
            rho = Field3D(grid32, rng.random(grid32.shape))
            assert coulomb_self_energy(rho) >= 0.0

    def test_triangle_inequality_of_coulomb_metric(self, grid32):
        # |√D(ρ₁) - √D(ρ₂)| ≤ √D(ρ₁-ρ₂): positivity of the quadratic form
        ops = ops_for(grid32)
        rng = np.random.default_rng(11)
        for _ in range(6):
            r1 = gaussian_psi(grid32, rng.uniform(0.8, 1.5), center=rng.uniform(-1, 1, 3)).density()
            r2 = gaussian_psi(grid32, rng.uniform(0.8, 1.5), center=rng.uniform(-1, 1, 3)).density()
            d1 = ops.coulomb_energy(ops.fft_padded(r1.values))
            d2 = ops.coulomb_energy(ops.fft_padded(r2.values))
            d12 = ops.coulomb_energy(ops.fft_padded(r1.values - r2.values))
            assert abs(np.sqrt(d1) - np.sqrt(d2)) <= np.sqrt(d12) + 1e-10

    def test_potential_pairing_consistency(self, grid32):
        # ∫ ρ Φ_ρ dx must equal the k-space energy to rounding
        rho = gaussian_psi(grid32, 1.2).density()
        phi = coulomb_potential(rho)
        pair = rho.inner(phi)
        assert pair == pytest.approx(coulomb_self_energy(rho), rel=1e-13)


class TestOperatorCache:
    def test_arrays_refuse_writes(self, grid32):
        ops = ops_for(grid32)
        with pytest.raises(ValueError):
            ops.wk[0, 0, 0] = 1.0
        assert not ops.k2.flags.writeable
        assert ops_for(Grid3D(32, 16.0)) is ops

    def test_sweep_builds_the_operators_once(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two threads race on any host
        # a grid no other test uses, so its operators are built here
        grid = Grid3D(16, 17.0)
        built = []
        init = SpectralOps.__init__

        def counting(self, g):
            built.append(g)
            time.sleep(0.2)  # a slow build: threads that both missed the cache would both build
            init(self, g)

        monkeypatch.setattr(SpectralOps, "__init__", counting)
        rows = sweep_R([3.0, 4.0], grid, RadialGrid(256, 16.0), SolveOptions(max_iters=3))
        assert len(rows) == 2
        assert built == [grid]


class TestPrunedTransforms:
    """The padded transforms never build the npad³ array; they must still
    equal, bit for bit, the transforms of the explicitly padded array."""

    @pytest.mark.parametrize("n", [15, 16])
    def test_equal_to_full_padded_transforms(self, n):
        # Grid3D admits only even n, so the odd size runs the two methods on
        # a stand-in carrying the attributes they read
        rng = np.random.default_rng(n)
        npad = 2 * n
        ops = SimpleNamespace(grid=SimpleNamespace(n=n), npad=npad, wk=rng.random((npad, npad, n + 1)))
        values = rng.random((n, n, n))
        big = np.zeros((npad,) * 3)
        big[:n, :n, :n] = values
        spec = sfft.rfftn(big)
        assert np.array_equal(SpectralOps.fft_padded(ops, values), spec)
        # every entry of a reused buffer is written: NaN left anywhere would show
        out = np.full(spec.shape, np.nan, dtype=complex)
        assert SpectralOps.fft_padded(ops, values, out=out) is out
        assert np.array_equal(out, spec)
        phi = sfft.irfftn(ops.wk * spec, s=(npad,) * 3)[:n, :n, :n]
        assert np.array_equal(SpectralOps.coulomb_potential(ops, spec), phi)

    def test_result_placed_when_scipy_returns_a_new_array(self, monkeypatch):
        # scipy documents overwrite_x only as "the input may be destroyed",
        # so a c2c pass that leaves its input untouched must still count
        class FreshFFT:
            def __getattr__(self, name):
                return getattr(sfft, name)

            @staticmethod
            def fft(a, **kw):
                return sfft.fft(a.copy(), **kw)

        n = 16
        ops = SimpleNamespace(grid=SimpleNamespace(n=n), npad=2 * n)
        values = np.random.default_rng(n).random((n, n, n))
        big = np.zeros((2 * n,) * 3)
        big[:n, :n, :n] = values
        monkeypatch.setattr("pekar.spectral.sfft", FreshFFT())
        assert np.array_equal(SpectralOps.fft_padded(ops, values), sfft.rfftn(big))


class TestWorkers:
    """Transforms run on one worker below a grid size and on every core from
    there on; the worker count must not change a result."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_results_equal_under_one_and_all_workers(self, n, monkeypatch):
        g = Grid3D(n, 20.0)
        ops = ops_for(g)
        psi = smooth_random_psi(g, np.random.default_rng(n)).values
        out = []
        for workers in (1, -1):
            monkeypatch.setattr(spectral, "_workers", lambda m, w=workers: w)
            spec = ops.fft(psi)
            out.append((spec, ops.ifft(spec), ops.coulomb_potential(ops.fft_padded(psi**2))))
        for one, every in zip(*out):
            assert np.array_equal(one, every)

    def test_small_grids_run_on_one_worker(self):
        assert spectral._workers(32) == spectral._workers(40) == 1
        assert spectral._workers(48) == spectral._workers(128) == -1

    @pytest.mark.parametrize("even", CLASSES, ids=str)
    def test_padded_pairs_run_as_matrices_below_the_crossover(self, even, monkeypatch):
        # two or more even axes below n = 128: per-axis matrices, no FFT
        # pass; one even axis, or n at the crossover: the pruned FFT passes
        assert spectral._dense(126, even) == (len(even) >= 2)
        assert not spectral._dense(128, even)
        calls = Counter()

        class CountingFFT:
            def __getattr__(self, name):
                return getattr(sfft, name)

            @staticmethod
            def dct(*a, **kw):
                calls["dct"] += 1
                return sfft.dct(*a, **kw)

            @staticmethod
            def fft(*a, **kw):
                calls["fft"] += 1
                return sfft.fft(*a, **kw)

        g = Grid3D(32, 20.0)
        ops = ops_for(g, even)
        half = ops.fold(TestMirrorClasses.even_field(g, even))
        monkeypatch.setattr(spectral, "sfft", CountingFFT())
        for below in (spectral._DENSE_BELOW, g.n):  # as built, then with n at the crossover
            monkeypatch.setattr(spectral, "_DENSE_BELOW", below)
            calls.clear()
            ops.coulomb_potential(ops.fft_padded(half))
            fft_passes = len(even) < 2 or below == g.n
            assert (calls["dct"] > 0) == fft_passes
            assert (calls["fft"] > 0) == (fft_passes and len(even) < 2)


class TestLatticeInvariance:
    def test_translation_invariance_whole_cells(self, grid32):
        # shifts keep the support inside the inscribed ball, where the
        # free-space energies are genuinely translation invariant
        psi = gaussian_psi(grid32, 0.8, center=(0.5, -0.25, 0.75))
        T0 = kinetic_energy(psi)
        D0 = coulomb_self_energy(psi.density())
        for shift in [(1, -2, 3), (4, 2, -1)]:
            rolled = Field3D(grid32, np.roll(psi.values, shift, axis=(0, 1, 2)))
            assert abs(kinetic_energy(rolled) - T0) <= 1e-12 * max(1.0, T0)
            assert (
                abs(coulomb_self_energy(rolled.density()) - D0)
                <= 1e-12 * max(1.0, D0)
            )

    def test_kinetic_translation_invariance_any_roll(self, grid32):
        # the spectral kinetic term is exactly roll invariant, wrap or not
        psi = gaussian_psi(grid32, 1.0, center=(0.5, -0.25, 0.75))
        T0 = kinetic_energy(psi)
        rolled = Field3D(grid32, np.roll(psi.values, (5, -3, 11), axis=(0, 1, 2)))
        assert abs(kinetic_energy(rolled) - T0) <= 1e-12 * max(1.0, T0)

    def test_cubic_symmetry_invariance(self, grid32):
        psi = gaussian_psi(grid32, 1.0, center=(0.5, 0.9, -0.7))
        T0, D0 = kinetic_energy(psi), coulomb_self_energy(psi.density())
        n0 = psi.norm()
        transforms = [
            lambda v: v.transpose(1, 0, 2),
            lambda v: v.transpose(2, 1, 0),
            lambda v: v[::-1, :, :],
            lambda v: v[:, ::-1, :],
            lambda v: v[::-1, ::-1, ::-1],
            lambda v: v.transpose(1, 2, 0)[::-1, :, :],
        ]
        for tf in transforms:
            g = Field3D(grid32, np.ascontiguousarray(tf(psi.values)))
            assert abs(g.norm() - n0) <= 1e-12
            assert abs(kinetic_energy(g) - T0) <= 1e-12 * max(1.0, T0)
            assert abs(coulomb_self_energy(g.density()) - D0) <= 1e-12 * max(1.0, D0)


class TestFreeSpaceAccuracy:
    def test_two_blob_interaction_against_point_law(self):
        # two narrow unit-half-mass Gaussians far apart: cross energy ≈ 2·(q²/d)
        g = Grid3D(64, 32.0)
        d = 10.0
        psi1 = gaussian_psi(g, 0.8, center=(-d / 2, 0, 0))
        psi2 = gaussian_psi(g, 0.8, center=(+d / 2, 0, 0))
        rho = Field3D(g, 0.5 * psi1.density().values + 0.5 * psi2.density().values)
        D_self = coulomb_self_energy(psi1.density())
        D = coulomb_self_energy(rho)
        # D = 2·(1/4)·D_self + 2·(1/4)·q_pair/d with q=1 blobs
        cross = D - 0.5 * D_self
        assert cross == pytest.approx(0.5 / d, rel=1e-6)


class TestMirrorClasses:
    """A class keeps the half x > 0 of each even axis; its transforms must
    give the full box's energies and Φ_ρ, to rounding."""

    @staticmethod
    def even_field(g, even, seed=0):
        v = smooth_random_psi(g, np.random.default_rng(seed)).values
        for a in even:
            v = v + np.flip(v, a)
        return v

    @pytest.mark.parametrize("even", CLASSES, ids=str)
    def test_class_matches_the_full_box(self, even):
        g = Grid3D(32, 20.0)
        full, ops = ops_for(g), ops_for(g, even)
        u, v = self.even_field(g, even, 1), self.even_field(g, even, 2)
        assert spectral.mirror_axes(u, v) == even
        half = ops.fold(u)
        assert half.shape == tuple(16 if a in even else 32 for a in range(3))
        assert np.array_equal(ops.unfold(half), u)
        a, b = ops.fft(half), ops.fft(ops.fold(v))
        assert np.iscomplexobj(a) == (len(even) < 3)
        assert np.abs(ops.ifft(a) - half).max() <= 1e-15 * np.abs(half).max()
        fa, fb = full.fft(u), full.fft(v)
        assert ops.inner(a, b) == pytest.approx(full.inner(fa, fb), rel=1e-13)
        assert ops.kinetic(a) == pytest.approx(full.kinetic(fa), rel=1e-13)
        pad, fpad = ops.fft_padded(half**2), full.fft_padded(u**2)
        assert ops.coulomb_energy(pad) == pytest.approx(full.coulomb_energy(fpad), rel=1e-13)
        phi, fphi = ops.coulomb_potential(pad), full.coulomb_potential(fpad)
        assert np.abs(ops.unfold(phi) - fphi).max() <= 1e-14 * np.abs(fphi).max()
        # the padded spectrum has the kernel's shape, and the scratch is reused
        out = np.full(ops.wk.shape, np.nan, dtype=pad.dtype)
        assert ops.fft_padded(half**2, out=out) is out
        assert np.array_equal(out, ops.fft_padded(half**2))

    @pytest.mark.parametrize("even", CLASSES, ids=str)
    def test_class_arrays_are_slices_of_the_full_box(self, even):
        g = Grid3D(16, 10.0)
        full, ops = ops_for(g), ops_for(g, even)
        assert ops_for(g, even) is ops and ops.npad == full.npad == 32
        # slices by value: each entry is the full table's value at the same
        # |k|² label; only the class (0,), a leading-axis slice, is a view of
        # the full box's table, the other six are C-contiguous copies
        for mine, whole, m in ((ops.k2, full.k2, 16), (ops.wk, full.wk, 32)):
            assert not mine.flags.writeable
            assert mine.flags.c_contiguous
            assert np.shares_memory(mine, whole) == (even == (0,))
            assert np.isin(mine, whole).all()
            assert mine.shape == tuple(m // 2 if a in even else m // 2 + 1
                                       if a == max(set(range(3)) - set(even), default=None)
                                       else m for a in range(3))

    @pytest.mark.parametrize("n", [32, 48, 64])
    @pytest.mark.parametrize("even", [c for c in CLASSES if len(c) >= 2], ids=str)
    def test_matrix_passes_match_the_fft_passes(self, even, n, monkeypatch):
        g = Grid3D(n, 20.0)
        ops = ops_for(g, even)
        assert ops.dense is not None and not any(m.flags.writeable for m in ops.dense)
        half = ops.fold(self.even_field(g, even, n))
        rho = half**2
        out = np.full(ops.wk.shape, np.nan, dtype=complex if len(even) < 3 else float)
        assert ops.fft_padded(rho, out=out) is out  # every entry written: NaN would show
        dense = (out, ops.coulomb_energy(out), ops.coulomb_potential(out.copy()))
        monkeypatch.setattr(spectral, "_dense", lambda m, e: False)
        spec = ops.fft_padded(rho)
        fft = (spec, ops.coulomb_energy(spec), ops.coulomb_potential(spec.copy()))
        assert np.abs(dense[0] - fft[0]).max() <= 1e-14 * np.abs(fft[0]).max()
        assert dense[1] == pytest.approx(fft[1], rel=1e-13)
        assert np.abs(dense[2] - fft[2]).max() <= 1e-14 * np.abs(fft[2]).max()

    def test_no_even_axis_is_the_full_box(self, grid32):
        assert ops_for(grid32, ()) is ops_for(grid32)
        assert ops_for(grid32).even == ()

    def test_mirror_axes_needs_exact_symmetry(self, grid32):
        v = self.even_field(grid32, (0, 1, 2))
        assert spectral.mirror_axes(v) == (0, 1, 2)
        v[0] = np.nextafter(v[0], np.inf)  # one ulp on the plane x = -L/2 + dx/2
        assert spectral.mirror_axes(v) == (1, 2)
