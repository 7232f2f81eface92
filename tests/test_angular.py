import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pekar import (
    Field3D,
    Grid3D,
    RadialField,
    RadialGrid,
    lift_radial,
    normalize,
    shell_profile,
    shell_project,
    spherical_average,
)
from pekar.angular import _shell_index

from conftest import gaussian_psi, gaussian_radial


class TestSphericalAverage:
    def test_radial_field_reproduced(self):
        g = Grid3D(64, 24.0)
        psi = gaussian_psi(g, 2.0)
        prof = spherical_average(psi)
        r = prof.grid.nodes()
        keep = (~prof.extrapolated) & (r < 8.0)
        expect = np.exp(-r[keep] ** 2 / (4 * 2.0**2))
        # compare shapes; the normalization constant scales out
        got = prof.values[keep]
        scale = expect[0] / got[0]
        np.testing.assert_allclose(got * scale, expect, atol=5e-3 * expect.max())

    def test_odd_function_averages_to_zero(self, grid32):
        X, _, _ = grid32.meshgrid()
        f = Field3D(grid32, np.broadcast_to(X, grid32.shape).copy())
        prof = spherical_average(f)
        keep = ~prof.extrapolated
        assert np.max(np.abs(prof.values[keep])) < 1e-12 * grid32.L

    def test_x1_squared_averages_to_r2_over_3(self):
        g = Grid3D(64, 16.0)
        X, _, _ = g.meshgrid()
        f = Field3D(g, np.broadcast_to(X * X, g.shape).copy())
        prof = spherical_average(f)
        r = prof.grid.nodes()
        keep = (~prof.extrapolated) & (r > 0.5) & (r < 7.0)
        # trilinear interpolation of a quadratic carries an O(dx²) bias
        np.testing.assert_allclose(prof.values[keep], r[keep] ** 2 / 3, atol=g.dx**2)

    def test_extrapolation_flagged_beyond_half_box(self, grid32):
        psi = gaussian_psi(grid32, 1.0)
        prof = spherical_average(psi)
        r = prof.grid.nodes()
        assert np.array_equal(prof.extrapolated, r > grid32.L / 2)


    def test_sampler_is_periodic_trilinear(self):
        # the Lebedev mean of an explicit 8-corner periodic trilinear sampler;
        # radii beyond L/2 (to the box corner) sample through the box faces
        from pekar.angular import _lebedev

        g = Grid3D(16, 10.0)
        f = Field3D(g, np.random.default_rng(2).standard_normal(g.shape))
        prof = spherical_average(f)
        dirs, wts = _lebedev()
        pts = prof.grid.nodes()[:, None, None] * dirs[None, :, :]
        assert np.any(np.abs(pts) > g.L / 2)
        samples = _trilinear_reference(f, pts.reshape(-1, 3))
        ref = samples.reshape(prof.grid.m, -1) @ wts
        np.testing.assert_allclose(prof.values, ref, rtol=0.0, atol=1e-13)

    def test_import_pekar_leaves_its_scipy_modules_unloaded(self):
        # Lebedev (scipy.integrate) and the sampler (scipy.ndimage) load when
        # spherical_average first runs, not with the package
        import pekar

        src = str(Path(pekar.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, pekar; print([m for m in ('scipy.integrate', 'scipy.ndimage') if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


def _trilinear_reference(f: Field3D, points: np.ndarray) -> np.ndarray:
    """Periodic trilinear interpolation of f at points (N, 3), corner by corner."""
    g = f.grid
    n, dx, L = g.n, g.dx, g.L
    t = (points + L / 2) / dx - 0.5  # cell centers at (i+1/2)dx - L/2
    i0 = np.floor(t).astype(np.int64)
    frac = t - i0
    vals = np.zeros(len(points))
    for bx in (0, 1):
        wx = frac[:, 0] if bx else 1 - frac[:, 0]
        ix = np.mod(i0[:, 0] + bx, n)
        for by in (0, 1):
            wy = frac[:, 1] if by else 1 - frac[:, 1]
            iy = np.mod(i0[:, 1] + by, n)
            for bz in (0, 1):
                wz = frac[:, 2] if bz else 1 - frac[:, 2]
                iz = np.mod(i0[:, 2] + bz, n)
                vals += wx * wy * wz * f.values[ix, iy, iz]
    return vals


class TestLiftRadial:
    def test_constant_profile_lifts_to_constant(self, grid32):
        rg = RadialGrid(512, np.sqrt(3) / 2 * grid32.L + 0.5)
        u = RadialField(rg, np.ones(rg.m))
        f = lift_radial(u, grid32)
        np.testing.assert_array_equal(f.values, np.ones(grid32.shape))

    def test_gaussian_norm_agreement(self):
        g = Grid3D(64, 16.0)
        rg = RadialGrid(8192, np.sqrt(3) / 2 * g.L + 0.5)
        u = gaussian_radial(rg, 1.0)
        f = lift_radial(u, g)
        assert abs(f.norm() - u.norm()) < 1e-6

    def test_normalized_profile_lifts_near_unit_norm(self):
        g = Grid3D(64, 16.0)
        rg = RadialGrid(8192, np.sqrt(3) / 2 * g.L + 0.5)
        u = normalize(gaussian_radial(rg, 1.2))
        assert abs(lift_radial(u, g).norm() - 1.0) < 1e-4

    def test_zero_extended_beyond_rmax(self, grid32):
        rg = RadialGrid(128, grid32.L / 2)  # covers the ball, not the corners
        u = RadialField(rg, np.ones(rg.m))
        f = lift_radial(u, grid32)
        np.testing.assert_array_equal(f.values, np.where(grid32.radius() <= rg.r_max, 1.0, 0.0))
        assert np.any(f.values == 0.0)


# a grid (even n in [8, 24], any side L) and a seed for random fields on it;
# each new grid also makes a new entry of the per-grid shell-index cache
GRIDS = st.builds(
    Grid3D, st.integers(4, 12).map(lambda k: 2 * k), st.floats(1.0, 60.0, allow_nan=False)
)
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


class TestShellProjection:
    @PROPERTY
    @given(grid=GRIDS, seed=SEEDS)
    def test_idempotent_to_rounding(self, grid, seed):
        f = Field3D(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        p1 = shell_project(f)
        p2 = shell_project(p1)
        np.testing.assert_allclose(p2.values, p1.values, rtol=0, atol=1e-13)

    @PROPERTY
    @given(grid=GRIDS, seed=SEEDS)
    def test_self_adjoint_pairing(self, grid, seed):
        rng = np.random.default_rng(seed)
        f = Field3D(grid, rng.standard_normal(grid.shape))
        h = Field3D(grid, rng.standard_normal(grid.shape))
        lhs, rhs = shell_project(f).inner(h), f.inner(shell_project(h))
        # ‖f‖‖h‖ bounds both pairings (Cauchy–Schwarz, ‖P‖ = 1)
        assert lhs == pytest.approx(rhs, abs=1e-15 * f.norm() * h.norm())

    def test_fixes_lifted_radial_fields(self, grid32):
        rg = RadialGrid(2048, np.sqrt(3) / 2 * grid32.L + 0.5)
        u = gaussian_radial(rg, 1.5)
        f = lift_radial(u, grid32)
        proj = shell_project(f)
        np.testing.assert_allclose(proj.values, f.values, rtol=1e-13, atol=1e-15)

    def test_commutes_with_cube_symmetries(self, grid32):
        rng = np.random.default_rng(4)
        f = Field3D(grid32, rng.standard_normal(grid32.shape))
        p = shell_project(f)
        for tf in [lambda v: v.transpose(2, 0, 1), lambda v: v[::-1, :, ::-1]]:
            lhs = shell_project(Field3D(grid32, np.ascontiguousarray(tf(f.values))))
            rhs = np.ascontiguousarray(tf(p.values))
            np.testing.assert_allclose(lhs.values, rhs, rtol=0, atol=1e-13)

    def test_shell_profile_matches_projection(self, grid32):
        rng = np.random.default_rng(5)
        f = Field3D(grid32, rng.standard_normal(grid32.shape))
        radii, means, counts = shell_profile(f)
        assert counts.sum() == grid32.n**3
        # total integral preserved by the projection
        assert shell_project(f).mass() == pytest.approx(f.mass(), abs=1e-12)

    def test_strided_view_projects_as_its_copy(self, grid32):
        view = np.random.default_rng(6).standard_normal(grid32.shape).transpose(1, 0, 2)[::-1]
        f = Field3D(grid32, view)
        assert not f.values.flags.c_contiguous
        copy = Field3D(grid32, np.ascontiguousarray(view))
        np.testing.assert_array_equal(shell_project(f).values, shell_project(copy).values)
        np.testing.assert_array_equal(shell_profile(f)[1], shell_profile(copy)[1])


def _full_lattice_index(grid: Grid3D) -> tuple:
    """Inverse indices (n³), counts and radii of the shells, by a sort of all n³ labels."""
    c = (2 * np.arange(grid.n) + 1 - grid.n).astype(np.int64)
    s2 = c * c
    lab = s2[:, None, None] + s2[None, :, None] + s2[None, None, :]
    uniq, inverse, counts = np.unique(lab.ravel(), return_inverse=True, return_counts=True)
    return inverse, counts, np.sqrt(uniq.astype(np.float64)) * grid.dx / 2


class TestHalfSlabIndex:
    @PROPERTY
    @given(grid=GRIDS, seed=SEEDS)
    def test_fold_matches_the_full_lattice_index(self, grid, seed):
        inverse, counts, radii = _full_lattice_index(grid)
        slab_inverse, slab_counts, slab_radii = _shell_index(grid)
        assert slab_inverse.shape == (grid.n // 2, grid.n // 2, grid.n)
        np.testing.assert_array_equal(slab_counts, counts)
        np.testing.assert_array_equal(slab_radii, radii)
        f = Field3D(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        means = np.bincount(inverse, weights=f.values.ravel(), minlength=len(counts)) / counts
        atol = 1e-13 * np.max(np.abs(f.values))
        got_radii, got_means, got_counts = shell_profile(f)
        np.testing.assert_array_equal(got_radii, radii)
        np.testing.assert_array_equal(got_counts, counts)
        np.testing.assert_allclose(got_means, means, rtol=0, atol=atol)
        ref = means[inverse].reshape(grid.shape)
        np.testing.assert_allclose(shell_project(f).values, ref, rtol=0, atol=atol)
