import itertools

import numpy as np
import pytest

from pekar import Field3D, Grid3D, RadialField, RadialGrid, normalize


@pytest.fixture(scope="session")
def grid32():
    return Grid3D(32, 16.0)


@pytest.fixture(scope="session")
def grid48():
    return Grid3D(48, 16.0)


@pytest.fixture(scope="session")
def rgrid2048():
    return RadialGrid(2048, 16.0)


def gaussian_psi(grid: Grid3D, sigma: float, center=(0.0, 0.0, 0.0)) -> Field3D:
    """Normalized ψ ∝ exp(-|x-c|²/(4σ²)); its density has per-axis std σ."""
    X, Y, Z = grid.meshgrid()
    rr2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2 + (Z - center[2]) ** 2
    return normalize(Field3D(grid, np.exp(-rr2 / (4 * sigma**2))))


def gaussian_radial(rgrid: RadialGrid, sigma: float) -> RadialField:
    r = rgrid.nodes()
    return normalize(RadialField(rgrid, np.exp(-(r**2) / (4 * sigma**2))))


def ball_density(grid: Grid3D, a: float, sub: int = 4) -> Field3D:
    """Unit-mass uniform ball of radius a, antialiased by sub³ subsampling."""
    n, dx = grid.n, grid.dx
    x1 = grid.axis()
    offs = (np.arange(sub) + 0.5) / sub * dx - dx / 2
    xs = (x1[:, None] + offs[None, :]).ravel()
    XS, YS, ZS = np.meshgrid(xs, xs, xs, indexing="ij", sparse=True)
    inside = (XS**2 + YS**2 + ZS**2 <= a * a).astype(np.float64)
    frac = inside.reshape(n, sub, n, sub, n, sub).mean(axis=(1, 3, 5))
    rho = frac / (np.sum(frac) * grid.cell_volume)
    return Field3D(grid, rho)


def ball_density_radial(rgrid: RadialGrid, a: float) -> RadialField:
    """Unit-mass uniform ball on the radial grid, linear edge antialiasing."""
    r = rgrid.nodes()
    vals = np.clip((a - r) / rgrid.dr + 0.5, 0.0, 1.0)
    f = RadialField(rgrid, vals)
    return RadialField(rgrid, vals / f.integrate())


def smooth_random_psi(
    grid: Grid3D,
    rng: np.random.Generator,
    n_blobs: int = 4,
    width_range: tuple = (0.8, 1.6),
) -> Field3D:
    """Normalized mixture of randomly placed Gaussian bumps (smooth test field)."""
    X, Y, Z = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(n_blobs):
        c = rng.uniform(-0.15 * grid.L, 0.15 * grid.L, size=3)
        s = rng.uniform(*width_range)
        amp = rng.uniform(0.3, 1.0)
        vals += amp * np.exp(-((X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2) / (4 * s**2))
    return normalize(Field3D(grid, vals))


def cube_symmetries():
    """The 48 maps of an (n, n, n) array that permute and reverse its axes;
    each maps the cell-centred lattice, symmetric about the origin, onto itself."""
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product((1, -1), repeat=3):
            index = tuple(slice(None, None, f) for f in flips)
            yield lambda v, perm=perm, index=index: np.ascontiguousarray(v.transpose(perm)[index])
