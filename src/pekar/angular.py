"""Angular reductions: spherical averages, radial lifts, shell projection.

Two distinct reductions are provided.

``spherical_average`` extracts a smooth radial profile g(r) by Lebedev
quadrature over directions with periodic trilinear sampling of the box
field; it is the right tool for comparing minimizer profiles across runs.

``shell_project`` averages a field over the exact orbits of |x| on the
cell-center lattice (every cell with identical |x| is one shell).  The
resulting map P is a genuine orthogonal projection — idempotent,
self-adjoint under the counting inner product, commuting with all 48
cube symmetries — which makes pairing identities like ∫⟨W⟩ρ = ∫W⟨ρ⟩
hold to rounding rather than to interpolation accuracy.  Its shell index
lives on the half-slab x > 0, y > 0, since mirroring x or y keeps every
shell: n³/4 entries (4.2 MB at 128³), built once per grid from a
label-count table without a sort.  ``shell_project`` and ``shell_profile``
share one reduction that adds the four mirror images onto the slab before
a single ``np.bincount``.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import Field3D, Grid3D, RadialField, RadialGrid

_LEBEDEV_ORDER = 35


def _lebedev() -> tuple:
    from scipy.integrate import lebedev_rule  # lazy, as in spherical_average

    pts, wts = lebedev_rule(_LEBEDEV_ORDER)
    return pts.T.copy(), wts / np.sum(wts)  # directions (N,3), weights summing to 1


def default_reduction_grid(grid: Grid3D) -> RadialGrid:
    """Radial grid out to the box corner with roughly two nodes per cell."""
    r_max = np.sqrt(3.0) / 2 * grid.L
    m = int(np.ceil(2 * r_max / grid.dx)) + 1
    return RadialGrid(m, r_max)


def spherical_average(f: Field3D) -> RadialField:
    """Mean of f over each sphere |x| = r_j of default_reduction_grid, by Lebedev.

    Radii beyond the inscribed ball (r > L/2) are flagged extrapolated:
    the directional samples then wrap through the periodic images.
    """
    # imported here, as scipy.integrate is in _lebedev: only this diagnostic
    # needs them, and at module level the two would add about 250 modules and
    # 20 MB of RSS to every process that imports pekar (scipy.ndimage 1 MB)
    from scipy import ndimage

    g = f.grid
    rgrid = default_reduction_grid(g)
    dirs, wts = _lebedev()
    r = rgrid.nodes()
    pts = r[:, None, None] * dirs[None, :, :]  # (m, N, 3)
    # fractional cell index of each coordinate (cell centers at (i+1/2)dx - L/2);
    # order 1 with grid-wrap is periodic trilinear interpolation
    t = (pts.reshape(-1, 3) + g.L / 2) / g.dx - 0.5
    samples = ndimage.map_coordinates(f.values, t.T, order=1, mode="grid-wrap")
    avg = samples.reshape(len(r), -1) @ wts
    extrapolated = r > g.L / 2
    return RadialField(rgrid, avg, extrapolated=extrapolated)


def lift_radial(u: RadialField, grid: Grid3D) -> Field3D:
    """Field with values u(|x|) by linear interpolation of the radial
    profile, zero beyond the radial grid's r_max."""
    rr = grid.radius()
    vals = np.interp(rr.ravel(), u.grid.nodes(), u.values, right=0.0).reshape(grid.shape)
    return Field3D(grid, vals)


# --------------------------------------------------------------------------
# exact lattice-shell projection
# --------------------------------------------------------------------------


@functools.cache
def _shell_index(grid: Grid3D) -> tuple:
    """Slab indices, counts and radii of the exact |x|-orbits of the cell
    lattice, computed once per grid and read-only.

    With centers at ((2i+1-n)/2)·dx per axis, |x|² is (dx²/4)·(odd²+odd²+odd²),
    an integer label that groups cells into exact shells.  Cells i and
    n-1-i of an axis share a label, so the index lives on the half-slab
    x > 0, y > 0 (rows i >= n/2 of the first two axes, the whole third):
    ``inverse`` has shape (n/2, n/2, n), n³/4 int64 entries (4.2 MB at 128³),
    and ``counts`` are whole-lattice counts, 4× the slab counts.  Compact
    shell ids come from a label-count table (``np.bincount`` of the labels
    and a lookup of its nonzero entries), not from a sort.
    """
    n, h = grid.n, grid.n // 2
    s2 = (2 * np.arange(n) + 1 - n) ** 2  # squared odd integers, (2x/dx)²
    lab = s2[h:, None, None] + s2[None, h:, None] + s2[None, None, :]
    table = np.bincount(lab.ravel())
    labels = np.flatnonzero(table)
    lookup = np.zeros(len(table), dtype=np.intp)
    lookup[labels] = np.arange(len(labels))
    inverse = lookup[lab]
    counts = 4 * table[labels]
    radii = np.sqrt(labels.astype(np.float64)) * grid.dx / 2
    for a in (inverse, counts, radii):
        a.flags.writeable = False
    return inverse, counts, radii


def _shell_means(f: Field3D) -> np.ndarray:
    """Mean of f over each exact shell: the four mirror images in x and y
    are added onto the half-slab, then one bincount by shell id."""
    inverse, counts, _ = _shell_index(f.grid)
    h = f.grid.n // 2
    v = f.values
    fold = v[h:, h:] + v[h - 1 :: -1, h:]
    fold += v[h:, h - 1 :: -1]
    fold += v[h - 1 :: -1, h - 1 :: -1]
    return np.bincount(inverse.ravel(), weights=fold.ravel(), minlength=len(counts)) / counts


def shell_project(f: Field3D) -> Field3D:
    """Replace every value by the mean over its exact |x|-shell (projection P)."""
    inverse, _, _ = _shell_index(f.grid)
    h = f.grid.n // 2
    slab = _shell_means(f)[inverse]
    out = np.empty(f.grid.shape)
    out[h:, h:] = slab
    out[h:, h - 1 :: -1] = slab
    out[h - 1 :: -1] = out[h:]
    return Field3D(f.grid, out)


def shell_profile(f: Field3D) -> tuple:
    """(radii, shell means, counts) of the exact-shell reduction."""
    _, counts, radii = _shell_index(f.grid)
    return radii, _shell_means(f), counts
