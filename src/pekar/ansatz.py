"""Coherent-state product machinery on a discrete phonon k-grid.

For a product state ψ ⊗ (coherent state with displacement z), the energy
in reduced units is

    E(ψ, z) = ‖∇ψ‖² - ∫V|ψ|² + ∫|z(k)|² dk - C(α) ∫ [z(k) ρ̂(k)* + c.c.] |k|⁻¹ dk,

quadratic in z; completing the square gives the optimal displacement

    z(k) = C(α) ρ̂(k)/|k| = (1/(π|k|)) √(α/2) ρ̂(k),   ρ̂(k) = ∫ e^{-ik·x} ρ(x) dx,

and collapses the phonon terms to -α·D(ρ,ρ), recovering the variational
functional at α = 1.  The coupling constant C(α) = √(α/2)/π is fixed by
exactly this consistency requirement (the completing-the-square unit
test); a (2π)^(-3/2)√α prefactor instead would miss the Coulomb collapse
by a factor 4π and is rejected by that test.

The k-grid is an independent cell-centered cube (never the FFT dual
grid), so no mode sits at k = 0.  Quadrature weights for the singular
|k|⁻² factor use exact per-cell averages: each cell integral
∫_cell dk/|k|² is evaluated analytically for the eight cells touching the
origin (corner value J = 3∫₀¹∫₀¹ dx dy/(1+x²+y²)) and by Gauss–Legendre
elsewhere; plain midpoint weights leave an O(dk) error floor from the
singular cells that never decays with the cutoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .energy import pekar_energy
from .fields import Field3D, Grid3D, finite_real, integer_index
from .spectral import kinetic_energy

_GL_ORDER = 12


def _corner_cell_value() -> float:
    """J = ∫_{[0,1]³} du/|u|² = 3 ∫₀¹∫₀¹ dx dy / (1 + x² + y²)."""
    xg, wg = leggauss(96)
    x = 0.5 * (xg + 1)
    w = 0.5 * wg
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return float(3.0 * np.sum(W / (1.0 + X * X + Y * Y)))


_J_CORNER = _corner_cell_value()


def _cell_integrals(n_half: int) -> np.ndarray:
    """∫_cell du/|u|² over the unit cells of the positive octant, as an
    (n_half)³ array: entry (a, b, c) is the cell centered at (a, b, c) + 1/2.

    Each cell is integrated with its center components sorted in
    descending order, so mirror cells share one arithmetic and the table
    is exactly invariant under the cube symmetries.
    """
    odds = np.arange(1, 2 * n_half, 2)  # twice the center components
    xg, wg = leggauss(_GL_ORDER)
    trip = np.stack(np.meshgrid(odds, odds, odds, indexing="ij"), axis=-1)
    trip.sort(axis=-1)
    cx, cy, cz = np.moveaxis(trip[..., ::-1] / 2.0, -1, 0)
    offs = 0.5 * xg  # cell is center + [-1/2, 1/2]
    W3 = 0.125 * np.einsum("i,j,k->ijk", wg, wg, wg).ravel()
    OX, OY, OZ = np.meshgrid(offs, offs, offs, indexing="ij")
    table = np.zeros((n_half,) * 3)
    for w, ox, oy, oz in zip(W3, OX.ravel(), OY.ravel(), OZ.ravel()):
        px, py, pz = cx + ox, cy + oy, cz + oz
        table += w / (px * px + py * py + pz * pz)
    table[0, 0, 0] = _J_CORNER  # singular corner cell, closed form
    return table


@functools.cache
def _unit_cell_inv_k2(n_k: int) -> np.ndarray:
    """The cell integrals on the n_k³ mode grid in dk = 1 units, read-only:
    they depend on n_k alone, so every KGrid of that size shares them."""
    o = np.abs(2 * np.arange(n_k) + 1 - n_k) // 2  # octant index of each axis cell
    out = _cell_integrals(n_k // 2)[np.ix_(o, o, o)]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class KGrid:
    """Cell-centered cubic mode grid: k_i = (i + 1/2)·dk - k_max per axis."""

    n_k: int
    k_max: float

    def __post_init__(self):
        integer_index("n_k", self.n_k)
        finite_real("k_max", self.k_max)
        if self.n_k < 2 or self.n_k % 2 != 0:
            raise ValueError(f"n_k must be even and >= 2, got {self.n_k}")
        if not (self.k_max > 0):
            raise ValueError(f"k_max must be positive, got {self.k_max}")

    @property
    def dk(self) -> float:
        return 2 * self.k_max / self.n_k

    @property
    def shape(self) -> tuple:
        return (self.n_k, self.n_k, self.n_k)

    def axis(self) -> np.ndarray:
        half = np.arange(1, self.n_k, 2)  # odd integers = 2·half-integer centers
        return np.concatenate([-half[::-1], half]) / 2.0 * self.dk

    def kmag(self) -> np.ndarray:
        ax = self.axis()
        KX, KY, KZ = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
        return np.sqrt(KX**2 + KY**2 + KZ**2)

    def cell_inv_k2(self) -> np.ndarray:
        """Exact ∫_cell dk/|k|² per mode (absorbs the dk scaling)."""
        return _unit_cell_inv_k2(self.n_k) * self.dk

    def weights(self) -> np.ndarray:
        """Mode weights β·dk³ for ∫|z|² dk such that the quadratic collapse
        integrates the exact cell-averaged |k|⁻² kernel."""
        return self.cell_inv_k2() * self.kmag() ** 2


@dataclass
class PhononDisplacement:
    """Complex mode amplitudes z(k) at coupling α; z(-k) = z(k)* for real ρ."""

    kgrid: KGrid
    z: np.ndarray
    alpha: float

    def __post_init__(self):
        coupling_constant(self.alpha)  # raises unless α is finite and positive
        self.z = np.asarray(self.z, dtype=np.complex128)
        if self.z.shape != self.kgrid.shape:
            raise ValueError(f"z shape {self.z.shape} does not match kgrid {self.kgrid.shape}")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("displacement contains non-finite values")


def coupling_constant(alpha: float) -> float:
    """C(α) = √(α/2)/π for finite α > 0; the completing-the-square test pins this value."""
    if not finite_real("alpha", alpha) > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return np.sqrt(alpha / 2.0) / np.pi


def density_fourier(rho: Field3D, kgrid: KGrid) -> np.ndarray:
    """ρ̂(k) = dx³ Σ ρ e^{-ik·x} on the mode grid (separable contraction).

    The first axis is contracted by two real GEMMs against the real density,
    the other two by complex matmuls along y, then z.
    """
    n, n_k = rho.grid.n, kgrid.n_k
    E = np.exp(-1j * np.outer(kgrid.axis(), rho.grid.axis()))
    v = rho.values.reshape(n, n * n)
    t = np.empty((n_k, n * n), dtype=np.complex128)
    t.real = E.real @ v
    t.imag = E.imag @ v
    return E @ t.reshape(n_k, n, n) @ E.T * rho.grid.cell_volume


def optimal_displacement(rho_hat: np.ndarray, kgrid: KGrid, alpha: float) -> PhononDisplacement:
    """z(k) = (1/(π|k|)) √(α/2) ρ̂(k), applied modewise (k=0 never on the grid)."""
    C = coupling_constant(alpha)
    z = C * np.asarray(rho_hat, dtype=np.complex128) / kgrid.kmag()
    return PhononDisplacement(kgrid, z, alpha)


def _product_energy(psi: Field3D, rho_hat: np.ndarray, disp: PhononDisplacement,
                    V: Field3D | None) -> float:
    """E(ψ, z) at disp.alpha, given ρ̂ of ψ² on disp's k-grid."""
    kg = disp.kgrid
    T = kinetic_energy(psi)
    if V is not None and V.grid != psi.grid:
        raise ValueError("incompatible grids: potential vs wave function")
    P = 0.0 if V is None else V.inner(psi.density())
    w = kg.weights()
    g = coupling_constant(disp.alpha) / kg.kmag()
    phonon = float(np.sum(w * np.abs(disp.z) ** 2))
    inter = float(np.sum(w * g * 2.0 * np.real(disp.z * np.conj(rho_hat))))
    return T - P + phonon - inter


def product_energy(psi: Field3D, disp: PhononDisplacement, V: Field3D | None = None) -> float:
    """⟨H⟩ in the product state at disp.alpha: kinetic - potential + phonon + interaction.

    Pass the potential already in its α-scaled form (α²V(αx) sampled on
    ψ's grid); see alpha_scaling_check for the bookkeeping.
    """
    return _product_energy(psi, density_fourier(psi.density(), disp.kgrid), disp, V)


def min_product_energy(
    psi: Field3D, kgrid: KGrid, V: Field3D | None = None, alpha: float = 1.0
) -> tuple:
    """(min over z of E(ψ,z), the optimal displacement)."""
    rho_hat = density_fourier(psi.density(), kgrid)
    disp = optimal_displacement(rho_hat, kgrid, alpha)
    return _product_energy(psi, rho_hat, disp, V), disp


def alpha_scaling_check(
    phi: Field3D,
    alpha: float,
    kgrid: KGrid,
    V: Field3D | None = None,
) -> float:
    """Relative defect |E_product(α) - α² E(φ,V)| / |α² E(φ,V)|.

    The α-wave function α^{3/2} φ(αx) lives on the shrunk box (same n,
    side L/α, so the scaled samples reuse φ's values exactly), the
    potential scales as α² V(αx), and the mode grid dilates to α·k_max.
    """
    coupling_constant(alpha)  # raises unless α is finite and positive
    g = phi.grid
    base = pekar_energy(phi, V).total
    target = alpha**2 * base
    grid_a = Grid3D(g.n, g.L / alpha)
    psi_a = Field3D(grid_a, alpha**1.5 * phi.values)
    V_a = Field3D(grid_a, alpha**2 * V.values) if V is not None else None
    kg_a = KGrid(kgrid.n_k, alpha * kgrid.k_max)
    e_prod, _ = min_product_energy(psi_a, kg_a, V_a, alpha)
    return float(abs(e_prod - target) / abs(target))
