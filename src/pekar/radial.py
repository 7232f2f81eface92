"""Radial discretization: kinetic form, Newton's-theorem Coulomb, decay bound.

For radial densities the 6D Coulomb double integral collapses to

    D(ρ,ρ) = (4π)² ∬ ρ(s) ρ(r) min(r⁻¹, s⁻¹) r² s² dr ds,

which the trapezoid product rule evaluates in O(m) with prefix sums; the
min-kernel is evaluated exactly at the nodes (no singularity is present).
"""

from __future__ import annotations

import numpy as np

from .fields import RadialField, RadialGrid


def radial_coulomb_potential(rho: RadialField) -> np.ndarray:
    """Φ(r_j) = 4π Σ_i w_i ρ_i r_i² / max(r_i, r_j) by prefix sums.

    D = Σ K_ij ρ_i ρ_j = Σ_j M_j ρ_j Φ_j with M the volume weights, so
    ∂D/∂ρ_j = 2 M_j Φ_j.
    """
    g = rho.grid
    r = g.nodes()
    a = g.weights() * rho.values * r * r  # a_0 = 0 since r_0 = 0
    inside = np.cumsum(a)  # Σ_{i<=j} a_i
    with np.errstate(divide="ignore"):
        a_over_r = np.where(r > 0, a / np.where(r > 0, r, 1.0), 0.0)
    outside = np.cumsum(a_over_r[::-1])[::-1] - a_over_r  # Σ_{i>j} a_i/r_i
    phi = np.empty(g.m)
    phi[1:] = 4 * np.pi * (inside[1:] / r[1:] + outside[1:])
    phi[0] = 4 * np.pi * outside[0]
    return phi


def radial_coulomb(rho: RadialField) -> float:
    """D = Σ M ρ Φ = (4π)² Σ_ij a_i a_j / max(r_i, r_j), a_i = w_i ρ_i r_i²."""
    if rho.values.min() < -1e-12:
        raise ValueError(f"radial density has negative entries (min {rho.values.min():.3e})")
    return float(np.sum(rho.grid.volume_weights() * rho.values * radial_coulomb_potential(rho)))


def kinetic_form_coefficients(grid: RadialGrid) -> np.ndarray:
    """Segment coefficients c_j = 4π r_{j+1/2}² / dr of the kinetic quadratic form.

    radial_kinetic(u) = Σ_j c_j (u_{j+1} - u_j)²; the form is tridiagonal SPD
    up to the constant null vector.
    """
    r = grid.nodes()
    rm = 0.5 * (r[1:] + r[:-1])
    return 4 * np.pi * rm * rm / grid.dr


def radial_kinetic(u: RadialField) -> float:
    """4π ∫ u'(r)² r² dr with staggered midpoint r² weights, Σ_j c_j (Δu_j)²."""
    return float(np.sum(kinetic_form_coefficients(u.grid) * np.diff(u.values) ** 2))


def apply_kinetic_form(u_values: np.ndarray, c_seg: np.ndarray) -> np.ndarray:
    """(K u)_j for the quadratic form T = uᵀ K u built from c_seg."""
    out = np.zeros_like(u_values)
    diff = np.diff(u_values)
    out[:-1] -= c_seg * diff
    out[1:] += c_seg * diff
    return out


def h1_norm(u: RadialField) -> float:
    """sqrt(‖u‖₂² + ‖∇u‖₂²) in the 3D sense."""
    return float(np.sqrt(u.norm() ** 2 + radial_kinetic(u)))


def strauss_bound_check(u: RadialField, h1: float | None = None) -> float:
    """Worst-case margin of the radial decay bound |u(r)| ≤ √2 |S²|^(-1/2) ‖u‖_H1 / r.

    Returns min over nodes r_j ≥ 2 of (bound - |u_j|); nonnegative for any
    genuine H¹ radial function, negative values flag profiles decaying
    slower than 1/r.
    """
    if h1 is None:
        h1 = h1_norm(u)
    r = u.grid.nodes()
    mask = r >= 2.0
    if not np.any(mask):
        raise ValueError("radial grid has no nodes with r >= 2")
    bound = np.sqrt(2.0) / np.sqrt(4 * np.pi) * h1 / r[mask]
    return float(np.min(bound - np.abs(u.values[mask])))
