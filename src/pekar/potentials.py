"""External potentials: the annular well, radial test bumps, rotational average.

The annular well of strength λ ∈ [1, ∞) and outer plateau radius R > 2:

    V(x) = 0 for |x| ≤ 1,   λ for 2 ≤ |x| ≤ R,   0 for |x| ≥ R+1,

with C^∞ transitions on [1,2] and [R, R+1] built from the standard bump
ramp h(t) = g(t)/(g(t)+g(1-t)), g(t) = exp(-1/t) for t > 0 else 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import radial_field, shell_project
from .fields import Field3D, Grid3D, RadialField, RadialGrid, finite_real


def smooth_ramp(t: np.ndarray) -> np.ndarray:
    """C^∞ monotone ramp: 0 for t ≤ 0, 1 for t ≥ 1."""
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        g0 = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        g1 = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return g0 / (g0 + g1)


def smooth_bump(t: np.ndarray) -> np.ndarray:
    """C^∞ bump supported on |t| < 1 with peak value 1 at t = 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    m = np.abs(t) < 1
    out[m] = np.exp(1.0 - 1.0 / (1.0 - t[m] ** 2))
    return out


def check_in_box(R: float, grid: Grid3D) -> None:
    """The annular well's outer edge R+1 must lie inside the inscribed ball."""
    if R + 1.0 >= grid.L / 2:
        raise ValueError(f"potential exits box: R+1 = {R + 1} >= L/2 = {grid.L / 2}")


def annular_profile(r: np.ndarray, R: float, lam: float = 1.0) -> np.ndarray:
    if R <= 2:
        raise ValueError(f"R must exceed 2, got {R}")
    r = np.asarray(r, dtype=np.float64)
    v = np.where(
        r <= 1.0,
        0.0,
        np.where(
            r < 2.0,
            smooth_ramp(r - 1.0),
            np.where(r <= R, 1.0, np.where(r < R + 1.0, smooth_ramp(R + 1.0 - r), 0.0)),
        ),
    )
    return lam * v


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative potential used by configs and experiment drivers.

    kinds (``KINDS`` maps each to the fields it reads):
      annular          — the well above (parameters R, lam)
      constant         — V ≡ value
      radial_bump      — amplitude · bump((r - center)/width), compact support
      radial_gaussian  — amplitude · exp(-(r - center)²/(2 width²))
      x1_squared       — W(x) = x₁² (nonradial test perturbation)
    """

    kind: str = "constant"
    R: float = 8.0
    lam: float = 1.0
    value: float = 0.0
    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    KINDS = {
        "annular": ("R", "lam"),
        "constant": ("value",),
        "radial_bump": ("amplitude", "center", "width"),
        "radial_gaussian": ("amplitude", "center", "width"),
        "x1_squared": (),
    }

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in ("R", "lam", "value", "center", "width", "amplitude"):
            finite_real(name, getattr(self, name))
        if self.kind == "annular":
            if self.R <= 2:
                raise ValueError(f"R must exceed 2, got {self.R}")
            if self.lam < 1.0:
                raise ValueError(f"lam must be >= 1, got {self.lam}")
        if self.kind in ("radial_bump", "radial_gaussian") and self.width <= 0:
            raise ValueError(f"width must be positive, got {self.width}")

    @property
    def is_radial(self) -> bool:
        return self.kind != "x1_squared"

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Radial profile V(r); only for radial kinds."""
        r = np.asarray(r, dtype=np.float64)
        if self.kind == "annular":
            return annular_profile(r, self.R, self.lam)
        if self.kind == "constant":
            return np.full_like(r, self.value)
        if self.kind == "radial_bump":
            return self.amplitude * smooth_bump((r - self.center) / self.width)
        if self.kind == "radial_gaussian":
            return self.amplitude * np.exp(-((r - self.center) ** 2) / (2 * self.width**2))
        raise ValueError(f"potential kind {self.kind!r} has no radial profile")

    def build(self, grid: Grid3D) -> Field3D:
        if self.kind == "annular":
            check_in_box(self.R, grid)
        if self.kind == "x1_squared":
            X, _, _ = grid.meshgrid()
            return Field3D(grid, np.broadcast_to(X * X, grid.shape).copy())
        return radial_field(grid, self.profile)

    def build_radial(self, rgrid: RadialGrid) -> RadialField:
        return RadialField(rgrid, self.profile(rgrid.nodes()))


def rotational_average(W: Field3D) -> Field3D:
    """Haar average over rotations, ⟨W⟩(x) = ∫ W(ℛx) dγ(ℛ).

    For scalar functions of position this is the spherical average at each
    radius; on the lattice it is realized as the exact shell projection,
    so it is idempotent and self-adjoint to rounding.
    """
    return shell_project(W)


def potential_energy(V: Field3D, rho: Field3D) -> float:
    """∫ V ρ dx."""
    if V.grid != rho.grid:
        raise ValueError("potential and density live on different grids")
    return V.inner(rho)


def mass_in_well(rho: Field3D, R: float) -> float:
    """∫_{2 ≤ |x| ≤ R} ρ dx, the fraction bound in the plateau region."""
    rr = rho.grid.radius()
    mask = (rr >= 2.0) & (rr <= R)
    return float(np.sum(rho.values[mask]) * rho.grid.cell_volume)
