"""Grids and scalar fields.

Two discretizations live side by side:

* a periodic cubic box with cell-centered samples, used by the spectral
  (FFT) machinery, and
* a uniform radial grid on [0, r_max] with trapezoid weights for
  integrals of the form ∫ f(r) r² dr, used by the radially constrained
  problem.

All wave functions are real; ground states of the functional can be
chosen nonnegative, and every energy term only sees |ψ|².
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np


class DegenerateFieldError(ValueError):
    """Raised when an operation needs a nonzero field (e.g. normalization)."""


class BoundarySupportWarning(UserWarning):
    """A density carries non-negligible mass near the box boundary."""


def finite_real(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def integer_index(name: str, value) -> int:
    """``value`` as an int; TypeError unless it is an integer (numpy's too), not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Grid3D:
    """Uniform periodic box [-L/2, L/2)³ with n cells per axis.

    Cell centers sit at (i + 1/2)·dx - L/2, so the origin is the center
    of the box (and a cell corner, never a cell center).
    """

    n: int
    L: float

    def __post_init__(self):
        integer_index("n", self.n)
        finite_real("L", self.L)
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not (self.L > 0):
            raise ValueError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n, self.n, self.n)

    @property
    def cell_volume(self) -> float:
        return self.dx**3

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis, exactly antisymmetric:
        axis[i] == -axis[n-1-i] on every grid, so a field built from x² or
        |x| is exactly even about the centre."""
        return (np.arange(self.n) + 0.5 - self.n / 2) * self.dx

    def meshgrid(self) -> tuple:
        x = self.axis()
        return np.meshgrid(x, x, x, indexing="ij", sparse=True)

    def radius(self) -> np.ndarray:
        """|x| at every cell center, shape (n, n, n)."""
        X, Y, Z = self.meshgrid()
        return np.sqrt(X * X + Y * Y + Z * Z)


@dataclass
class Field3D:
    """Real scalar samples on a Grid3D (ψ, ρ = ψ², V, W, ...)."""

    grid: Grid3D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def norm(self) -> float:
        """Discrete L² norm, sqrt(Σ v² dx³)."""
        return float(np.sqrt(np.vdot(self.values, self.values) * self.grid.cell_volume))

    def inner(self, other: "Field3D") -> float:
        return float(np.vdot(self.values, other.values) * self.grid.cell_volume)

    def mass(self) -> float:
        """Σ v dx³ (total integral; unit mass for normalized densities)."""
        return float(np.sum(self.values) * self.grid.cell_volume)

    def density(self) -> "Field3D":
        return Field3D(self.grid, self.values**2)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_j = j·dr on [0, r_max] with trapezoid weights.

    integrate(f) = Σ w_j f_j r_j² approximates ∫ f(r) r² dr and is exact
    whenever f(r)·r² is piecewise linear between nodes.
    """

    m: int
    r_max: float

    def __post_init__(self):
        integer_index("m", self.m)
        finite_real("r_max", self.r_max)
        if self.m < 4:
            raise ValueError(f"m must be >= 4, got {self.m}")
        if not (self.r_max > 0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")

    @property
    def dr(self) -> float:
        return self.r_max / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.m)

    def weights(self) -> np.ndarray:
        w = np.full(self.m, self.dr)
        w[0] = w[-1] = self.dr / 2
        return w

    def volume_weights(self) -> np.ndarray:
        """4π w_j r_j², the measure for 3D integrals of radial functions."""
        r = self.nodes()
        return 4 * np.pi * self.weights() * r * r


@dataclass
class RadialField:
    """Real samples u_j = u(r_j) on a RadialGrid.

    ``extrapolated`` optionally marks nodes whose values were obtained
    outside the trusted region (e.g. beyond the inscribed ball of the
    source box when reducing a 3D field).
    """

    grid: RadialGrid
    values: np.ndarray
    extrapolated: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.m,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid ({self.grid.m},)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("radial field contains non-finite values")

    def norm(self) -> float:
        """sqrt(4π Σ w_j u_j² r_j²)."""
        return float(np.sqrt(np.sum(self.grid.volume_weights() * self.values**2)))

    def integrate(self) -> float:
        """4π Σ w_j u_j r_j² (3D integral of the radial profile)."""
        return float(np.sum(self.grid.volume_weights() * self.values))

    def density(self) -> "RadialField":
        return RadialField(self.grid, self.values**2)


def normalize(psi: Field3D | RadialField) -> Field3D | RadialField:
    """Rescale a Field3D or a RadialField onto the L² unit sphere. Direction is unchanged."""
    nrm = psi.norm()
    if nrm <= 0.0 or not np.isfinite(nrm):
        raise DegenerateFieldError("degenerate normalization: field has zero L2 norm")
    return type(psi)(psi.grid, psi.values / nrm)


# --------------------------------------------------------------------------
# snapshot I/O
#
# 3D fields: one ASCII header line "pekar-field n=<n> L=<L>" followed by the
# raw little-endian float64 values in row-major (C) order.  Radial fields:
# two-column CSV (r, value).
# --------------------------------------------------------------------------

_MAGIC = "pekar-field"


def save_field(path, f: Field3D) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} n={f.grid.n} L={f.grid.L!r}\n".encode())
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> Field3D:
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip()
        parts = header.split()
        if not header.startswith(_MAGIC) or len(parts) != 3:
            raise ValueError(f"not a field snapshot: {header!r}")
        n = int(parts[1].split("=")[1])
        L = float(parts[2].split("=")[1])
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(n, n, n)
    return Field3D(Grid3D(n, L), values.copy())


def save_radial(path, u: RadialField) -> None:
    r = u.grid.nodes()
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for rj, vj in zip(r, u.values):
            fh.write(f"{float(rj)!r},{float(vj)!r}\n")


def load_radial(path) -> RadialField:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"not a radial snapshot: rows r,value expected, got shape {data.shape}")
    r, v = data[:, 0], data[:, 1]
    grid = RadialGrid(len(r), float(r[-1]))
    if not np.allclose(grid.nodes(), r, atol=1e-12):
        raise ValueError("radial snapshot nodes are not a uniform grid from 0")
    return RadialField(grid, v)
