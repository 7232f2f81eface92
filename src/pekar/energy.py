"""The variational functional, its breakdown, and the Euler–Lagrange residual.

    E_V(ψ) = ∫|∇ψ|² - ∬ |ψ(x)|²|ψ(y)|²/|x-y| - ∫ V|ψ|²,   ‖ψ‖₂ = 1.

Stationary points solve the Choquard (Schrödinger–Newton) equation with
the self-generated attractive potential,

    (-Δ - 2Φ_ρ - V) ψ = μ ψ,   Φ_ρ = ρ * 1/|x|,   ρ = ψ²,

with μ the Rayleigh quotient ⟨ψ, H_ψ ψ⟩.

The descent loop reads both discrete functionals, ``BoxFunctional`` and
``RadialFunctional``, through one contract on each one's coordinates x,
the spectral coefficients ψ̂ of the solve's mirror class in the box (the rfft
half-spectrum of the whole box when no axis is even; see ``pekar.spectral``
for each class's transform lengths) and the nodal values on the radial grid:

- ``to_coords(values)``, ``to_values(x)``: the maps between ψ and x;
- ``inner(a, b)``: the L² inner product, of coordinates (``SpectralOps.inner`` in the box);
- ``pairing(g, d)``: the energy's derivative along d, for the gradient g
  that ``residual`` returns;
- ``evaluate(x) → (breakdown, (ψ, Φ_ρ))``: ψ the values of x and Φ_ρ the
  Coulomb potential, with D = ⟨ρ, Φ_ρ⟩, so the energy–gradient pair is
  exactly consistent;
- ``residual(bd, fields) → (ELResidual, gradient)``: reads the fields of
  the same evaluation, so it computes no Coulomb potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field3D, Grid3D, RadialField, RadialGrid
from .radial import apply_kinetic_form, kinetic_form_coefficients, radial_coulomb_potential
from .spectral import mirror_axes, ops_for


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic, Coulomb and potential components; total = kin - cou - pot."""

    kinetic: float
    coulomb: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic - self.coulomb - self.potential

    def as_dict(self) -> dict:
        return {
            "kinetic": self.kinetic,
            "coulomb": self.coulomb,
            "potential": self.potential,
            "total": self.total,
        }


@dataclass(frozen=True)
class ELResidual:
    """‖(H_ψ - μ)ψ‖₂ and the Rayleigh multiplier μ."""

    residual_norm: float
    mu: float


# --------------------------------------------------------------------------
# the discrete functionals, shared by the descent loop and the diagnostics
# --------------------------------------------------------------------------


class BoxFunctional:
    """E_V on the periodic box: spectral kinetic term, padded free-space Coulomb,
    in the mirror class ``even``: the coordinates are the ``SpectralOps``
    coefficients of ψ on the class's part of the box, the half x > 0 of each
    even axis, whose cells weigh 2 per even axis.

    ``evaluate`` makes one n³ inverse for ψ, reads T from ψ̂, and computes Φ_ρ in
    the padded scratch, allocated once; ``residual`` makes two n³ forwards, ĥ =
    |k|²·FFT(ψ) - FFT((2Φ_ρ + V)ψ).  Transforms and ``inner`` are ``SpectralOps``'.
    With no even axis the n³ transforms are rfftn of length n and the padded ones
    of length 2n; an even axis has a DCT-II of length n/2 and n instead.
    """

    def __init__(self, grid: Grid3D, V: Field3D | None = None, even: tuple = ()):
        if V is not None and V.grid != grid:
            raise ValueError("potential and wave function live on different grids")
        self.grid = grid
        self.ops = ops = ops_for(grid, even)
        self.dv = grid.cell_volume * 2 ** len(even)
        self.V = None if V is None else ops.fold(V.values)
        self._pad = None  # the padded spectrum, scratch of evaluate
        # the gradient of residual is the L² one, so it pairs with a direction by inner
        self.inner = self.pairing = ops.inner

    def to_coords(self, values: np.ndarray) -> np.ndarray:
        return self.ops.fft(self.ops.fold(values))

    def to_values(self, x: np.ndarray) -> np.ndarray:
        """ψ on the whole box."""
        return self.ops.unfold(self.ops.ifft(x))

    def evaluate(self, x: np.ndarray | None, values: np.ndarray | None = None) -> tuple:
        """``values``, when given, is ψ on the whole box, and x may then be None;
        the fields returned are the class's part."""
        ops = self.ops
        psi = ops.ifft(x) if values is None else ops.fold(values)
        T = ops.kinetic(ops.fft(psi) if x is None else x)
        rho = psi**2
        self._pad = ops.fft_padded(rho, out=self._pad)
        phi = ops.coulomb_potential(self._pad)
        P = 0.0 if self.V is None else float(np.vdot(self.V, rho) * self.dv)
        return EnergyBreakdown(T, float(np.vdot(rho, phi) * self.dv), P), (psi, phi)

    def residual(self, bd: EnergyBreakdown, fields: tuple) -> tuple:
        """μ = ⟨ψ, H_ψ ψ⟩, so bd is not read; the gradient is the L² one,
        2(H_ψ - μ)ψ, in the coordinates."""
        psi, phi = fields
        w = 2 * phi if self.V is None else 2 * phi + self.V
        w *= psi
        spec = self.ops.fft(psi)
        h = self.ops.k2 * spec
        h -= self.ops.fft(w)
        mu = self.inner(spec, h)
        h -= mu * spec
        return ELResidual(float(np.sqrt(self.inner(h, h))), mu), 2 * h


def box_functional(psi: Field3D, V: Field3D | None = None) -> BoxFunctional:
    """The functional in the mirror class of ψ and V, as ``minimize`` picks it."""
    fields = (psi.values,) if V is None else (psi.values, V.values)
    return BoxFunctional(psi.grid, V, mirror_axes(*fields))


class RadialFunctional:
    """E_V on the radial grid: kinetic quadratic form, Newton-theorem Coulomb;
    ``evaluate`` hands out (u, Φ), Φ from one prefix-sum pass, with D = ⟨ρ, Φ⟩_M."""

    def __init__(self, rgrid: RadialGrid, Vr: RadialField | None = None):
        if Vr is not None and Vr.grid != rgrid:
            raise ValueError("potential and wave function live on different radial grids")
        self.grid = rgrid
        self.M = rgrid.volume_weights()
        self.c_seg = kinetic_form_coefficients(rgrid)
        self.V = np.zeros(rgrid.m) if Vr is None else Vr.values

    # the nodal values are the coordinates
    to_coords = to_values = staticmethod(np.asarray)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(self.M * a * b))

    def pairing(self, g: np.ndarray, d: np.ndarray) -> float:
        """Directional derivative of the energy along d, for the nodal gradient g."""
        return float(np.sum(g * d))

    def evaluate(self, values: np.ndarray) -> tuple:
        # T = Σ c_j (Δu)²; c_seg already carries the dr weight
        T = float(np.sum(self.c_seg * np.diff(values) ** 2))
        rho = values**2
        phi = radial_coulomb_potential(RadialField(self.grid, rho))
        return EnergyBreakdown(T, self.inner(rho, phi), self.inner(self.V, rho)), (values, phi)

    def residual(self, bd: EnergyBreakdown, fields: tuple) -> tuple:
        """(H u)_j in the weighted metric, with the origin node (zero measure)
        set to 0; the gradient is the nodal one, M·2(H - μ)u, whose origin row
        couples through the kinetic form only."""
        values, phi = fields
        M = self.M
        Ku = apply_kinetic_form(values, self.c_seg)
        h = np.zeros(self.grid.m)
        h[1:] = Ku[1:] / M[1:] - 2 * phi[1:] * values[1:] - self.V[1:] * values[1:]
        # μ by the energy pairing: the origin node carries kinetic coupling but no
        # metric weight, so Σ M u (Hu) alone would drop its contribution
        mu = bd.kinetic - 2 * bd.coulomb - bd.potential
        res = h - mu * values
        res[0] = 0.0
        g = M * 2 * res
        g[0] = 2 * Ku[0]
        return ELResidual(float(np.sqrt(self.inner(res, res))), mu), g


# --------------------------------------------------------------------------
# public diagnostics
# --------------------------------------------------------------------------


def pekar_energy(psi: Field3D, V: Field3D | None = None) -> EnergyBreakdown:
    """Energy breakdown of a normalized ψ in external potential V; D is the
    padded reduction, so no Φ_ρ is computed."""
    F = BoxFunctional(psi.grid, V)
    ops, rho = F.ops, psi.values**2
    P = 0.0 if F.V is None else float(np.vdot(F.V, rho) * F.dv)
    T = ops.kinetic(ops.fft(psi.values))
    return EnergyBreakdown(T, ops.coulomb_energy(ops.fft_padded(rho)), P)


def free_energy(psi: Field3D) -> float:
    """kinetic - coulomb, the translation-invariant part."""
    b = pekar_energy(psi, None)
    return b.kinetic - b.coulomb


def energy_gradient(psi: Field3D, V: Field3D | None = None) -> tuple:
    """(breakdown, L² gradient 2·H_ψψ of the unconstrained functional)."""
    F = box_functional(psi, V)
    b, fields = F.evaluate(None, psi.values)
    el, g = F.residual(b, fields)
    return b, Field3D(psi.grid, F.to_values(g) + 2 * el.mu * psi.values)


def el_residual(psi: Field3D, V: Field3D | None = None) -> ELResidual:
    """Residual of the mean-field eigenvalue equation at ψ, with Rayleigh μ."""
    F = box_functional(psi, V)
    return F.residual(*F.evaluate(None, psi.values))[0]


def radial_pekar_energy(u: RadialField, Vr: RadialField | None = None) -> EnergyBreakdown:
    return RadialFunctional(u.grid, Vr).evaluate(u.values)[0]


def radial_el_residual(u: RadialField, Vr: RadialField | None = None) -> ELResidual:
    F = RadialFunctional(u.grid, Vr)
    return F.residual(*F.evaluate(u.values))[0]


# --------------------------------------------------------------------------
# safety rail used by the solvers
# --------------------------------------------------------------------------


class CoercivityError(RuntimeError):
    """Iterate fell below the coercivity floor total >= 0.25·kinetic - 10."""


def check_coercivity(b: EnergyBreakdown, context: str = "") -> None:
    floor = 0.25 * b.kinetic - 10.0
    if b.total < floor:
        raise CoercivityError(
            f"energy {b.total:.6g} below coercivity floor {floor:.6g} "
            f"(kinetic {b.kinetic:.6g}, coulomb {b.coulomb:.6g}, "
            f"potential {b.potential:.6g}){': ' + context if context else ''}"
        )
