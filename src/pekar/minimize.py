"""Constrained minimization on the L² unit sphere, full 3D and radial.

One preconditioned nonlinear conjugate-gradient loop serves both discrete
functionals of ``pekar.energy``, in each one's coordinates.  The gradient
is smoothed by the Sobolev preconditioner (c - 2Δ)⁻¹ (a division by
c + 2|k|² on the box's half-spectra, a banded solve on the radial grid) and
projected to the sphere tangent; Polak–Ribière+ adds the previous
direction, moved to the new tangent space by projection, and the loop
restarts from the preconditioned gradient whenever that sum would descend
less than ``RESTART_C`` times as steeply (Antoine, Levitt & Tang, J. Comput.
Phys. 343, 2017).  A step is taken only on Armijo sufficient decrease, each
rejected trial backtracking to the safeguarded minimizer of the parabola
through E(0), E'(0) and the trial (Nocedal & Wright §3.5), so the energy
history is non-increasing by construction.  Plain L² descent needs step
sizes ~1/k_max² and ~1e4-1e5 iterations at working resolutions; the
preconditioner removes that stiffness, and the CG directions take about
2.5x fewer steps than preconditioned steepest descent.

The box loop holds ψ̂.  A trial costs one n³ inverse (ψ, for ρ = ψ²) and
a padded forward and inverse (Φ_ρ); a step's residual reads that Φ_ρ and
costs two n³ forwards; a solve adds one forward and one inverse.  A solve
reports why it stopped: ``converged``, ``max_iters`` or ``no_descent``
(every one of ``MAX_BACKTRACKS`` trials rejected).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional, Union

import numpy as np
from scipy.linalg import solveh_banded

from .angular import radial_field
from .energy import (
    BoxFunctional,
    ELResidual,
    EnergyBreakdown,
    RadialFunctional,
    check_coercivity,
)
from .fields import (
    BoundarySupportWarning,
    Field3D,
    Grid3D,
    RadialField,
    RadialGrid,
    finite_real,
    integer_index,
    normalize,
)

DEFAULT_RADIAL_GRID = RadialGrid(4096, 24.0)
FREE_SEED_SIGMA = 2.66  # near-optimal Gaussian width for the free problem


# line search along each CG direction
STEP_INIT, STEP_MAX = 1.0, 8.0  # the first and the largest trial step
STEP_GROW = 1.4  # next first trial, relative to the last accepted step
ARMIJO_C = 1e-4  # sufficient-decrease constant
SAFEGUARD = (0.1, 0.5)  # bounds of a backtracked step, relative to the rejected one
# restart when the CG slope is below this share of the preconditioned gradient's:
# along a direction nearly orthogonal to the gradient no trial passes Armijo
RESTART_C = 1e-2
MAX_BACKTRACKS = 60  # rejected trials before the solve stops unconverged


@dataclass(frozen=True)
class SeedSpec:
    """Initial iterate recipe; ``KINDS`` maps each kind to the fields it reads.

    Pass any other start as ``seed_field=`` to the solver.
    """

    kind: str = "radial_gaussian"
    sigma: float = FREE_SEED_SIGMA
    R: Optional[float] = None  # translated_q: plateau radius fixing ζ = (R+2)/2
    direction: tuple = (1.0, 0.0, 0.0)

    KINDS = {"radial_gaussian": ("sigma",), "translated_q": ("R", "direction")}

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown seed kind {self.kind!r}")
        if self.kind == "translated_q" and self.R is None:
            raise ValueError("translated_q seed needs R")
        for name in ("sigma",) + (("R",) if self.R is not None else ()):
            finite_real(name, getattr(self, name))
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        d = np.asarray(self.direction, dtype=np.float64)
        if d.shape != (3,) or not np.all(np.isfinite(d)) or not d.any():
            raise ValueError(f"direction must be 3 finite numbers, not all 0; got {self.direction}")
        # a tuple, so that the spec can key the solve caches
        object.__setattr__(self, "direction", tuple(self.direction))


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 50000
    tolerance_energy: float = 1e-9
    tolerance_residual: float = 1e-5
    seed: SeedSpec = dc_field(default_factory=SeedSpec)

    def __post_init__(self):
        if integer_index("max_iters", self.max_iters) < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        for name in ("tolerance_energy", "tolerance_residual"):
            if finite_real(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not isinstance(self.seed, SeedSpec):
            raise TypeError(f"seed must be a SeedSpec, got {self.seed!r}")


@dataclass
class MinimizerResult:
    psi: Union[Field3D, RadialField]
    energy: EnergyBreakdown
    residual: ELResidual
    stop: str  # "converged", "max_iters", or "no_descent" (MAX_BACKTRACKS trials rejected)
    history: np.ndarray  # the energy of the seed, then of each accepted step
    norm_history: np.ndarray = dc_field(default_factory=lambda: np.array([]))

    @property
    def iterations(self) -> int:
        """Accepted steps."""
        return len(self.history) - 1

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


# --------------------------------------------------------------------------
# seeds
# --------------------------------------------------------------------------


def radial_gaussian_seed(grid: Grid3D, sigma: float = FREE_SEED_SIGMA) -> Field3D:
    return normalize(radial_field(grid, lambda r: np.exp(-(r**2) / (4 * sigma**2))))


def translate_seed(
    Q: RadialField, R: float, grid: Grid3D, direction: tuple = (1.0, 0.0, 0.0)
) -> Field3D:
    """Normalized 3D field Q(|x - ζ|) with ζ = ((R+2)/2)·direction̂.

    Raises when the translate leaks noticeable mass outside the inscribed
    ball, where the free-space Coulomb guarantee ends.
    """
    d = np.asarray(direction, dtype=np.float64)
    nd = np.linalg.norm(d)
    if nd == 0:
        raise ValueError("direction must be nonzero")
    zeta = (R + 2.0) / 2.0 * d / nd
    X, Y, Z = grid.meshgrid()
    rr = np.sqrt((X - zeta[0]) ** 2 + (Y - zeta[1]) ** 2 + (Z - zeta[2]) ** 2)
    vals = np.interp(rr.ravel(), Q.grid.nodes(), Q.values, right=0.0).reshape(grid.shape)
    out = normalize(Field3D(grid, vals))
    outside = grid.radius() > grid.L / 2
    leak = float(np.sum(out.values[outside] ** 2) * grid.cell_volume)
    if leak > 5e-2:
        raise ValueError(
            f"translate support violation: mass {leak:.2e} outside the inscribed "
            f"ball (|ζ| = {np.linalg.norm(zeta):.3g}, L/2 = {grid.L / 2})"
        )
    if leak > 1e-6:
        warnings.warn(
            f"translated seed leaks mass {leak:.2e} past the inscribed ball; "
            f"box marginal for this translate",
            BoundarySupportWarning,
            stacklevel=2,
        )
    return out


@functools.lru_cache(maxsize=1)
def build_seed(spec: SeedSpec, grid: Grid3D, rgrid: Optional[RadialGrid] = None) -> Field3D:
    """The seed ``spec`` describes on ``grid``; a translated Q is solved on
    ``rgrid`` (the default radial grid if None).  The last seed is kept,
    read-only, so a config's check and its run translate Q once."""
    seed = (translate_seed(solve_free(rgrid).psi, spec.R, grid, spec.direction)
            if spec.kind == "translated_q" else radial_gaussian_seed(grid, spec.sigma))
    seed.values.flags.writeable = False
    return seed


def build_radial_seed(spec: SeedSpec, rgrid: RadialGrid) -> RadialField:
    r = rgrid.nodes()
    if spec.kind == "translated_q":
        # radial problem cannot hold an off-center lump; use a shell at ζ instead
        zeta = (spec.R + 2.0) / 2.0
        return normalize(RadialField(rgrid, np.exp(-((r - zeta) ** 2))))
    return normalize(RadialField(rgrid, np.exp(-(r**2) / (4 * spec.sigma**2))))


def flat_seed(rgrid: RadialGrid) -> RadialField:
    return normalize(RadialField(rgrid, np.ones(rgrid.m)))


# --------------------------------------------------------------------------
# the descent loop and its two preconditioned directions
# --------------------------------------------------------------------------


def _spectral_direction(F: BoxFunctional, shift: float):
    """ĝ ↦ ĝ/(shift + 2|k|²), the spectral (shift - 2Δ)⁻¹."""
    denom = shift + 2 * F.ops.k2
    return lambda g: g / denom


def _banded_direction(F: RadialFunctional, shift: float):
    """g ↦ (shift·M + 2K)⁻¹ g, K the tridiagonal kinetic form and g the nodal gradient."""
    c_seg = F.c_seg
    banded = np.zeros((2, F.grid.m))
    banded[0, :] = shift * F.M + 2 * (np.r_[c_seg, 0.0] + np.r_[0.0, c_seg])
    banded[1, :-1] = -2 * c_seg
    return lambda g: solveh_banded(banded, g, lower=True)


def _descend(F, seed: Union[Field3D, RadialField], opts: SolveOptions, preconditioner):
    """Monotone preconditioned CG descent of the discrete functional F from a
    normalized seed, in F's coordinates; ``preconditioner(F, shift)`` builds
    the map g ↦ M⁻¹g, which the loop projects onto the tangent space."""
    if seed.grid != F.grid:
        raise ValueError("seed and potential live on different grids")
    x = F.to_coords(seed.values)
    bd, fields = F.evaluate(x)
    check_coercivity(bd, "seed evaluation")
    history = [bd.total]
    norms = [float(np.sqrt(F.inner(x, x)))]
    stop = "max_iters"
    step = STEP_INIT
    direction = None
    z_prev = p = None  # the last preconditioned gradient and search direction
    gz_prev = 0.0
    # a warm start already at the stationary point should return immediately
    last_dE = 0.0

    def done() -> bool:
        return el.residual_norm <= opts.tolerance_residual and last_dE <= opts.tolerance_energy

    for it in range(opts.max_iters + 1):
        el, g = F.residual(x, bd, fields)
        if done():
            stop = "converged"
            break
        if it == opts.max_iters:
            break
        if direction is None:  # the shift is fixed by the seed's μ
            direction = preconditioner(F, max(0.25, 2 * abs(el.mu)))
        z = direction(g)
        z -= F.inner(z, x) * x
        gz = F.pairing(g, z)
        slope = 0.0
        if p is not None:  # Polak–Ribière+, p transported by tangent projection
            beta = max(0.0, (gz - F.pairing(g, z_prev)) / gz_prev)
            p = z + beta * (p - F.inner(p, x) * x)
            slope = F.pairing(g, p)
        if slope <= RESTART_C * gz:  # first step, or not a sufficient descent: restart
            p, slope = z, gz
        z_prev, gz_prev = z, gz

        s = step
        for _ in range(MAX_BACKTRACKS):
            cand = x - s * p
            cand /= np.sqrt(F.inner(cand, cand))
            bd_t, fields_t = F.evaluate(cand)
            rise = bd_t.total - bd.total
            if rise <= -ARMIJO_C * s * slope:
                break
            # minimizer of the parabola through E(0), E'(0) = -slope and E(s)
            s_min = slope * s * s / (2 * (rise + slope * s))
            s = min(SAFEGUARD[1] * s, max(SAFEGUARD[0] * s, s_min))
        else:
            stop = "no_descent"
            break
        check_coercivity(bd_t, f"iteration {it}")
        last_dE = -rise
        x, bd, fields = cand, bd_t, fields_t
        history.append(bd.total)
        norms.append(float(np.sqrt(F.inner(x, x))))
        step = min(s * STEP_GROW, STEP_MAX)

    return MinimizerResult(
        psi=type(seed)(seed.grid, F.to_values(x)),
        energy=bd,
        residual=el,
        stop=stop,
        history=np.asarray(history),
        norm_history=np.asarray(norms),
    )


def minimize(
    V: Field3D,
    opts: SolveOptions = SolveOptions(),
    seed_field: Optional[Field3D] = None,
) -> MinimizerResult:
    """Minimize E_V over ‖ψ‖₂ = 1 by monotone projected descent."""
    seed = normalize(seed_field) if seed_field is not None else build_seed(opts.seed, V.grid)
    return _descend(BoxFunctional(V.grid, V), seed, opts, _spectral_direction)


def minimize_radial(
    Vr: RadialField,
    opts: SolveOptions = SolveOptions(),
    seed_field: Optional[RadialField] = None,
) -> MinimizerResult:
    """Same descent scheme in the radial discretization (Newton Coulomb)."""
    rgrid = Vr.grid
    seed = normalize(seed_field) if seed_field is not None else build_radial_seed(opts.seed, rgrid)
    return _descend(RadialFunctional(rgrid, Vr), seed, opts, _banded_direction)


# --------------------------------------------------------------------------
# the free problem and its cached minimizer Q
# --------------------------------------------------------------------------


def solve_free(
    rgrid: Optional[RadialGrid] = None,
    opts: Optional[SolveOptions] = None,
) -> MinimizerResult:
    """Radial minimizer Q of the free problem; sign-fixed nonnegative, cached.

    The value e(0) is negative and Q is non-increasing in r (symmetric
    decreasing minimizer).  Every caller with the same grid and options
    shares one result, so its arrays are read-only.
    """
    if rgrid is None:
        rgrid = DEFAULT_RADIAL_GRID
    if opts is None:
        opts = SolveOptions(tolerance_residual=1e-6)
    return _solve_free(rgrid, opts)


@functools.cache
def _solve_free(rgrid: RadialGrid, opts: SolveOptions) -> MinimizerResult:
    res = minimize_radial(RadialField(rgrid, np.zeros(rgrid.m)), opts)
    if float(np.sum(res.psi.values)) < 0:
        res = replace(res, psi=RadialField(rgrid, -res.psi.values))
    for a in (res.psi.values, res.history, res.norm_history):
        a.flags.writeable = False
    return res
