"""Variational solver suite for the Pekar (Choquard-type) problem with
external potentials: free-space Coulomb energies on a periodic box, the
radially constrained problem, the annular-well symmetry-breaking
experiment, perturbation derivatives, and the coherent-state product
ansatz on a phonon k-grid."""

from .ansatz import (
    KGrid,
    PhononDisplacement,
    alpha_scaling_check,
    coupling_constant,
    density_fourier,
    min_product_energy,
    optimal_displacement,
    product_energy,
)
from .angular import lift_radial, shell_profile, shell_project, spherical_average
from .energy import (
    CoercivityError,
    ELResidual,
    EnergyBreakdown,
    el_residual,
    energy_gradient,
    free_energy,
    pekar_energy,
    radial_el_residual,
    radial_pekar_energy,
)
from .fields import (
    BoundarySupportWarning,
    DegenerateFieldError,
    Field3D,
    Grid3D,
    RadialField,
    RadialGrid,
    load_field,
    load_radial,
    normalize,
    save_field,
    save_radial,
)
from .experiments import (
    DerivativeReport,
    OrbitReport,
    SweepRow,
    center_of_mass,
    fd_derivative,
    perturbed_energy,
    rotation_orbit_evidence,
    rotational_density_check,
    sweep_R,
    trial_upper_bound,
)
from .minimize import (
    MinimizerResult,
    SeedSpec,
    SolveOptions,
    build_seed,
    flat_seed,
    minimize,
    minimize_radial,
    radial_gaussian_seed,
    solve_free,
    translate_seed,
)
from .potentials import (
    PotentialSpec,
    annular_profile,
    mass_in_well,
    potential_energy,
    rotational_average,
    smooth_bump,
    smooth_ramp,
)
from .radial import (
    h1_norm,
    radial_coulomb,
    radial_coulomb_potential,
    radial_kinetic,
    strauss_bound_check,
)
from .spectral import coulomb_potential, coulomb_self_energy, kinetic_energy

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
