from collections import Counter
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from pekar import (
    Field3D,
    Grid3D,
    RadialField,
    RadialGrid,
    SeedSpec,
    SolveOptions,
    el_residual,
    flat_seed,
    free_energy,
    lift_radial,
    minimize,
    minimize_radial,
    normalize,
    pekar_energy,
    radial_el_residual,
    radial_gaussian_seed,
    shell_profile,
    solve_free,
    translate_seed,
)
from pekar.angular import _shell_index
from pekar.energy import BoxFunctional
from pekar.experiments import center_of_mass, perturbed_energy
from pekar.minimize import build_radial_seed, build_seed
from pekar.potentials import PotentialSpec
from pekar.spectral import SpectralOps

FAST = SolveOptions(max_iters=500, tolerance_residual=1e-5, tolerance_energy=1e-10)


@pytest.fixture(scope="module")
def free_radial():
    return solve_free(RadialGrid(2048, 20.0), SolveOptions(max_iters=500, tolerance_residual=1e-6))


@pytest.fixture(scope="module")
def small_free_3d():
    # side 24 is the smallest box that roughly holds the wide free minimizer
    g = Grid3D(48, 24.0)
    V = Field3D(g, np.zeros(g.shape))
    return minimize(V, SolveOptions(max_iters=300, tolerance_residual=3e-5,
                                    seed=SeedSpec(kind="radial_gaussian", sigma=2.66)))


class TestRadialFreeProblem:
    def test_energy_negative(self, free_radial):
        assert free_radial.converged
        assert free_radial.energy.total < 0.0

    def test_virial_identity(self, free_radial):
        b = free_radial.energy
        assert abs(b.coulomb - 2 * b.kinetic) / b.coulomb < 1e-3
        assert b.total == pytest.approx(-b.kinetic, rel=2e-3)

    def test_profile_non_increasing(self, free_radial):
        q = free_radial.psi.values
        assert np.all(np.diff(q) <= 1e-8)

    def test_residual_below_tolerance(self, free_radial):
        assert free_radial.residual.residual_norm <= 1e-6
        check = radial_el_residual(free_radial.psi)
        assert check.residual_norm == pytest.approx(free_radial.residual.residual_norm, rel=1e-6)

    def test_history_monotone_and_norm_maintained(self, free_radial):
        assert np.all(np.diff(free_radial.history) <= 0.0)
        assert np.max(np.abs(free_radial.norm_history - 1.0)) < 1e-12

    def test_solver_cache_returns_same_object(self):
        rg = RadialGrid(2048, 20.0)
        o = SolveOptions(max_iters=500, tolerance_residual=1e-6)
        assert solve_free(rg, o) is solve_free(rg, o)

    def test_shared_tables_refuse_writes(self, free_radial, grid32):
        # cached values every caller shares: an in-place write would reach them all
        radii, _, counts = shell_profile(Field3D(grid32, np.ones(grid32.shape)))
        inverse = _shell_index(grid32)[0]
        for shared in (inverse, counts, radii, free_radial.psi.values, free_radial.history):
            with pytest.raises(ValueError, match="read-only"):
                shared *= 2

    def test_solver_cache_keyed_on_all_options(self):
        rg = RadialGrid(1024, 20.0)
        o = SolveOptions(max_iters=500, tolerance_residual=1e-6)
        full = solve_free(rg, o)
        short = solve_free(rg, replace(o, max_iters=3))
        assert full.converged and not short.converged
        assert short.iterations == 3

    def test_flat_seed_converges_monotone(self):
        rg = RadialGrid(1024, 20.0)
        Vr = PotentialSpec(kind="annular", R=6.0).build_radial(rg)
        res = minimize_radial(Vr, FAST, seed_field=flat_seed(rg))
        assert res.converged
        assert np.all(np.diff(res.history) <= 0.0)
        assert res.energy.total < -0.5  # deep well binds a shell state

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_zero_max_iters_returns_seed_eval(self, max_iters):
        # iterations counts accepted steps; at 0 only the seed is evaluated
        rg = RadialGrid(512, 18.0)
        Vr = RadialField(rg, np.zeros(rg.m))
        res = minimize_radial(Vr, SolveOptions(max_iters=max_iters))
        assert not res.converged
        assert res.iterations == len(res.history) - 1 == max_iters


class Test3DFreeProblem:
    def test_monotone_history_and_norms(self, small_free_3d):
        assert np.all(np.diff(small_free_3d.history) <= 0.0)
        assert np.max(np.abs(small_free_3d.norm_history - 1.0)) < 1e-12
        assert abs(small_free_3d.psi.norm() - 1.0) < 1e-12

    def test_el_residual_matches_solver(self, small_free_3d):
        res = el_residual(small_free_3d.psi)
        assert res.residual_norm <= 3e-5 * 1.5

    def test_energy_against_radial_solver(self, small_free_3d, free_radial):
        # the 24-box still wraps ~0.2% of the tail: ~4e-3 relative shift is
        # physical at this size (the acceptance suite pins the production grid)
        assert small_free_3d.energy.total == pytest.approx(free_radial.energy.total, rel=1e-2)

    def test_seed_independence(self, small_free_3d):
        g = small_free_3d.psi.grid
        V = Field3D(g, np.zeros(g.shape))
        # an off-centre, anisotropic Gaussian: no symmetry of the fixture's seed
        X, Y, Z = g.meshgrid()
        seed = Field3D(g, np.exp(-((X - 0.7) ** 2 + 0.8 * Y**2 + 1.2 * Z**2) / (4 * 2.66**2)))
        other = minimize(V, SolveOptions(max_iters=300, tolerance_residual=3e-5), seed_field=seed)
        assert other.converged
        rel = abs(other.energy.total - small_free_3d.energy.total) / abs(small_free_3d.energy.total)
        assert rel <= 1e-3

    def test_determinism(self):
        g = Grid3D(32, 16.0)
        V = Field3D(g, np.zeros(g.shape))
        o = SolveOptions(max_iters=40, tolerance_residual=1e-4,
                         seed=SeedSpec(kind="radial_gaussian", sigma=2.0))
        r1 = minimize(V, o)
        r2 = minimize(V, o)
        assert r1.energy.total == r2.energy.total
        np.testing.assert_array_equal(r1.psi.values, r2.psi.values)

    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_max_iters_zero(self, max_iters):
        g = Grid3D(32, 16.0)
        V = Field3D(g, np.zeros(g.shape))
        o = SolveOptions(max_iters=max_iters, seed=SeedSpec(kind="radial_gaussian"))
        res = minimize(V, o)
        assert not res.converged
        assert res.iterations == len(res.history) - 1 == max_iters


def _radial_free():
    rg = RadialGrid(1024, 20.0)
    V0 = RadialField(rg, np.zeros(rg.m))
    return minimize_radial(V0, SolveOptions(max_iters=500, tolerance_residual=1e-6))


def _radial_well_R6():
    rg = RadialGrid(1024, 20.0)
    Vr = PotentialSpec(kind="annular", R=6.0).build_radial(rg)
    return minimize_radial(Vr, FAST, seed_field=flat_seed(rg))


def _box_free():
    g = Grid3D(32, 16.0)
    V = Field3D(g, np.zeros(g.shape))
    seed = SeedSpec(kind="radial_gaussian", sigma=2.0)
    return minimize(V, SolveOptions(max_iters=40, tolerance_residual=1e-4, seed=seed))


def _box_well_R8():
    g = Grid3D(32, 40.0)
    V = PotentialSpec(kind="annular", R=8.0).build(g)
    seed = translate_seed(solve_free().psi, 8.0, g)
    return minimize(V, SolveOptions(max_iters=2000, tolerance_residual=1e-5), seed_field=seed)


# final energy and number of recorded energies (seed + accepted steps) of
# four quick solves; a change to the descent loop or the discrete
# functionals that keeps the floating-point operations must keep these
GOLDEN = {
    "radial_free": (_radial_free, -0.1085147497151073, 17),
    "radial_well_R6": (_radial_well_R6, -1.0233246410020975, 24),
    "box_free": (_box_free, -0.1265620673841445, 22),
    "box_well_R8": (_box_well_R8, -1.0730413339086164, 34),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_solves(case):
    solve, energy, n_history = GOLDEN[case]
    res = solve()
    assert res.converged
    assert res.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)
    assert len(res.history) == n_history


@pytest.mark.parametrize("max_iters", [5, 500])
def test_reported_residual_is_that_of_the_returned_iterate(max_iters):
    # the stop test used to pair the last ΔE with the residual before the step
    g = Grid3D(32, 16.0)
    V = Field3D(g, np.zeros(g.shape))
    seed = SeedSpec(kind="radial_gaussian", sigma=2.0)
    box = minimize(V, SolveOptions(max_iters=max_iters, tolerance_residual=1e-4, seed=seed))
    assert box.residual == el_residual(box.psi, V)
    rg = RadialGrid(1024, 20.0)
    Vr = PotentialSpec(kind="annular", R=6.0).build_radial(rg)
    rad = minimize_radial(Vr, replace(FAST, max_iters=max_iters), seed_field=flat_seed(rg))
    assert rad.residual == radial_el_residual(rad.psi, Vr)
    assert box.converged == rad.converged == (max_iters == 500)
    assert box.stop == rad.stop == ("converged" if max_iters == 500 else "max_iters")


def test_box_solve_allocates_one_padded_spectrum(monkeypatch):
    # the functional keeps its padded scratch from one evaluation to the
    # next, so only the seed's evaluation allocates one
    fresh = []
    fft_padded = SpectralOps.fft_padded

    def counting(self, values, **kw):
        fresh.append(kw.get("out") is None)
        return fft_padded(self, values, **kw)

    monkeypatch.setattr(SpectralOps, "fft_padded", counting)
    res = _box_free()
    assert res.iterations >= 8
    assert len(fresh) > res.iterations
    assert sum(fresh) <= 1


def test_box_solve_transform_counts(monkeypatch):
    # the loop holds ψ̂: each evaluation (one kinetic term) makes one n³
    # inverse, for ρ = ψ², and each residual two n³ forwards; the solve adds
    # one of each, the seed's coordinates and the returned ψ
    calls = Counter()

    def counting(owner, name):
        inner = getattr(owner, name)

        def call(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)

        monkeypatch.setattr(owner, name, call)

    for name in ("fft", "ifft", "kinetic", "precondition", "neg_laplacian"):
        counting(SpectralOps, name)
    counting(BoxFunctional, "residual")
    res = _box_free()
    assert res.iterations >= 8
    assert calls["ifft"] <= calls["kinetic"] + 1
    assert calls["fft"] <= 2 * calls["residual"] + 1
    assert calls["precondition"] == calls["neg_laplacian"] == 0


@pytest.fixture(scope="module")
def well32():
    """The R=8 well on the n=32 box, Q translated along x, and a base solved from it at 1e-5."""
    g = Grid3D(32, 40.0)
    V = PotentialSpec(kind="annular", R=8.0).build(g)
    Q = solve_free(RadialGrid(4096, 24.0), SolveOptions(max_iters=2000, tolerance_residual=1e-6))
    seed = translate_seed(Q.psi, 8.0, g)
    base = minimize(V, SolveOptions(max_iters=2000, tolerance_residual=1e-5), seed_field=seed)
    assert base.converged and base.iterations == 33
    return V, seed, base


class TestStopReason:
    # "converged" and "max_iters" are asserted with the reported residual above
    def test_no_descent(self, monkeypatch):
        # the package's name ``minimize`` is the function, not the module
        monkeypatch.setattr(import_module("pekar.minimize"), "MAX_BACKTRACKS", 0)
        rg = RadialGrid(1024, 20.0)
        res = minimize_radial(RadialField(rg, np.zeros(rg.m)), FAST)
        assert res.stop == "no_descent" and not res.converged
        assert res.iterations == 0

    # ROADMAP item 4: near a residual of 1e-8, E's rounding hides the decrease
    @pytest.mark.parametrize(
        "seed", [SeedSpec(), SeedSpec(kind="translated_q", R=8.0)], ids=lambda s: s.kind
    )
    def test_radial_well_reaches_a_tight_tolerance(self, seed):
        Vr = PotentialSpec(kind="annular", R=8.0).build_radial(RadialGrid(4096, 24.0))
        opts = SolveOptions(tolerance_residual=1e-8, seed=seed)
        res = minimize_radial(Vr, opts)
        assert res.converged, f"{res.stop} after {res.iterations} steps"

    def test_box_well_reaches_a_tight_tolerance(self, well32):
        V, seed, _ = well32
        res = minimize(V, SolveOptions(max_iters=2000, tolerance_residual=1e-8), seed_field=seed)
        assert res.converged, f"{res.stop} after {res.iterations} steps"

    @pytest.mark.parametrize("delta", [0.04, -0.04, 0.02, -0.01, -0.02, 0.01])
    def test_warm_box_well_reaches_a_tight_tolerance(self, well32, delta):
        V, _, base = well32
        Z = PotentialSpec(kind="radial_bump", center=5.0, width=2.0).build(V.grid)
        opts = SolveOptions(max_iters=2000, tolerance_residual=1e-8)
        res = perturbed_energy(V, Z, delta, opts, warm=base.psi)
        assert res.converged, f"{res.stop} after {res.iterations} steps"


def test_off_axis_seed_converges():
    # solver robustness: Q translated along a direction of no lattice symmetry
    # drifts over the flat orbit to a lattice direction before it converges
    g = Grid3D(32, 40.0)
    V = PotentialSpec(kind="annular", R=8.0).build(g)
    d = np.random.default_rng(0).standard_normal(3)
    seed = translate_seed(solve_free().psi, 8.0, g, direction=tuple(d / np.linalg.norm(d)))
    opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
    res = minimize(V, opts, seed_field=seed)
    assert res.converged, f"unconverged after {res.iterations} of {opts.max_iters} iterations"


class TestLiftedConsistency:
    def test_radial_minimizer_lifted_to_3d(self, free_radial):
        g = Grid3D(64, 32.0)
        # the profile ends before the box corner; the lift is zero beyond it
        assert free_radial.psi.grid.r_max < np.sqrt(3) / 2 * g.L
        psi = normalize(lift_radial(free_radial.psi, g))
        b = pekar_energy(psi)
        rel = abs(b.total - free_radial.energy.total) / abs(free_radial.energy.total)
        assert rel <= 5e-3


class TestTranslateSeed:
    def test_center_and_norm(self, free_radial):
        g = Grid3D(48, 32.0)
        QR = translate_seed(free_radial.psi, 6.0, g)
        assert abs(QR.norm() - 1.0) < 1e-12
        com = center_of_mass(QR.density())
        np.testing.assert_allclose(com, [4.0, 0.0, 0.0], atol=2e-3)

    def test_free_energy_preserved_under_translation(self, free_radial):
        g = Grid3D(64, 32.0)
        e_vals = []
        for R in (4.0, 6.0):
            QR = translate_seed(free_radial.psi, R, g)
            e_vals.append(free_energy(QR))
        for e in e_vals:
            assert e == pytest.approx(free_radial.energy.total, rel=5e-3)

    def test_support_violation_raises(self, free_radial):
        g = Grid3D(32, 16.0)
        with pytest.raises(ValueError, match="support violation"):
            translate_seed(free_radial.psi, 10.0, g)

    def test_direction_argument(self, free_radial):
        g = Grid3D(48, 32.0)
        QR = translate_seed(free_radial.psi, 6.0, g, direction=(0.0, 1.0, 0.0))
        com = center_of_mass(QR.density())
        np.testing.assert_allclose(com, [0.0, 4.0, 0.0], atol=2e-3)


class TestOptions:
    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(tolerance_energy=-1.0)
        with pytest.raises(ValueError):
            SolveOptions(tolerance_residual=0.0)

    def test_bad_seed_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown seed kind"):
            SeedSpec(kind="warmish")

    def test_translated_q_needs_R(self):
        with pytest.raises(ValueError, match="needs R"):
            SeedSpec(kind="translated_q")

    @pytest.mark.parametrize(
        "direction", [(0.0, 0.0, 0.0), (1.0, 0.0), (1.0, float("nan"), 0.0), ("x", 0, 0)]
    )
    def test_bad_direction_rejected(self, direction):
        with pytest.raises(ValueError):
            SeedSpec(direction=direction)

    def test_fractional_max_iters_rejected(self):
        with pytest.raises(TypeError):
            SolveOptions(max_iters=2.5)

    @pytest.mark.parametrize(
        "spec, bad",
        [
            (PotentialSpec(), {"kind": "coulombic"}),
            (PotentialSpec(), {"value": float("nan")}),
            (PotentialSpec(), {"amplitude": True}),
            (PotentialSpec(kind="annular"), {"R": 2.0}),
            (PotentialSpec(kind="annular"), {"lam": 0.5}),
            (PotentialSpec(kind="radial_bump"), {"width": 0.0}),
            (SeedSpec(), {"kind": "warmish"}),
            (SeedSpec(), {"kind": "translated_q"}),
            (SeedSpec(), {"sigma": 0.0}),
            (SeedSpec(), {"sigma": -2.0}),
            (SeedSpec(), {"sigma": float("inf")}),
            (SeedSpec(kind="translated_q", R=4.0), {"R": float("nan")}),
            (SeedSpec(), {"direction": (0.0, 0.0, 0.0)}),
            (SolveOptions(), {"max_iters": -1}),
            (SolveOptions(), {"max_iters": 2.5}),
            (SolveOptions(), {"tolerance_energy": 0.0}),
            (SolveOptions(), {"tolerance_residual": -1.0}),
            (SolveOptions(), {"tolerance_residual": float("inf")}),
            (SolveOptions(), {"seed": {"kind": "radial_gaussian"}}),
            (SolveOptions(), {"seed": None}),
        ],
    )
    def test_invalid_spec_cannot_be_built(self, spec, bad):
        with pytest.raises((TypeError, ValueError)):
            type(spec)(**{**vars(spec), **bad})
        with pytest.raises((TypeError, ValueError)):
            replace(spec, **bad)

    def test_list_direction_keys_the_free_solve_cache(self):
        seed = SeedSpec(direction=[0.0, 0.0, 1.0])
        assert seed.direction == (0.0, 0.0, 1.0)
        res = solve_free(RadialGrid(64, 10.0), SolveOptions(max_iters=3, seed=seed))
        assert res.iterations <= 3


@pytest.mark.parametrize("sigma", [-1.5, 0.0, float("inf"), float("nan")])
def test_radial_gaussian_seed_rejects_a_bad_width(sigma):
    with pytest.raises(ValueError, match="sigma"):
        radial_gaussian_seed(Grid3D(16, 20.0), sigma)


class TestSeedOnAnotherGrid:
    def test_box_seed_rejected(self):
        g = Grid3D(16, 20.0)
        V = Field3D(g, np.zeros(g.shape))
        seed = radial_gaussian_seed(Grid3D(16, 40.0), 2.0)
        with pytest.raises(ValueError, match="different grids"):
            minimize(V, SolveOptions(max_iters=3), seed_field=seed)

    def test_radial_seed_rejected(self):
        rg = RadialGrid(256, 20.0)
        Vr = RadialField(rg, np.zeros(rg.m))
        with pytest.raises(ValueError, match="different grids"):
            minimize_radial(Vr, SolveOptions(max_iters=3), seed_field=flat_seed(RadialGrid(256, 10.0)))


class TestSeedNormalizedOnce:
    """The solvers normalize the seed once, whichever way it arrives, so the
    seed a spec describes and the same array passed as ``seed_field`` give
    one solve."""

    @pytest.mark.parametrize("spec, L", [(SeedSpec(kind="radial_gaussian", sigma=2.0), 16.0),
                                         (SeedSpec(kind="translated_q", R=8.0), 40.0)],
                             ids=["radial_gaussian", "translated_q"])
    def test_box_seed_paths_give_one_solve(self, spec, L):
        # the free Gaussian of _box_free and the R=8 well of _box_well_R8
        g = Grid3D(32, L)
        V = Field3D(g, np.zeros(g.shape)) if spec.R is None else PotentialSpec(kind="annular", R=8.0).build(g)
        by_spec = minimize(V, replace(FAST, seed=spec))
        by_field = minimize(V, FAST, seed_field=build_seed(spec, g))
        assert by_spec.converged
        assert np.array_equal(by_spec.history, by_field.history)

    @pytest.mark.parametrize("kind", ["radial_gaussian", "translated_q"])
    def test_radial_seed_paths_give_one_solve(self, kind):
        rg = RadialGrid(1024, 20.0)
        Vr = PotentialSpec(kind="annular", R=6.0).build_radial(rg)
        spec = SeedSpec(kind=kind, R=6.0)
        by_spec = minimize_radial(Vr, replace(FAST, seed=spec))
        by_field = minimize_radial(Vr, FAST, seed_field=build_radial_seed(spec, rg))
        assert by_spec.converged
        assert np.array_equal(by_spec.history, by_field.history)


def test_cg_restarts_off_a_direction_nearly_orthogonal_to_the_gradient():
    # at this R=8 well and bump the warm solve reaches a step whose
    # Polak–Ribière+ direction has 1e-3 of the preconditioned gradient's slope;
    # no trial along it passes Armijo, so without a restart the solve stops as
    # no_descent at residual 2.6e-5
    g = Grid3D(32, 40.0)
    V = PotentialSpec(kind="annular", R=8.0).build(g)
    opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
    Q = solve_free(RadialGrid(4096, 24.0), SolveOptions(max_iters=2000, tolerance_residual=1e-6))
    cold = minimize(V, opts, seed_field=translate_seed(Q.psi, 8.0, g, (-1, 0, 0)))
    Z = PotentialSpec(kind="radial_bump", center=4.875022118531836, width=1.929660562954001)
    warm = perturbed_energy(V, Z.build(g), 0.04, opts, warm=cold.psi)
    assert warm.stop == "converged"


# --------------------------------------------------------------------------
# the mirror class of a solve
# --------------------------------------------------------------------------

AXIS_SEEDS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


@pytest.fixture
def classes(monkeypatch):
    """The even axes of each box solve's functional, in call order."""
    module = import_module("pekar.minimize")
    seen, descend = [], module._descend

    def spy(F, *args, **kw):
        if isinstance(F, BoxFunctional):
            seen.append(F.ops.even)
        return descend(F, *args, **kw)

    monkeypatch.setattr(module, "_descend", spy)
    return seen


def _well32():
    g = Grid3D(32, 40.0)
    return PotentialSpec(kind="annular", R=8.0).build(g), solve_free().psi


def _full_box(V, seed, opts):
    """The same solve on the functional with no even axis."""
    module = import_module("pekar.minimize")
    return module._descend(BoxFunctional(V.grid, V), normalize(seed), opts,
                           module._spectral_direction)


class TestMirrorClass:
    @pytest.mark.parametrize("direction", AXIS_SEEDS, ids=str)
    def test_axis_translate_solves_with_the_other_axes_even(self, classes, direction):
        V, Q = _well32()
        seed = translate_seed(Q, 8.0, V.grid, direction)
        opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
        res = minimize(V, opts, seed_field=seed)
        axis = int(np.flatnonzero(direction)[0])
        assert classes == [tuple(a for a in range(3) if a != axis)]
        ref = _full_box(V, seed, opts)
        assert res.converged and ref.converged
        assert res.energy.total == pytest.approx(ref.energy.total, rel=1e-13, abs=0.0)
        assert res.psi.values.shape == V.grid.shape

    def test_face_diagonal_solves_with_z_even(self, classes):
        V, Q = _well32()
        minimize(V, SolveOptions(max_iters=3), seed_field=translate_seed(Q, 8.0, V.grid, (1, 1, 0)))
        assert classes == [(2,)]

    @pytest.mark.parametrize("direction", ["cube", "off_axis"])
    def test_diagonal_and_off_axis_seeds_solve_on_the_full_box(self, classes, direction):
        V, Q = _well32()
        d = (1.0, 1.0, 1.0) if direction == "cube" else np.random.default_rng(0).standard_normal(3)
        seed = translate_seed(Q, 8.0, V.grid, tuple(d / np.linalg.norm(d)))
        opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
        res = minimize(V, opts, seed_field=seed)
        assert classes == [()]
        assert np.array_equal(res.history, _full_box(V, seed, opts).history)

    def test_free_gaussian_solves_with_every_axis_even(self, classes):
        res = _box_free()
        assert classes == [(0, 1, 2)]
        assert np.isrealobj(BoxFunctional(res.psi.grid, None, (0, 1, 2)).to_coords(res.psi.values))

    @pytest.mark.parametrize("solve", [_box_free, _box_well_R8])
    def test_golden_box_solves_match_the_full_box(self, solve):
        res = solve()
        g = res.psi.grid
        if solve is _box_free:
            V = Field3D(g, np.zeros(g.shape))
            seed = radial_gaussian_seed(g, 2.0)
            opts = SolveOptions(max_iters=40, tolerance_residual=1e-4)
        else:
            V, Q = _well32()
            seed = translate_seed(Q, 8.0, g)
            opts = SolveOptions(max_iters=2000, tolerance_residual=1e-5)
        ref = _full_box(V, seed, opts)
        assert res.energy.total == pytest.approx(ref.energy.total, rel=1e-13, abs=0.0)

    def test_functional_is_freed_without_the_cycle_collector(self):
        # a functional in a reference cycle would keep its padded scratch
        # alive until the collector runs
        import gc
        import weakref

        V, _ = _well32()
        gc.disable()
        try:
            F = BoxFunctional(V.grid, V, (1, 2))
            F.evaluate(F.to_coords(V.values))
            ref = weakref.ref(F)
            del F
            assert ref() is None
        finally:
            gc.enable()
