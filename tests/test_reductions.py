"""The grid pairings and spectral reductions: reference values and memory.

Each reduction is checked against the plain ``np.sum`` form it replaced,
and the hot ones must not build a temporary as large as one n³ array:
``tracemalloc`` sees numpy's data buffers, so a product ``a * b`` of two
grid arrays shows as a traced peak of n³ float64.  The lattice-shell
index is held to the same bound while it is built.
"""

import tracemalloc

import numpy as np
import pytest

from pekar import Field3D, Grid3D, normalize, rotational_density_check
from pekar.angular import _shell_index
from pekar.energy import BoxFunctional
from pekar.minimize import _spectral_direction
from pekar.spectral import ops_for

from conftest import smooth_random_psi

REL = 1e-13


@pytest.fixture(scope="module")
def grid64():
    return Grid3D(64, 24.0)


@pytest.fixture(scope="module")
def pair(grid64):
    rng = np.random.default_rng(11)
    return smooth_random_psi(grid64, rng), Field3D(grid64, rng.standard_normal(grid64.shape))


def _reference_reduce(w, spec, dv, m):
    """Σ w·dup·|ŝ|²·dv/m³ with the Hermitian weights of the half-grid's last
    axis spelt out: each kz plane counts twice but the first and the last."""
    dup = np.full(spec.shape[2], 2.0)
    dup[0] = dup[-1] = 1.0
    return float(dv / m**3 * np.sum(w * (spec.real**2 + spec.imag**2) * dup))


def _plane_part(a, part):
    """``a`` itself, or the part of it whose rfft half-spectrum lies on the
    kz = 0 plane (the z mean) or on the Nyquist plane (the alternating mean)."""
    if part == "all":
        return a
    alt = np.ones(a.shape[2]) if part == "kz0" else (-1.0) ** np.arange(a.shape[2])
    return alt * np.mean(a * alt, axis=2, keepdims=True)


def _traced_peak(fn, *args):
    """(result, bytes the call allocated at its peak beyond what was live before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - before


class TestAgainstTheSumForms:
    def test_field_inner_and_norm(self, pair):
        psi, f = pair
        dv = psi.grid.cell_volume
        assert psi.inner(f) == pytest.approx(np.sum(psi.values * f.values) * dv, rel=REL)
        assert f.norm() == pytest.approx(np.sqrt(np.sum(f.values**2) * dv), rel=REL)

    def test_box_functional_inner(self, pair):
        psi, f = pair
        F = BoxFunctional(psi.grid)
        assert F.inner(F.to_coords(psi.values), F.to_coords(f.values)) == pytest.approx(
            np.sum(psi.values * f.values) * F.dv, rel=REL
        )

    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_kinetic_and_coulomb_energy(self, n):
        g = Grid3D(n, 20.0)
        ops = ops_for(g)
        psi = smooth_random_psi(g, np.random.default_rng(n)).values
        spec = ops.fft(psi)
        ref = _reference_reduce(ops.k2, spec, g.cell_volume, n)
        assert ops.kinetic(spec) == pytest.approx(ref, rel=REL)
        rho = psi**2
        spec_pad = ops.fft_padded(rho)
        ref = _reference_reduce(ops.wk, spec_pad, g.cell_volume, ops.npad)
        assert ops.coulomb_energy(spec_pad) == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("part", ["kz0", "nyquist"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_kinetic_and_coulomb_energy_on_the_single_planes(self, n, part):
        # a field whose half-spectrum lies on the kz = 0 or the Nyquist plane
        # alone, the planes that count once
        g = Grid3D(n, 10.0)
        ops = ops_for(g)
        a = _plane_part(np.random.default_rng(n).standard_normal(g.shape), part)
        spec, spec_pad = ops.fft(a), ops.fft_padded(a)
        ref = _reference_reduce(ops.k2, spec, g.cell_volume, n)
        assert ops.kinetic(spec) == pytest.approx(ref, rel=REL)
        ref = _reference_reduce(ops.wk, spec_pad, g.cell_volume, ops.npad)
        assert ops.coulomb_energy(spec_pad) == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("name", ["kinetic", "coulomb_energy", "coulomb_potential"])
    def test_reductions_refuse_a_real_field(self, name):
        # each takes the spectrum it reduces; a field in its place is a shape error
        g = Grid3D(16, 10.0)
        psi = smooth_random_psi(g, np.random.default_rng(16)).values
        with pytest.raises(ValueError):
            getattr(ops_for(g), name)(psi)

    @pytest.mark.parametrize("n", [16, 32])
    def test_solver_coulomb_is_the_padded_reduction(self, n):
        # the solver's D = ⟨ρ, Φ_ρ⟩·dv equals Σ ŵ|ρ̂|² on the padded grid (Parseval)
        g = Grid3D(n, 20.0)
        psi = smooth_random_psi(g, np.random.default_rng(n)).values
        F = BoxFunctional(g)
        bd = F.evaluate(F.to_coords(psi))[0]
        ops = ops_for(g)
        assert bd.coulomb == pytest.approx(ops.coulomb_energy(ops.fft_padded(psi**2)), rel=REL)


class TestSpectralCoordinates:
    """The box functional's inner product and direction on half-spectra
    against their real-space forms; the kz = 0 and Nyquist planes count once."""

    @pytest.mark.parametrize("part", ["all", "kz0", "nyquist"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_inner_product_is_the_real_space_one(self, n, part):
        g = Grid3D(n, 10.0)
        F = BoxFunctional(g)
        rng = np.random.default_rng(n)
        a = _plane_part(rng.standard_normal(g.shape), part)
        b = a + 0.5 * _plane_part(rng.standard_normal(g.shape), part)
        for u, v in ((a, b), (b, b)):
            ref = float(np.sum(u * v) * F.dv)
            assert F.inner(F.to_coords(u), F.to_coords(v)) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n", [8, 16])
    def test_direction_is_the_projected_preconditioned_gradient(self, n):
        g = Grid3D(n, 10.0)
        F = BoxFunctional(g)
        rng = np.random.default_rng(n)
        psi = normalize(Field3D(g, rng.standard_normal(g.shape))).values
        grad = rng.standard_normal(g.shape)
        shift = 0.7
        ref = F.ops.precondition(grad, shift)
        ref -= float(np.sum(ref * psi) * F.dv) * psi
        # the map and the projection of the descent loop
        x = F.to_coords(psi)
        d = _spectral_direction(F, shift)(F.to_coords(grad))
        d -= F.inner(d, x) * x
        assert np.abs(F.to_values(d) - ref).max() <= 1e-14 * np.abs(ref).max()


class TestNoFullSizeTemporary:
    """Traced peak of each call below one n³ float64 array (the calls return floats)."""

    def test_field_inner_and_norm(self, pair):
        psi, f = pair
        full = psi.values.nbytes
        assert _traced_peak(psi.inner, f)[1] < full
        assert _traced_peak(f.norm)[1] < full

    def test_spectral_inner_product(self, pair):
        psi, f = pair
        F = BoxFunctional(psi.grid)
        a, b = F.to_coords(psi.values), F.to_coords(f.values)
        assert _traced_peak(F.inner, a, b)[1] < psi.values.nbytes

    def test_kinetic_of_a_spectrum(self, pair):
        psi, _ = pair
        ops = ops_for(psi.grid)
        spec = ops.fft(psi.values)
        assert _traced_peak(ops.kinetic, spec)[1] < psi.values.nbytes

    def test_coulomb_energy_of_a_padded_spectrum(self, pair):
        psi, _ = pair
        ops = ops_for(psi.grid)
        rho = psi.values**2
        spec_pad = ops.fft_padded(rho)
        assert _traced_peak(ops.coulomb_energy, spec_pad)[1] < rho.nbytes

    def test_rotational_density_check_pairings(self, pair, monkeypatch):
        import pekar.experiments as exp

        psi, f = pair
        peaks = []
        pairing = exp.potential_energy

        def traced(V, rho):
            value, peak = _traced_peak(pairing, V, rho)
            peaks.append(peak)
            return value

        monkeypatch.setattr(exp, "potential_energy", traced)
        rotational_density_check(psi, f)
        assert len(peaks) == 3
        assert max(peaks) < psi.values.nbytes


def test_shell_index_built_on_the_half_slab():
    g = Grid3D(64, 21.0)  # a grid of its own, so the build is not a cache hit
    (inverse, counts, _), peak = _traced_peak(_shell_index, g)
    assert inverse.size == g.n**3 // 4
    assert counts.sum() == g.n**3
    assert peak < 8 * g.n**3  # one n³ float64 array
