import numpy as np
import pytest

from pekar import (
    DegenerateFieldError,
    Field3D,
    Grid3D,
    KGrid,
    RadialField,
    RadialGrid,
    load_field,
    load_radial,
    normalize,
    save_field,
    save_radial,
)


class TestGrid3D:
    def test_cell_centers_symmetric_about_origin(self):
        g = Grid3D(16, 8.0)
        ax = g.axis()
        assert ax[0] == pytest.approx(-g.L / 2 + g.dx / 2)
        np.testing.assert_allclose(ax, -ax[::-1], atol=1e-15)

    def test_cell_centres_exactly_antisymmetric(self):
        # dx = 5/6 is not binary: (i + 1/2)·dx - L/2 missed the mirror by 3.6e-15,
        # so a translate along x was not exactly even in y and z
        from pekar import solve_free, translate_seed

        g = Grid3D(48, 40.0)
        ax = g.axis()
        assert np.array_equal(ax, -ax[::-1])
        seed = translate_seed(solve_free(RadialGrid(256, 16.0)).psi, 6.0, g).values
        assert np.array_equal(seed, seed[:, ::-1]) and np.array_equal(seed, seed[:, :, ::-1])
        assert not np.array_equal(seed, seed[::-1])

    @pytest.mark.parametrize("n,L", [(6, 8.0), (9, 8.0), (16, 0.0), (16, -2.0)])
    def test_invalid_parameters_rejected(self, n, L):
        with pytest.raises(ValueError):
            Grid3D(n, L)

    @pytest.mark.parametrize("n, L, error", [
        (32.0, 20.0, TypeError), (True, 20.0, TypeError), (np.float64(32), 20.0, TypeError),
        (32, np.inf, ValueError), (32, np.nan, ValueError), (32, "20", ValueError),
    ])
    def test_sizes_checked_when_built(self, n, L, error):
        # each of these used to build and fail later, in np.arange or as NaN norms
        with pytest.raises(error, match=r"^(n must be an integer|L must be a finite)"):
            Grid3D(n, L)

    def test_numpy_sizes_accepted(self):
        assert Grid3D(np.int64(16), np.float64(8.0)) == Grid3D(16, 8.0)
        assert RadialGrid(np.int32(64), np.float32(10.0)) == RadialGrid(64, 10.0)
        assert KGrid(np.int64(8), np.float64(2.0)) == KGrid(8, 2.0)


class TestNormalize:
    def test_constant_field_on_L4_box(self):
        # ∫ c² dx = c² L³ = 1  ⇒  c = L^(-3/2) = 1/8 for L = 4
        g = Grid3D(16, 4.0)
        out = normalize(Field3D(g, np.full(g.shape, 3.7)))
        np.testing.assert_allclose(out.values, 1 / 8, rtol=1e-14)

    def test_already_normalized_is_fixed_point(self):
        g = Grid3D(16, 4.0)
        f = normalize(Field3D(g, np.random.default_rng(0).random(g.shape) + 0.1))
        again = normalize(f)
        np.testing.assert_allclose(again.values, f.values, rtol=1e-15, atol=0)

    def test_zero_field_raises(self):
        g = Grid3D(16, 4.0)
        with pytest.raises(DegenerateFieldError, match="degenerate normalization"):
            normalize(Field3D(g, np.zeros(g.shape)))

    def test_nonfinite_rejected_at_construction(self):
        g = Grid3D(16, 4.0)
        vals = np.zeros(g.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field3D(g, vals)


class TestRadialGrid:
    @pytest.mark.parametrize("m, r_max, error", [
        (64.5, 10.0, TypeError), (64.0, 10.0, TypeError), (False, 10.0, TypeError),
        (64, np.inf, ValueError), (64, -np.inf, ValueError), (64, None, ValueError),
    ])
    def test_sizes_checked_when_built(self, m, r_max, error):
        # each of these used to build and fail later, in np.linspace or as NaN norms
        with pytest.raises(error, match=r"^(m must be an integer|r_max must be a finite)"):
            RadialGrid(m, r_max)

    def test_trapezoid_exact_for_piecewise_linear_integrand(self):
        # quadrature Σ w_j f_j r_j² integrates g(r) = f(r) r²; feed a g that is
        # globally linear, g = 2 + 3r, so the rule must be exact
        rg = RadialGrid(257, 10.0)
        r = rg.nodes()
        g = 2.0 + 3.0 * r
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(r > 0, g / np.maximum(r, 1e-300) ** 2, 0.0)
        got = np.sum(rg.weights() * f * r * r)
        # the r=0 node contributes weight·r² = 0, so the quadrature actually
        # integrates the trapezoid of g with g(0) ignored; compare to that sum
        w = rg.weights()
        expect = np.sum(w[1:] * g[1:])
        assert got == pytest.approx(expect, rel=1e-14)
        exact = 2.0 * 10.0 + 1.5 * 100.0 - (w[0] * g[0])
        assert got == pytest.approx(exact, rel=1e-12)

    def test_normalized_radial_norm_within_1e12(self):
        rg = RadialGrid(1024, 12.0)
        r = rg.nodes()
        u = normalize(RadialField(rg, np.exp(-r)))
        assert abs(u.norm() - 1.0) < 1e-12

    def test_normalize_rescales_a_radial_field(self):
        # the one normalize keeps the field's type; values are u/‖u‖, bit for bit
        rg = RadialGrid(257, 10.0)
        u = RadialField(rg, np.exp(-rg.nodes()) + 0.5)
        out = normalize(u)
        assert type(out) is RadialField and out.grid == rg
        np.testing.assert_array_equal(out.values, u.values / u.norm())

    def test_zero_radial_field_raises(self):
        rg = RadialGrid(64, 5.0)
        with pytest.raises(DegenerateFieldError):
            normalize(RadialField(rg, np.zeros(rg.m)))


class TestSnapshots:
    def test_field_roundtrip(self, tmp_path):
        g = Grid3D(16, 6.0)
        f = Field3D(g, np.random.default_rng(1).standard_normal(g.shape))
        p = tmp_path / "f.field"
        save_field(p, f)
        back = load_field(p)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)

    def test_radial_roundtrip(self, tmp_path):
        rg = RadialGrid(128, 9.0)
        u = RadialField(rg, np.exp(-rg.nodes()))
        p = tmp_path / "u.csv"
        save_radial(p, u)
        back = load_radial(p)
        assert back.grid.m == rg.m
        assert back.grid.r_max == pytest.approx(rg.r_max)
        np.testing.assert_allclose(back.values, u.values, rtol=0, atol=1e-16)

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @pytest.mark.parametrize(
        "body",
        ["", "0.0,1.0\n", "0.0,1.0,2.0\n1.0,1.0,2.0\n2.0,1.0,2.0\n3.0,1.0,2.0\n"],
        ids=["header_only", "one_row", "three_columns"],
    )
    def test_malformed_radial_rejected(self, tmp_path, body):
        p = tmp_path / "u.csv"
        p.write_text("r,value\n" + body)
        with pytest.raises(ValueError):
            load_radial(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "junk.field"
        p.write_bytes(b"not a snapshot\n1234")
        with pytest.raises(ValueError, match="not a field snapshot"):
            load_field(p)
