import json

import pytest
from hypothesis import given, settings, strategies as st

from pekar.cli import EXPERIMENTS
from pekar.config import ConfigError, ExperimentConfig
from pekar.fields import Grid3D
from pekar.spectral import SpectralOps


SECTIONS = {
    "grid": {"n": 32, "L": 20.0},
    "radial_grid": {"m": 512, "r_max": 18.0},
    "kgrid": {"n_k": 8, "k_max": 2.0},
    "potential": {"kind": "annular", "R": 4.0},
    "solver": {"max_iters": 50, "seed": {"kind": "translated_q", "R": 4.0}},
}


def make(name="solve-full", **over):
    """A config of experiment ``name`` with every section it reads, each of
    ``over`` in place of the top-level key of that name."""
    entry = EXPERIMENTS[name]
    base = {k: v for k, v in SECTIONS.items() if k in entry.sections + entry.optional}
    base.update({"experiment": {"name": name}, "output_dir": "out", **over})
    return base


class TestValidation:
    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_dict(make())
        assert cfg.experiment == "solve-full"
        assert cfg.grid.n == 32
        assert cfg.solver.seed.kind == "translated_q"

    def test_missing_experiment_named(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_dict({"grid": {"n": 32, "L": 20.0}})

    def test_R_must_exceed_2(self):
        with pytest.raises(ConfigError, match="R must exceed 2"):
            ExperimentConfig.from_dict(make(potential={"kind": "annular", "R": 1.5}))

    def test_potential_exits_box_named(self):
        with pytest.raises(ConfigError, match="potential exits box"):
            ExperimentConfig.from_dict(make(potential={"kind": "annular", "R": 9.5}))

    def test_negative_tolerance_named(self):
        with pytest.raises(ConfigError, match="solver"):
            ExperimentConfig.from_dict(make(solver={"tolerance_energy": -1e-9}))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict(make(experiment={"name": "solve-everything"}))

    def test_sweep_needs_R_list(self):
        with pytest.raises(ConfigError, match="R_list"):
            ExperimentConfig.from_dict(make(experiment={"name": "sweep-R", "params": {}}))

    def test_sweep_R_entries_validated(self):
        with pytest.raises(ConfigError, match=r"R_list\[1\].*R must exceed 2"):
            ExperimentConfig.from_dict(
                make(experiment={"name": "sweep-R", "params": {"R_list": [4.0, 1.0]}})
            )

    def test_perturb_needs_radial_z(self):
        with pytest.raises(ConfigError, match="radial"):
            ExperimentConfig.from_dict(
                make(experiment={"name": "perturb", "params": {"z": {"kind": "x1_squared"}}})
            )

    def test_missing_section_for_experiment(self):
        data = make("product-energy")
        del data["kgrid"]
        with pytest.raises(ConfigError, match="kgrid"):
            ExperimentConfig.from_dict(data)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(p)

    def test_undeclared_param_rejected(self):
        with pytest.raises(ConfigError, match=r"params\.sigmaa.*takes only"):
            ExperimentConfig.from_dict(
                make(experiment={"name": "product-energy", "params": {"sigmaa": 1.0}})
            )

    @pytest.mark.parametrize(
        "over, path",
        [
            ({"seeed": 9}, "seeed"),
            ({"experiment": {"name": "orbit", "parms": {}}}, "experiment.parms"),
            ({"grid": {"n": 32, "L": 20.0, "N": 64}}, "grid.N"),
            ({"radial_grid": {"m": 512, "r_max": 18.0, "dr": 0.1}}, "radial_grid.dr"),
            ({"kgrid": {"n_k": 8, "k_max": 2.0, "nk": 8}}, "kgrid.nk"),
            ({"potential": {"kind": "annular", "R": 4.0, "foo": 1}}, "potential.foo"),
            ({"solver": {"max_iters": 50, "foo": 1}}, "solver.foo"),
            ({"solver": {"seed": {"kind": "translated_q", "R": 4.0, "foo": 1}}}, "solver.seed.foo"),
            ({"experiment": {"name": "perturb", "params": {"z": {"kind": "constant", "foo": 1}}}},
             "experiment.params.z.foo"),
            # a field that the spec's kind does not read
            ({"potential": {"kind": "constant", "value": 1.0, "R": 4.0, "width": 3.0}},
             "potential.R"),
            ({"solver": {"seed": {"kind": "radial_gaussian", "R": 4.0, "direction": [0, 1, 0]}}},
             "solver.seed.R"),
            ({"solver": {"seed": {"kind": "translated_q", "R": 4.0, "sigma": 2.0}}},
             "solver.seed.sigma"),
            ({"experiment": {"name": "perturb", "params": {"z": {"kind": "x1_squared", "value": 1}}}},
             "experiment.params.z.value"),
        ],
    )
    def test_unknown_key_rejected(self, over, path):
        with pytest.raises(ConfigError, match=f"^{path}: takes only"):
            ExperimentConfig.from_dict(make(**over))

    def test_declared_defaults_filled_in(self):
        cfg = ExperimentConfig.from_dict(make("product-energy"))
        assert cfg.params == {"alpha": 1.0, "sigma": 1.0}

    @pytest.mark.parametrize(
        "name, section",
        [
            ("solve-free", "kgrid"),
            ("solve-free", "potential"),
            ("product-energy", "solver"),
            ("sweep-R", "potential"),  # the sweep builds its own well for each R
            ("solve-full", "kgrid"),
        ],
    )
    def test_section_the_experiment_does_not_read_rejected(self, name, section):
        experiment = {"name": name, "params": REQUIRED_PARAMS.get(name, {})}
        data = make(name, experiment=experiment, **{section: SECTIONS[section]})
        with pytest.raises(ConfigError, match=f"^{section}: experiment '{name}' does not read"):
            ExperimentConfig.from_dict(data)


# the params each experiment needs before any other param can be varied
REQUIRED_PARAMS = {"sweep-R": {"R_list": [4.0]}, "perturb": {"z": {"kind": "constant", "value": 1.0}}}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

# (experiment, key): every declared param of every experiment, then the
# solver, and workers and seed, keys that no config takes
SLOTS = [(name, p) for name, e in EXPERIMENTS.items() for p in e.params]
SLOTS += [("solve-full", "workers"), ("solve-full", "seed"), ("solve-full", "solver")]


def placed(name: str, key: str, value) -> dict:
    params = dict(REQUIRED_PARAMS.get(name, {}))
    data = make(name, experiment={"name": name, "params": params})
    if name == "orbit":  # the orbit takes no solver.seed
        data["solver"] = {"max_iters": 50}
    if key in ("workers", "seed", "solver"):
        data[key] = value
    else:
        params[key] = value
    return data


class TestMalformedValues:
    @pytest.mark.parametrize(
        "name, key, value, path",
        [
            # the orbit's seed count is gone: its old default is an undeclared param
            ("orbit", "n_seeds", 2, "experiment.params.n_seeds"),
            ("sweep-R", "R_list", [4.0, "x"], r"experiment.params.R_list\[1\]"),
            ("sweep-R", "R_list", 6, "experiment.params.R_list"),
            ("perturb", "deltas", "ab", "experiment.params.deltas"),
            ("solve-full", "workers", "two", "workers"),
            ("solve-full", "seed", "x", "seed"),
            ("solve-full", "solver", [], "solver"),
            ("solve-full", "solver", [["max_iters", 5]], "solver"),
        ],
    )
    def test_named_config_error(self, name, key, value, path):
        with pytest.raises(ConfigError, match=f"^{path}:"):
            ExperimentConfig.from_dict(placed(name, key, value))

    @settings(max_examples=400, deadline=None, database=None)
    @given(slot=st.sampled_from(SLOTS), value=JSON_VALUES)
    def test_any_json_value_parses_or_raises_config_error(self, slot, value):
        try:
            ExperimentConfig.from_dict(placed(*slot, value))
        except ConfigError:
            pass


class TestDerivedReport:
    def test_report_contains_spacings_and_memory(self):
        cfg = ExperimentConfig.from_dict(make())
        rep = cfg.derived_report()
        assert rep["grid"]["dx"] == pytest.approx(20.0 / 32)
        assert rep["grid"]["memory_estimate_bytes"] > 0
        assert rep["radial_grid"]["dr"] == pytest.approx(18.0 / 511)
        assert rep["potential"]["support_margin"] == pytest.approx(5.0)
        assert "rng_seed" not in rep

    def test_memory_estimate_counts_the_spectral_arrays(self):
        ops = SpectralOps(Grid3D(16, 8.0))
        cfg = ExperimentConfig.from_dict(
            {"grid": {"n": 16, "L": 8.0}, "kgrid": {"n_k": 8, "k_max": 2.0},
             "experiment": {"name": "product-energy"}}
        )
        assert cfg.derived_report()["kgrid"]["dk"] == pytest.approx(0.5)
        npad = ops.npad
        kept = ops.k2.nbytes + ops.wk.nbytes
        spectrum = 16 * npad**2 * (npad // 2 + 1)  # one complex padded half-spectrum
        assert cfg.derived_report()["grid"]["memory_estimate_bytes"] == kept + spectrum

    def test_hash_stable_under_key_order(self):
        a = ExperimentConfig.from_dict(make())
        data = json.loads(json.dumps(make()))
        reordered = dict(reversed(list(data.items())))
        b = ExperimentConfig.from_dict(reordered)
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.from_dict(make())
        b = ExperimentConfig.from_dict(make(output_dir="elsewhere"))
        assert a.config_hash() != b.config_hash()
