import json
import re
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pekar import cli
from pekar.cli import EXPERIMENTS, main
from pekar.config import ExperimentConfig
from pekar.fields import load_field

README = Path(__file__).resolve().parents[1] / "README.md"


def write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def solve_free_cfg(out):
    return {
        "radial_grid": {"m": 1024, "r_max": 20.0},
        "solver": {"max_iters": 200, "tolerance_residual": 1e-6},
        "experiment": {"name": "solve-free"},
        "output_dir": out,
    }


def solve_full_cfg(out):
    return {
        "grid": {"n": 32, "L": 20.0},
        "potential": {"kind": "annular", "R": 4.0},
        "solver": {
            "max_iters": 300,
            "tolerance_residual": 5e-5,
            "seed": {"kind": "translated_q", "R": 4.0},
        },
        "experiment": {"name": "solve-full"},
        "output_dir": out,
    }


def solve_radial_cfg(out):
    return {**solve_free_cfg(out), "potential": {"kind": "annular", "R": 4.0},
            "experiment": {"name": "solve-radial"}}


def sweep_cfg(out):
    return {
        "grid": {"n": 32, "L": 20.0},
        "radial_grid": {"m": 512, "r_max": 18.0},
        "solver": {"max_iters": 300, "tolerance_residual": 5e-5},
        "experiment": {"name": "sweep-R", "params": {"R_list": [4.0]}},
        "output_dir": out,
    }


def perturb_cfg(out):
    return {**solve_full_cfg(out), "experiment": {
        "name": "perturb",
        "params": {"z": {"kind": "constant", "value": 1.0}, "deltas": [0.02, 0.01]},
    }}


def orbit_cfg(out):
    # the orbit seeds every solve itself and takes no solver.seed
    data = {**solve_full_cfg(out), "experiment": {"name": "orbit"}}
    del data["solver"]["seed"]
    return data


def product_cfg(out):
    return {
        "grid": {"n": 32, "L": 16.0},
        "kgrid": {"n_k": 16, "k_max": 2.0},
        "experiment": {"name": "product-energy", "params": {"alpha": 2.0, "sigma": 1.0}},
        "output_dir": out,
    }


def assert_manifest_lists_the_files(out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
    return manifest


class TestValidate:
    def test_ok_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, solve_free_cfg(str(tmp_path / "out")))
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        assert "radial_grid" in out

    def test_R_below_2_exits_2(self, tmp_path, capsys):
        data = solve_full_cfg(str(tmp_path / "out"))
        data["potential"]["R"] = 1.5
        cfg = write_cfg(tmp_path, data)
        assert main(["validate", "--config", cfg]) == 2
        assert "R must exceed 2" in capsys.readouterr().err

    def test_box_too_small_exits_2(self, tmp_path, capsys):
        data = solve_full_cfg(str(tmp_path / "out"))
        data["grid"] = {"n": 32, "L": 9.0}
        cfg = write_cfg(tmp_path, data)
        assert main(["validate", "--config", cfg]) == 2
        assert "potential exits box" in capsys.readouterr().err

    def test_negative_tolerance_exits_2(self, tmp_path, capsys):
        data = solve_free_cfg(str(tmp_path / "out"))
        data["solver"]["tolerance_residual"] = -1.0
        cfg = write_cfg(tmp_path, data)
        assert main(["validate", "--config", cfg]) == 2
        assert "solver" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("make_cfg", [solve_full_cfg, perturb_cfg])
    def test_seed_translated_out_of_the_box_exits_2(self, tmp_path, capsys, make_cfg):
        # both seeds used to pass validate and raise in run: Q translated by
        # (R+2)/2 = 11 in a box of L/2 = 10, and Q translated by 5 along the cube
        # diagonal, which meets the well's box rule R+1 < L/2 but leaks past the box
        for seed in ({"R": 20.0}, {"R": 8.0, "direction": [1, 1, 1]}):
            data = make_cfg(str(tmp_path / "out"))
            data["solver"]["seed"].update(seed)
            cfg = write_cfg(tmp_path, data)
            for command in ("validate", "run"):
                assert main([command, "--config", cfg]) == 2
                assert "invalid: solver.seed.R: " in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, path",
        [
            # an empty δ list used to fail in run, after the base solve
            (lambda d: d["experiment"]["params"].update(deltas=[]), "experiment.params.deltas"),
            # a seed kind that exists only as the solver's seed_field argument
            (lambda d: d["solver"].update(seed={"kind": "custom", "field": [0.0]}), "solver.seed"),
            # numeric fields that are not numbers used to pass validate and fail in run
            (lambda d: d.update(potential={"kind": "constant", "value": "x"}), "potential: value"),
            (lambda d: d["experiment"]["params"]["z"].update(value="x"), "params.z: value"),
            # a seed width <= 0 used to pass validate and fail in run (or run as |sigma|)
            (
                lambda d: d["solver"].update(seed={"kind": "radial_gaussian", "sigma": 0}),
                "solver.seed: sigma",
            ),
            # grid sizes used to be coerced with int() and float()
            (lambda d: d.update(grid={"n": 32.9, "L": 40.0}), "grid.n"),
            (lambda d: d.update(grid={"n": 32, "L": True}), "grid.L"),
            (lambda d: d.update(radial_grid={"m": 1024, "r_max": "20"}), "radial_grid.r_max"),
            (lambda d: d.update(kgrid={"n_k": "8", "k_max": 2.0}), "kgrid.n_k"),
            # JSON reads NaN and Infinity; a true tolerance or max_iters used to pass
            (
                lambda d: d["solver"].update(tolerance_residual=float("nan")),
                "solver: tolerance_residual must be a finite real number, got nan",
            ),
            (
                lambda d: d["solver"].update(tolerance_residual=True),
                "solver: tolerance_residual must be a finite real number, got True",
            ),
            (
                lambda d: d["solver"].update(tolerance_energy=float("inf")),
                "solver: tolerance_energy must be a finite real number, got inf",
            ),
            (lambda d: d["solver"].update(max_iters=True), "solver: max_iters must be an integer"),
            # solver and solver.seed went through dict(), so a list of pairs was read as one
            (lambda d: d.update(solver=[]), "solver: must be an object"),
            (lambda d: d.update(solver=[["max_iters", 5]]), "solver: must be an object"),
            (
                lambda d: d["solver"].update(seed=[["kind", "radial_gaussian"]]),
                "solver.seed: must be an object",
            ),
        ],
    )
    def test_configs_that_cannot_run_exit_2(self, tmp_path, capsys, edit, path):
        data = solve_full_cfg(str(tmp_path / "out"))
        data["experiment"] = {"name": "perturb", "params": {"z": {"kind": "constant", "value": 1.0}}}
        edit(data)
        assert main(["validate", "--config", write_cfg(tmp_path, data)]) == 2
        assert path in capsys.readouterr().err


class TestReadme:
    def test_example_config_parses(self):
        text = README.read_text()
        example = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S).group(1)
        cfg = ExperimentConfig.from_dict(json.loads(example))
        assert cfg.experiment in EXPERIMENTS

    def test_experiments_list_matches_registry(self):
        listed = re.search(r"^Experiments:(.*?)\n\n", README.read_text(), re.S | re.M).group(1)
        assert re.findall(r"`([^`]+)`", listed) == list(EXPERIMENTS)

    def test_experiment_table_matches_registry(self):
        table = re.search(r"^\| experiment \| needs \| params \(default\) \|\n\|[-|]+\|\n(.*?)\n\n",
                          README.read_text(), re.S | re.M).group(1)
        rows = [[c.strip() for c in line.strip("|").split("|")] for line in table.splitlines()]
        assert [name for name, _, _ in rows] == list(EXPERIMENTS)
        for name, needs, params in rows:
            required, _, optional = needs.partition(";")
            assert tuple(re.findall(r"`(\w+)`", required)) == EXPERIMENTS[name].sections
            assert tuple(re.findall(r"`(\w+)`", optional)) == EXPERIMENTS[name].optional
            assert re.findall(r"`([A-Za-z_]\w*)`", params) == list(EXPERIMENTS[name].params)

    def test_run_synopsis_matches_the_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        parsed = set(re.findall(r"--\w+", capsys.readouterr().out)) - {"--help"}
        for doc in (README.read_text(), cli.__doc__):
            line = re.search(r"^\s*pekar run .*$", doc, re.M).group(0)
            assert set(re.findall(r"--\w+", line)) == parsed


class TestRunSolveFree:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, solve_free_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        free = json.loads((out / "free.json").read_text())
        assert free["converged"] and free["stop"] == "converged"
        assert free["e0"] < 0.0
        assert free["virial_defect"] < 1e-3
        assert free["strauss_margin"] >= 0.0
        manifest = assert_manifest_lists_the_files(out)
        assert manifest["config_hash"]
        assert (out / "q.csv").exists()

    def test_determinism_bit_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg1 = write_cfg(tmp_path, solve_free_cfg(str(out1)), "c1.json")
        cfg2 = write_cfg(tmp_path, solve_free_cfg(str(out2)), "c2.json")
        assert main(["run", "--config", cfg1]) == 0
        assert main(["run", "--config", cfg2]) == 0
        assert (out1 / "q.csv").read_bytes() == (out2 / "q.csv").read_bytes()
        f1 = json.loads((out1 / "free.json").read_text())
        f2 = json.loads((out2 / "free.json").read_text())
        assert f1 == f2


class TestRunSolveRadial:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, solve_radial_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        rad = json.loads((out / "radial.json").read_text())
        assert rad["converged"] and rad["stop"] == "converged"
        assert (out / "u_rad.csv").exists()
        assert_manifest_lists_the_files(out)


class TestRunSolveFull:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, solve_full_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        full = json.loads((out / "full.json").read_text())
        assert full["converged"] and full["stop"] == "converged"
        assert full["e_full"] < -0.5
        assert full["well_mass"] > 0.3
        psi = load_field(out / "psi.field")
        assert abs(psi.norm() - 1.0) < 1e-12
        assert (out / "density_profile.csv").exists()
        assert_manifest_lists_the_files(out)

    def test_strict_mode_exit_3_on_nonconvergence(self, tmp_path, capsys):
        out = tmp_path / "out"
        data = solve_full_cfg(str(out))
        data["solver"]["max_iters"] = 2
        data["solver"]["tolerance_residual"] = 1e-12
        cfg = write_cfg(tmp_path, data)
        assert main(["run", "--config", cfg, "--strict"]) == 3

    def test_out_override(self, tmp_path):
        other = tmp_path / "elsewhere"
        data = solve_full_cfg(str(tmp_path / "ignored"))
        assert main(["run", "--config", write_cfg(tmp_path, data), "--out", str(other)]) == 0
        assert (other / "full.json").exists()
        manifest = assert_manifest_lists_the_files(other)
        # the manifest keeps the file's config and hash
        assert manifest["config"] == data
        assert manifest["config_hash"] == ExperimentConfig.from_dict(data).config_hash()


    def test_one_translate_per_run(self, tmp_path, monkeypatch):
        # the seed check and the solve share one translate of Q; a seed R of
        # its own keeps an earlier run's seed out of the count
        pm = import_module("pekar.minimize")  # pekar.minimize is also the function
        calls = []
        translate = pm.translate_seed
        monkeypatch.setattr(pm, "translate_seed", lambda *a, **kw: calls.append(a) or translate(*a, **kw))
        data = solve_full_cfg(str(tmp_path / "out"))
        data["solver"]["max_iters"] = 0
        data["solver"]["seed"]["R"] = 4.25
        assert main(["run", "--config", write_cfg(tmp_path, data)]) == 0
        assert len(calls) == 1


class TestRunSweep:
    def test_sweep_rows_and_invariants(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, sweep_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        assert_manifest_lists_the_files(out)
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "R"
        header = lines[0].split(",")
        assert "basin" in header
        row = dict(zip(header, lines[1].split(",")))
        assert row["basin"] in ("translate", "radial")
        assert float(row["e_full"]) <= float(row["trial_bound"]) + 1e-6
        assert float(row["e_full"]) <= float(row["e_rad"]) + 5e-3 * abs(float(row["e_rad"]))


class TestRunPerturb:
    def test_derivative_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, perturb_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        assert_manifest_lists_the_files(out)
        lines = (out / "derivative.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        # unit perturbation: derivative -1, pairing 1, tiny defect
        assert float(row["pairing"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["richardson"]) == pytest.approx(-1.0, abs=1e-7)
        assert float(row["defect"]) < 1e-7


@pytest.mark.parametrize("make_cfg, energy_of", [
    (solve_full_cfg, lambda out: json.loads((out / "full.json").read_text())["e_full"]),
    (perturb_cfg, lambda out: float(
        (out / "derivative.csv").read_text().splitlines()[1].split(",")[1])),  # e_plus
])
def test_translated_q_solved_on_the_config_radial_grid(tmp_path, make_cfg, energy_of):
    # max_iters 0: each energy is that of the seed, the translate of Q
    energies = []
    for name, rgrid in (("default", None), ("coarse", {"m": 512, "r_max": 18.0})):
        data = make_cfg(str(tmp_path / name))
        data["solver"]["max_iters"] = 0
        if rgrid is not None:
            data["radial_grid"] = rgrid
        assert main(["run", "--config", write_cfg(tmp_path, data, f"{name}.json")]) == 0
        energies.append(energy_of(tmp_path / name))
    assert energies[0] != pytest.approx(energies[1], rel=1e-9, abs=0)


class TestRunOrbit:
    def test_orbit_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, orbit_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        assert_manifest_lists_the_files(out)
        lines = (out / "orbit.csv").read_text().strip().splitlines()
        assert lines[0] == "direction,energy,converged"
        assert [line.split(",")[0] for line in lines[1:]] == ["axis", "face", "diagonal"]
        assert all(line.endswith(",True") for line in lines[1:])
        summary = json.loads((out / "orbit_summary.json").read_text())
        assert summary["energy_spread"] < 1e-3

    def test_q_solved_on_the_config_radial_grid(self, tmp_path):
        # max_iters 0: each energy is that of the seed, the translate of Q
        energies = []
        for name, rgrid in (("default", None), ("coarse", {"m": 512, "r_max": 18.0})):
            data = orbit_cfg(str(tmp_path / name))
            data["solver"]["max_iters"] = 0
            if rgrid is not None:
                data["radial_grid"] = rgrid
            assert main(["run", "--config", write_cfg(tmp_path, data, f"{name}.json")]) == 0
            lines = (tmp_path / name / "orbit.csv").read_text().strip().splitlines()
            energies.append(float(dict(zip(lines[0].split(","), lines[1].split(",")))["energy"]))
        assert energies[0] != pytest.approx(energies[1], rel=1e-9, abs=0)

    @pytest.mark.parametrize("seed", [{"kind": "translated_q", "R": 4.0},
                                      {"kind": "radial_gaussian", "sigma": 2.0}])
    def test_solver_seed_rejected(self, tmp_path, capsys, seed):
        # the orbit seeds each solve with a translate of Q; a solver seed was never read
        data = orbit_cfg(str(tmp_path / "out"))
        data["solver"]["seed"] = seed
        cfg = write_cfg(tmp_path, data)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg]) == 2
            assert "invalid: solver.seed: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, err", [
        # the orbit solves three fixed directions; it has no seed count
        (lambda d: d["experiment"].update(params={"n_seeds": 2}),
         "invalid: experiment.params.n_seeds: takes only []"),
        # it measures the orbit of a lump in the annular well, nothing else
        (lambda d: d.update(potential={"kind": "constant", "value": 1.0}),
         "invalid: potential.kind: "),
    ])
    def test_config_the_orbit_cannot_run_exits_2(self, tmp_path, capsys, edit, err):
        data = orbit_cfg(str(tmp_path / "out"))
        edit(data)
        cfg = write_cfg(tmp_path, data)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg]) == 2
            assert err in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunProductEnergy:
    def test_product_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, product_cfg(str(out)))
        assert main(["run", "--config", cfg]) == 0
        assert_manifest_lists_the_files(out)
        prod = json.loads((out / "product.json").read_text())
        assert prod["min_product_energy"] >= prod["pekar_energy"] - 1e-12
        assert prod["square_completion_defect"] < 0.1


class TestFlagsAreConfigFields:
    # no config field and no flag has any of these names
    @pytest.mark.parametrize("key", ["workers", "seeed", "seed"])
    def test_unknown_field_exits_2(self, tmp_path, capsys, key):
        data = solve_full_cfg(str(tmp_path / "out"))
        cfg = write_cfg(tmp_path, {**data, key: 1})
        for command in ("validate", "run"):
            assert main([command, "--config", cfg]) == 2
            assert f"invalid: {key}: takes only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as exc:  # nor is there a flag for it
            main(["run", "--config", write_cfg(tmp_path, data), f"--{key}", "2"])
        assert exc.value.code == 2

    def test_strict_must_be_a_bool(self, tmp_path, capsys):
        data = solve_full_cfg(str(tmp_path / "out"))
        data["strict"] = "false"
        assert main(["run", "--config", write_cfg(tmp_path, data)]) == 2
        assert "strict" in capsys.readouterr().err


BUILDERS = [solve_free_cfg, solve_radial_cfg, solve_full_cfg, sweep_cfg, perturb_cfg, orbit_cfg,
            product_cfg]

# key path -> values, valid and not, that an edit may put there; "dir" stands
# for a directory under tmp_path, so that no run writes elsewhere
EDITS = {
    ("workers",): [1, 2, 0, -1, 1.5, "2", True],
    ("seed",): [0, 9, -1, "x", False],
    ("strict",): [True, False, "false", 0, None],
    ("output_dir",): ["dir", "", 3, None],
    ("solver", "max_iters"): [0, 5, -1, "5"],
    ("solver", "seed", "rng_seed"): [0, 4, -1, "x", True],
    ("grid", "n"): [16, 31, "32"],
    ("potential", "R"): [4.0, 1.5, 12.0, "4"],
}
FLAGS = {"--out": ["dir", ""], "--strict": [True]}
FIELDS = {"--out": "output_dir", "--strict": "strict"}


def _stub_run(cfg):
    return {}, [True]


def _under(tmp_path, value):
    return str(tmp_path / value) if value == "dir" else value


class TestValidateIffRun:
    # the registry patch and tmp_path are the same for every example
    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_config_passes_validate_iff_run_accepts_it(self, tmp_path, monkeypatch, data):
        for name, entry in EXPERIMENTS.items():
            monkeypatch.setitem(EXPERIMENTS, name, entry._replace(run=_stub_run))
        cfg = data.draw(st.sampled_from(BUILDERS))(str(tmp_path / "out"))
        for path in data.draw(st.lists(st.sampled_from(list(EDITS)), max_size=3, unique=True)):
            node = cfg
            for k in path[:-1]:
                node = node.setdefault(k, {})
            node[path[-1]] = _under(tmp_path, data.draw(st.sampled_from(EDITS[path])))
        flags = {f: data.draw(st.none() | st.sampled_from(v)) for f, v in FLAGS.items()}
        flags = {f: _under(tmp_path, v) for f, v in flags.items() if v is not None}
        argv = [a for f, v in flags.items() for a in ((f,) if f == "--strict" else (f, str(v)))]

        merged = {**cfg, **{FIELDS[f]: v for f, v in flags.items()}}
        validated = main(["validate", "--config", write_cfg(tmp_path, merged, "merged.json")])
        ran = main(["run", "--config", write_cfg(tmp_path, cfg), *argv])
        assert validated in (0, 2)
        assert ran == validated
