"""Tests for config validation, report output, and the CLI front end."""

import importlib.util
import json
import os
import warnings

import pytest

import spvlab
import numpy as np
from scipy.interpolate import RegularGridInterpolator

import spvlab.field3d as f3d
from spvlab.cli import (GRID_SCALES, SCENARIOS, SCHEMA_VERSION, ConfigError,
                        ExperimentReport, Verdict, _trilinear_resample,
                        load_config, main, run)
from spvlab.models import ModelError
from spvlab.radial import DiscretizationError
from spvlab.solvers import SolverError

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config("verify-lemmas")
        assert cfg.scenario == "verify-lemmas"
        assert cfg.radial_n == GRID_SCALES["desk"]["radial_n"]
        assert cfg.cube_n == GRID_SCALES["desk"]["cube_n"]
        assert cfg.seed == 0
        assert cfg.profile is None and cfg.lam is None

    def test_fine_scale(self):
        cfg = load_config("verify-lemmas", grid_scale="fine")
        assert cfg.radial_n == 8192
        assert cfg.cube_n == 160

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            load_config("does-not-exist")

    def test_unknown_grid_scale(self):
        with pytest.raises(ConfigError):
            load_config("verify-lemmas", grid_scale="huge")

    def test_full_document(self, tmp_path):
        path = _write(tmp_path, {
            "schema": SCHEMA_VERSION,
            "scenario": "autonomous",
            "model": {"kind": "pure-power", "q": 2.5, "a_q": 1.0, "p": 2.5},
            "profile": {"kind": "rational", "rho0": 0.05, "rho_inf": 2.0,
                        "eps": 0.5},
            "lambda": 0.003,
            "radial_grid": {"r_max": 10.0, "n": 1024},
            "cube_grid": {"L": 10.0, "n": 64},
            "solver": {"tol_grad": 1e-4, "max_iter": 500},
            "seed": 7,
        })
        cfg = load_config("autonomous", config_path=path)
        assert cfg.lam == 0.003
        assert cfg.radial_r_max == 10.0
        assert cfg.radial_n == 1024
        assert cfg.seed == 7
        assert cfg.profile is not None

    def test_schema_mismatch(self, tmp_path):
        path = _write(tmp_path, {"schema": 99, "scenario": "autonomous"})
        with pytest.raises(ConfigError):
            load_config("autonomous", config_path=path)

    def test_scenario_mismatch(self, tmp_path):
        path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                                 "scenario": "multibump"})
        with pytest.raises(ConfigError):
            load_config("autonomous", config_path=path)

    @pytest.mark.parametrize("doc", [
        {"schema": SCHEMA_VERSION, "mystery": 1},
        {"schema": SCHEMA_VERSION, "model": {"kind": "pure-power",
                                             "color": "red"}},
        {"schema": SCHEMA_VERSION, "profile": {"kind": "constant",
                                               "value": 1.0, "hue": 2}},
        {"schema": SCHEMA_VERSION, "radial_grid": {"r_max": 12.0,
                                                   "spacing": 0.1}},
        {"schema": SCHEMA_VERSION, "cube_grid": {"n": 64, "shape": "box"}},
        {"schema": SCHEMA_VERSION, "solver": {"tol_grad": 1e-5,
                                              "momentum": 0.9}},
        {"schema": SCHEMA_VERSION, "options": {"R0": 3.5, "verbose": True}},
    ])
    def test_unknown_keys_rejected_everywhere(self, tmp_path, doc):
        path = _write(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config("verify-lemmas", config_path=path)

    def test_flag_overrides(self, tmp_path):
        path = _write(tmp_path, {"schema": SCHEMA_VERSION, "seed": 3,
                                 "out_dir": "somewhere"})
        cfg = load_config("verify-lemmas", config_path=path,
                          out_dir=str(tmp_path / "out"), seed=11)
        assert cfg.seed == 11
        assert cfg.out_dir == str(tmp_path / "out")

    def test_numeric_entries_are_converted(self, tmp_path):
        path = _write(tmp_path, {
            "schema": SCHEMA_VERSION,
            "solver": {"max_iter": 500.0, "tol_grad": 1, "tol_grad_abs": None},
            "options": {"n_fields": 12.0, "R0": 4, "eps_sweep": [0.1]},
        })
        cfg = load_config("verify-lemmas", config_path=path)
        assert cfg.solver == {"max_iter": 500, "tol_grad": 1.0}
        assert type(cfg.solver["max_iter"]) is int
        assert cfg.options == {"n_fields": 12, "R0": 4.0, "eps_sweep": [0.1]}
        assert type(cfg.options["R0"]) is float
        # the report echoes the document as written
        assert cfg.inputs_echo["solver"]["max_iter"] == 500.0
        assert cfg.inputs_echo["solver"]["tol_grad_abs"] is None

    def test_symmetry_breaking_gets_roomier_default_box(self):
        cfg = load_config("symmetry-breaking")
        assert cfg.radial_r_max == 18.0
        assert cfg.cube_L == 18.0
        assert load_config("autonomous").cube_L == 12.0


def _one_shot_resample(values, grid_from, grid_to):
    """The refine resample evaluated at all points at once."""
    ax_from = grid_from.axis()
    interp = RegularGridInterpolator((ax_from, ax_from, ax_from), values,
                                     bounds_error=False, fill_value=0.0)
    ax_to = grid_to.axis()
    X, Y, Z = np.meshgrid(ax_to, ax_to, ax_to, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    return interp(pts).reshape(grid_to.n, grid_to.n, grid_to.n)


@pytest.mark.parametrize("n_from, n_to", [(16, 48), (32, 64), (16, 30)])
def test_slab_resample_matches_one_shot(n_from, n_to):
    grid_from, grid_to = f3d.Grid3D(18.0, n_from), f3d.Grid3D(18.0, n_to)
    radius = grid_from.radius()
    values = (np.exp(-radius ** 2 / 8.0)
              + np.random.default_rng(n_to).random(radius.shape))
    out = _trilinear_resample(values, grid_from, grid_to)
    assert np.array_equal(out, _one_shot_resample(values, grid_from,
                                                  grid_to))


class TestReport:
    def test_json_is_deterministic_and_excludes_runtime(self):
        rep = ExperimentReport(
            scenario="verify-lemmas", inputs={"seed": 0},
            quantities={"d0": 0.9}, verdicts=[Verdict("check", True, "ok")],
            runtime_seconds=1.23, artifacts=["report.json"])
        text = rep.to_json()
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA_VERSION
        assert "runtime" not in text and "1.23" not in text
        rep2 = ExperimentReport(
            scenario="verify-lemmas", inputs={"seed": 0},
            quantities={"d0": 0.9}, verdicts=[Verdict("check", True, "ok")],
            runtime_seconds=9.99, artifacts=["report.json"])
        assert rep2.to_json() == text

    def test_all_passed(self):
        rep = ExperimentReport("x", {}, {}, [Verdict("a", True, ""),
                                            Verdict("b", False, "")],
                               0.0, [])
        assert not rep.all_passed


class TestRunAndMain:
    def test_verify_lemmas_run(self, tmp_path):
        cfg = load_config("verify-lemmas", out_dir=str(tmp_path / "out"))
        report = run(cfg)
        assert report.all_passed
        names = {v.name for v in report.verdicts}
        assert "threshold-bracket-double-root" in names
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "meta.json").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["runtime_seconds"] > 0.0
        doc = json.loads((out / "report.json").read_text())
        assert doc["scenario"] == "verify-lemmas"
        assert all(v["passed"] for v in doc["verdicts"])

    def test_reports_byte_identical_across_serial_runs(self, tmp_path):
        a = run(load_config("verify-lemmas", out_dir=str(tmp_path / "a"),
                            seed=5))
        b = run(load_config("verify-lemmas", out_dir=str(tmp_path / "b"),
                            seed=5))
        ja = (tmp_path / "a" / "report.json").read_bytes()
        jb = (tmp_path / "b" / "report.json").read_bytes()
        assert ja == jb
        assert a.to_json() == b.to_json()

    def test_main_exit_codes(self, tmp_path, capsys):
        code = main(["verify-lemmas", "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_main_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        code = main(["verify-lemmas", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("scenario, doc, key", [
        ("verify-lemmas", {"model": {"kind": "asymptotically-linear"}}, "a2"),
        ("verify-lemmas", {"model": {"kind": "table"}}, "csv"),
        ("verify-lemmas", {"profile": {"kind": "constant"}}, "value"),
        ("verify-lemmas", {"profile": {"kind": "rational", "rho0": 0.05}},
         "rho_inf"),
        ("verify-lemmas", {"model": 5}, "model"),
        ("verify-lemmas", {"radial_grid": 5}, "radial_grid"),
        ("verify-lemmas", {"solver": [1]}, "solver"),
        ("symmetry-breaking", {"options": {"eps_sweep": []}}, "eps_sweep"),
        ("multibump", {"options": {"bump_counts": 3}}, "bump_counts"),
        ("verify-lemmas", {"seed": [1]}, "seed"),
        ("verify-lemmas", {"radial_grid": {"n": [1]}}, "radial_grid.n"),
        ("verify-lemmas", {"options": {"n_fields": []}}, "options.n_fields"),
        ("verify-lemmas", {"solver": {"max_iter": "many"}}, "solver.max_iter"),
        ("verify-lemmas", {"cube_grid": {"n": True}}, "cube_grid.n"),
        ("verify-lemmas", {"lambda": {"value": 1.0}}, "lambda"),
        ("verify-lemmas", {"model": {"q": [2.5]}}, "model.q"),
        ("verify-lemmas", {"profile": {"kind": "constant", "value": "x"}},
         "profile.value"),
        ("symmetry-breaking", {"options": {"eps_sweep": [0.1, None]}},
         "options.eps_sweep"),
    ])
    def test_main_rejects_malformed_config(self, tmp_path, capsys, scenario,
                                           doc, key):
        path = _write(tmp_path, {"schema": SCHEMA_VERSION, **doc})
        code = main([scenario, "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and key in err["message"]

    def test_main_reports_failing_verdicts(self, tmp_path, monkeypatch,
                                            capsys):
        import spvlab.cli as cli

        def fake_run(cfg):
            return ExperimentReport(
                scenario=cfg.scenario, inputs={}, quantities={},
                verdicts=[Verdict("doomed-check", False, "nope")],
                runtime_seconds=0.0, artifacts=[])

        monkeypatch.setattr(cli, "run", fake_run)
        code = cli.main(["verify-lemmas", "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[FAIL] doomed-check" in capsys.readouterr().out

    def test_main_reports_memory_error(self, tmp_path, monkeypatch, capsys):
        import spvlab.cli as cli

        def fake_run(cfg):
            raise MemoryError("doubled grid (512^3, about 1.0 GiB per "
                              "array) does not fit in memory")

        monkeypatch.setattr(cli, "run", fake_run)
        code = cli.main(["symmetry-breaking", "--out", str(tmp_path / "out")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MemoryError",
            "message": "doubled grid (512^3, about 1.0 GiB per array) does "
                       "not fit in memory"}

    @pytest.mark.parametrize("exc, code", [
        (SolverError("descent diverged"), 4),
        (DiscretizationError("field contains non-finite values"), 5),
        (PermissionError(13, "Permission denied"), 6),
        (ModelError("Poisson source must be nonnegative"), 2),
    ])
    def test_main_exit_code_per_failure_class(self, tmp_path, monkeypatch,
                                              capsys, exc, code):
        import spvlab.cli as cli

        def fake_run(cfg):
            raise exc

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["ground-state", "--out", str(tmp_path / "o")]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": type(exc).__name__,
                                        "message": str(exc)}

    def test_main_lists_scenarios(self):
        for scenario in SCENARIOS:
            assert isinstance(scenario, str)
        with pytest.raises(SystemExit):
            main(["not-a-scenario"])


def test_no_warning_reaches_the_caller(tmp_path):
    # small grids run every scenario, symmetry-breaking included, in seconds
    path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                             "radial_grid": {"n": 512},
                             "cube_grid": {"n": 16},
                             "options": {"refine_n": 24}})
    for scenario in SCENARIOS:
        cfg = load_config(scenario, config_path=path,
                          out_dir=str(tmp_path / scenario))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(cfg)
        assert [str(w.message) for w in caught] == [], scenario


@pytest.mark.xfail(strict=True, reason=(
    "the finite-difference residual polish stalls at 1.012e-5 against the "
    "1e-5 saddle tolerance; ROADMAP item 5 (exact Hessian action)"))
def test_autonomous_saddle_converges_at_seed_1(tmp_path):
    report = run(load_config("autonomous", out_dir=str(tmp_path), seed=1))
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["positive-energy-saddle"].passed, \
        verdicts["positive-energy-saddle"].detail


def _perfbench_worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(PERFBENCH, "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("workload", ["radial-suite", "cube-descent"])
def test_smoke_reports_match_the_benchmark_reference(tmp_path, workload):
    # the seed-independent scenarios at the benchmark's smoke sizes must
    # reproduce the report bytes stored with the benchmark
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        checks = json.load(fh)[f"{workload}/smoke"]["checks"]
    stored = {c["key"]: c["sha256"] for c in checks if "sha256" in c}
    assert stored
    work = _perfbench_worker().WORKLOADS[workload](0, True)
    work.setup(str(tmp_path))
    work.run()
    outcomes = work.outcomes()
    assert {key: outcomes.get(key) for key in stored} == stored


def test_package_exports_resolve():
    assert len(spvlab.__all__) <= 12
    for name in spvlab.__all__:
        assert getattr(spvlab, name) is not None, name
