"""Tests for config validation, report output, and the CLI front end."""

import importlib.util
import json
import math
import os
import re
import warnings

import pytest

import spvlab
import numpy as np
from scipy.interpolate import RegularGridInterpolator

import spvlab.field3d as f3d
import spvlab.radial as rad
from spvlab.cli import (GRID_SCALES, SCENARIOS, SCHEMA_VERSION, ConfigError,
                        ExperimentReport, Verdict, _trilinear_resample,
                        load_config, main, run)
from spvlab.models import ModelError
from spvlab.radial import DiscretizationError, RadialGrid
from spvlab.solvers import SolverError

pytestmark = pytest.mark.filterwarnings(
    "ignore:field has not decayed:RuntimeWarning")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _readme_block(language):
    """The one fenced block of ``language`` in the README."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    return blocks[0]


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config("verify-lemmas")
        assert cfg.scenario == "verify-lemmas"
        assert cfg.radial_grid.n == GRID_SCALES["desk"]["radial_n"]
        assert cfg.cube_grid.n == GRID_SCALES["desk"]["cube_n"]
        assert cfg.seed == 0
        assert cfg.profile is None and cfg.lam is None

    def test_fine_scale(self):
        cfg = load_config("verify-lemmas", grid_scale="fine")
        assert cfg.radial_grid.n == 8192
        assert cfg.cube_grid.n == 160

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            load_config("does-not-exist")

    def test_unknown_grid_scale(self):
        with pytest.raises(ConfigError):
            load_config("verify-lemmas", grid_scale="huge")

    def test_full_document(self, tmp_path):
        path = _write(tmp_path, {
            "schema": SCHEMA_VERSION,
            "scenario": "symmetry-breaking",
            "model": {"kind": "pure-power", "q": 2.5, "a_q": 1.0, "p": 2.5},
            "profile": {"kind": "rational", "rho0": 0.05, "rho_inf": 2.0,
                        "eps": 0.5},
            "lambda": 0.003,
            "radial_grid": {"r_max": 10.0, "n": 1024},
            "cube_grid": {"L": 10.0, "n": 64},
            "solver": {"tol_grad_abs": 1e-4, "max_iter": 500},
            "seed": 7,
        })
        cfg = load_config("symmetry-breaking", config_path=path)
        assert cfg.lam == 0.003
        assert cfg.radial_grid == RadialGrid(10.0, 1024)
        assert cfg.cube_grid == f3d.Grid3D(10.0, 64)
        assert cfg.refine_grid == f3d.Grid3D(10.0, 96)
        assert cfg.solver == {"tol_grad_abs": 1e-4, "max_iter": 500}
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
        {"schema": SCHEMA_VERSION, "scenario": "symmetry-breaking",
         "cube_grid": {"n": 64, "shape": "box"}},
        {"schema": SCHEMA_VERSION, "scenario": "symmetry-breaking",
         "solver": {"tol_grad_abs": 1e-5, "momentum": 0.9}},
        {"schema": SCHEMA_VERSION, "scenario": "multibump",
         "options": {"R0": 3.5, "verbose": True}},
        # no scenario reads a relative gradient tolerance
        {"schema": SCHEMA_VERSION, "scenario": "symmetry-breaking",
         "solver": {"tol_grad": 1e-6}},
    ])
    def test_unknown_keys_rejected_everywhere(self, tmp_path, doc):
        # each document is otherwise valid for its scenario
        path = _write(tmp_path, doc)
        with pytest.raises(ConfigError):
            load_config(doc.get("scenario", "verify-lemmas"),
                        config_path=path)

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
            "solver": {"max_iter": 500.0, "tol_grad_abs": 1, "n_starts": None},
            "options": {"refine_n": 12.0, "bump_offset": 4,
                        "eps_sweep": [0.1]},
        })
        cfg = load_config("symmetry-breaking", config_path=path)
        assert cfg.solver == {"max_iter": 500, "tol_grad_abs": 1.0}
        assert type(cfg.solver["max_iter"]) is int
        assert type(cfg.solver["tol_grad_abs"]) is float
        assert cfg.options == {"refine_n": 12, "bump_offset": 4.0,
                               "eps_sweep": [0.1]}
        assert type(cfg.options["refine_n"]) is int
        assert type(cfg.options["bump_offset"]) is float
        # the report echoes the document as written
        assert cfg.inputs_echo["solver"]["max_iter"] == 500.0
        assert cfg.inputs_echo["solver"]["n_starts"] is None

    def test_readme_example_loads(self, tmp_path):
        doc = json.loads(_readme_block("json"))
        cfg = load_config(doc["scenario"], config_path=_write(tmp_path, doc))
        assert cfg.scenario == doc["scenario"]

    def test_symmetry_breaking_gets_roomier_default_box(self):
        cfg = load_config("symmetry-breaking")
        assert cfg.radial_grid.r_max == 18.0
        assert cfg.cube_grid.L == 18.0
        assert load_config("autonomous").cube_grid.L == 12.0


# a valid value for each optional config entry
OPTIONAL_ENTRIES = {
    "lambda": 0.003, "cube_grid.L": 12.0, "cube_grid.n": 16,
    "solver.tol_grad_abs": 1e-5, "solver.max_iter": 100,
    "solver.n_starts": 2, "options.n_fields": 10, "options.R0": 3.5,
    "options.bump_counts": [1, 2], "options.bump_offset": 7.0,
    "options.refine_n": 24, "options.eps_sweep": [0.05],
}

# the optional entries each scenario body reads
READS = {
    "verify-lemmas": {"options.n_fields"},
    "autonomous": {"lambda", "solver.max_iter", "solver.n_starts"},
    "uniqueness-scan": {"lambda", "solver.n_starts"},
    "ground-state": {"lambda", "solver.max_iter", "solver.n_starts"},
    "multibump": {"lambda", "solver.max_iter", "options.R0",
                  "options.bump_counts"},
    "symmetry-breaking": {"lambda", "cube_grid.L", "cube_grid.n",
                          "solver.tol_grad_abs", "solver.max_iter",
                          "solver.n_starts", "options.bump_offset",
                          "options.refine_n", "options.eps_sweep"},
}

UNREAD = [(scenario, name) for scenario in SCENARIOS
          for name in OPTIONAL_ENTRIES if name not in READS[scenario]]


def _doc_setting(names):
    """A config document that sets each of the dotted entries ``names``."""
    doc = {"schema": SCHEMA_VERSION}
    for name in names:
        section, _, key = name.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = \
            OPTIONAL_ENTRIES[name]
    return doc


def test_every_unread_pair_is_listed():
    assert len(UNREAD) == 50


@pytest.mark.parametrize("scenario, name", UNREAD)
def test_entry_the_scenario_does_not_read_exits_2(tmp_path, capsys,
                                                  scenario, name):
    path = _write(tmp_path, _doc_setting([name]))
    assert main([scenario, "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert err["message"] == (f"scenario {scenario} does not read config "
                              f"entries: {name}")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_entry_the_scenario_reads_loads(tmp_path, scenario):
    path = _write(tmp_path, _doc_setting(sorted(READS[scenario])))
    cfg = load_config(scenario, config_path=path)
    resolved = {"lambda": cfg.lam, "cube_grid.L": cfg.cube_grid.L,
                "cube_grid.n": cfg.cube_grid.n,
                **{f"solver.{k}": v for k, v in cfg.solver.items()},
                **{f"options.{k}": v for k, v in cfg.options.items()}}
    for name in READS[scenario]:
        assert resolved[name] == OPTIONAL_ENTRIES[name], name


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
        ("autonomous", {"solver": {"max_iter": "many"}}, "solver.max_iter"),
        ("symmetry-breaking", {"cube_grid": {"n": True}}, "cube_grid.n"),
        ("autonomous", {"lambda": {"value": 1.0}}, "lambda"),
        ("verify-lemmas", {"model": {"q": [2.5]}}, "model.q"),
        ("verify-lemmas", {"profile": {"kind": "constant", "value": "x"}},
         "profile.value"),
        ("symmetry-breaking", {"options": {"eps_sweep": [0.1, None]}},
         "options.eps_sweep"),
        ("symmetry-breaking", {"solver": [1]}, "solver"),
        ("verify-lemmas", {"radial_grid": {"r_max": math.inf}},
         "radial_grid.r_max"),
        ("autonomous", {"lambda": math.nan}, "lambda"),
        ("symmetry-breaking", {"options": {"eps_sweep": [0.1, -math.inf]}},
         "options.eps_sweep"),
        ("verify-lemmas", {"radial_grid": {"n": 600.9}}, "radial_grid.n"),
        ("verify-lemmas", {"seed": 1.5}, "seed"),
        ("autonomous", {"solver": {"n_starts": 2.7}}, "solver.n_starts"),
        ("symmetry-breaking", {"cube_grid": {"n": math.inf}}, "cube_grid.n"),
        ("multibump", {"options": {"bump_counts": [1, 2.5]}},
         "options.bump_counts"),
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

    def test_main_rejects_one_column_table(self, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("0\n1\n2\n")
        path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                                 "model": {"kind": "table", "csv": str(csv)}})
        code = main(["verify-lemmas", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ModelError" and "got 1" in err["message"]

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


# a malformed entry for each check load_config makes: (id, the command
# line before --config, the entries, the exit code, the entry the error
# names)
EARLY_FAILURES = [
    ("odd-cube-n", "symmetry-breaking", {"cube_grid": {"n": 33}}, 5,
     "cube_grid"),
    ("odd-refine-n", "symmetry-breaking",
     {"cube_grid": {"n": 32}, "options": {"refine_n": 65}}, 5,
     "options.refine_n"),
    ("unsorted-eps-sweep", "symmetry-breaking",
     {"options": {"eps_sweep": [0.01, 0.05]}}, 2, "options.eps_sweep"),
    ("repeated-eps", "symmetry-breaking",
     {"options": {"eps_sweep": [0.05, 0.05, 0.01]}}, 2, "options.eps_sweep"),
    ("empty-eps-sweep", "symmetry-breaking", {"options": {"eps_sweep": []}},
     2, "options.eps_sweep"),
    ("zero-in-eps-sweep", "symmetry-breaking",
     {"options": {"eps_sweep": [0.05, 0.0]}}, 2, "options.eps_sweep"),
    ("empty-bump-counts", "multibump", {"options": {"bump_counts": []}}, 2,
     "options.bump_counts"),
    ("zero-in-bump-counts", "multibump",
     {"options": {"bump_counts": [1, 0]}}, 2, "options.bump_counts"),
    ("unordered-bump-counts", "multibump",
     {"options": {"bump_counts": [3, 1]}}, 2, "options.bump_counts"),
    ("repeated-bump-count", "multibump",
     {"options": {"bump_counts": [1, 2, 2]}}, 2, "options.bump_counts"),
    ("negative-seed", "autonomous", {"seed": -1}, 2, "seed"),
    ("negative-seed-flag", "autonomous --seed -1", {}, 2, "seed"),
    ("numeric-out-dir", "autonomous", {"out_dir": 5}, 2, "out_dir"),
    ("object-out-dir", "autonomous", {"out_dir": {"a": 1}}, 2, "out_dir"),
    ("numeric-model-kind", "autonomous", {"model": {"kind": 3}}, 2,
     "model.kind"),
    ("numeric-model-csv", "autonomous", {"model": {"kind": "table", "csv": 5}},
     2, "model.csv"),
    ("list-profile-kind", "autonomous",
     {"profile": {"kind": ["constant"], "value": 1.0}}, 2, "profile.kind"),
    ("zero-n-fields", "verify-lemmas", {"options": {"n_fields": 0}}, 2,
     "options.n_fields"),
    ("zero-n-starts", "uniqueness-scan", {"solver": {"n_starts": 0}}, 2,
     "solver.n_starts"),
    ("zero-max-iter", "autonomous", {"solver": {"max_iter": 0}}, 2,
     "solver.max_iter"),
    ("negative-lambda", "autonomous", {"lambda": -1}, 2, "lambda"),
    ("zero-R0", "multibump", {"options": {"R0": 0}}, 2, "options.R0"),
    ("overlapping-bumps", "multibump", {"options": {"R0": 4.5}}, 2,
     "options.R0"),
    ("R0-past-the-grid", "multibump",
     {"options": {"R0": 12, "bump_counts": [1]}}, 2, "options.R0"),
    ("R0-below-three-nodes", "multibump", {"options": {"R0": 0.01}}, 2,
     "options.R0"),
    ("zero-bump-offset", "symmetry-breaking",
     {"options": {"bump_offset": 0}}, 2, "options.bump_offset"),
    ("negative-bump-offset", "symmetry-breaking",
     {"options": {"bump_offset": -3}}, 2, "options.bump_offset"),
    # at L = 18 and n = 16 the two-bump taper ends at r1 = 13 - offset
    ("degenerate-bump-taper", "symmetry-breaking",
     {"cube_grid": {"n": 16}, "options": {"refine_n": 24, "bump_offset": 12}},
     2, "options.bump_offset"),
    ("bump-past-the-box", "symmetry-breaking",
     {"cube_grid": {"n": 16}, "options": {"refine_n": 24, "bump_offset": 13}},
     2, "options.bump_offset"),
    ("zero-tol-grad-abs", "symmetry-breaking",
     {"solver": {"tol_grad_abs": 0}}, 2, "solver.tol_grad_abs"),
    ("negative-tol-grad-abs", "symmetry-breaking",
     {"solver": {"tol_grad_abs": -1e-5}}, 2, "solver.tol_grad_abs"),
]


@pytest.mark.parametrize("command, doc, code, name",
                         [case[1:] for case in EARLY_FAILURES],
                         ids=[case[0] for case in EARLY_FAILURES])
def test_malformed_config_fails_before_any_solve(tmp_path, monkeypatch,
                                                 capsys, command, doc, code,
                                                 name):
    import spvlab.landscape as lsc
    import spvlab.solvers as slv

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, attr in ((slv, "minimize"), (slv, "multistart_minimize"),
                         (lsc, "estimate_lambda_bounds")):
        monkeypatch.setattr(module, attr, no_solve)
    path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                             "radial_grid": {"n": 512}, **doc})
    assert main([*command.split(), "--config", path,
                 "--out", str(tmp_path / "out")]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == ("ConfigError" if code == 2
                            else "DiscretizationError")
    assert name in err["message"]


class _StartsSeen(Exception):
    """Stops a scenario at its first radial multistart."""


def _radial_starts(tmp_path, monkeypatch, scenario, entries, stop=True):
    """The starts of each radial multistart the scenario runs, on a
    512-node radial grid and a 16-node cube."""
    import spvlab.solvers as slv
    seen = []
    multistart = slv.multistart_minimize

    def record(starts, *args, **kwargs):
        if isinstance(starts[0], rad.RadialField):
            seen.append(starts)
            if stop:
                raise _StartsSeen
        return multistart(starts, *args, **kwargs)

    monkeypatch.setattr(slv, "multistart_minimize", record)
    cube = {"cube_grid": {"n": 16}, "options": {"refine_n": 24}}
    path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                             "radial_grid": {"n": 512}, **entries,
                             **(cube if scenario == "symmetry-breaking"
                                else {})})
    cfg = load_config(scenario, config_path=path,
                      out_dir=str(tmp_path / "out"))
    if stop:
        with pytest.raises(_StartsSeen):
            run(cfg)
    else:
        run(cfg)
    return seen


@pytest.mark.parametrize("n_starts", [3, None])
@pytest.mark.parametrize("scenario, default", [
    ("autonomous", 8), ("uniqueness-scan", 20), ("ground-state", 8),
    ("symmetry-breaking", 6)])
def test_n_starts_counts_every_radial_start(tmp_path, monkeypatch,
                                            scenario, default, n_starts):
    # symmetry-breaking added n_starts random starts to its two fixed
    # ones, so its radial level ran from 5 at n_starts 3
    entries = {} if n_starts is None else {"solver": {"n_starts": n_starts}}
    seen = _radial_starts(tmp_path, monkeypatch, scenario, entries)
    assert len(seen[0]) == (n_starts or default)


def test_uniqueness_scan_runs_both_profiles_from_one_list(tmp_path,
                                                          monkeypatch):
    seen = _radial_starts(tmp_path, monkeypatch, "uniqueness-scan",
                          {"solver": {"n_starts": 2}}, stop=False)
    assert len(seen) == 2 and seen[0] is seen[1] and len(seen[0]) == 2


@pytest.mark.usefixtures("fresh_scan_cache")
def test_uniqueness_scan_runs_no_threshold_scan(tmp_path, monkeypatch):
    # the scenario reads only the closed-form derivative-threshold bound
    import spvlab.landscape as lsc
    calls = []
    self_energy = lsc.coulomb_self_energy

    def counted(u):
        calls.append(u)
        return self_energy(u)

    monkeypatch.setattr(lsc, "coulomb_self_energy", counted)
    path = _write(tmp_path, {"schema": SCHEMA_VERSION,
                             "radial_grid": {"n": 512},
                             "solver": {"n_starts": 2}})
    report = run(load_config("uniqueness-scan", config_path=path,
                             out_dir=str(tmp_path / "out")))
    assert report.all_passed
    assert calls == []


def test_no_warning_reaches_the_caller(tmp_path):
    # small grids run every scenario, symmetry-breaking included, in seconds
    small = {"schema": SCHEMA_VERSION, "radial_grid": {"n": 512}}
    cube = {"cube_grid": {"n": 16}, "options": {"refine_n": 24}}
    for scenario in SCENARIOS:
        path = _write(tmp_path, {**small, **(
            cube if scenario == "symmetry-breaking" else {})},
            name=f"{scenario}.json")
        cfg = load_config(scenario, config_path=path,
                          out_dir=str(tmp_path / scenario))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(cfg)
        assert [str(w.message) for w in caught] == [], scenario


@pytest.mark.xfail(strict=True, reason=(
    "the finite-difference residual polish stalls at 1.012e-5 against the "
    "1e-5 saddle tolerance; ROADMAP item 2 (exact Hessian action)"))
def test_autonomous_saddle_converges_at_seed_1(tmp_path):
    report = run(load_config("autonomous", out_dir=str(tmp_path), seed=1))
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["positive-energy-saddle"].passed, \
        verdicts["positive-energy-saddle"].detail


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["radial-suite", "cube-descent"])
def test_smoke_reports_match_the_benchmark_reference(tmp_path, workload):
    # the seed-independent scenarios at the benchmark's smoke sizes must
    # reproduce the report bytes stored with the benchmark
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        checks = json.load(fh)[f"{workload}/smoke"]["checks"]
    stored = {c["key"]: c["sha256"] for c in checks if "sha256" in c}
    assert stored
    work = _perfbench_module("worker").WORKLOADS[workload](0, True)
    work.setup(str(tmp_path))
    work.run()
    outcomes = work.outcomes()
    assert {key: outcomes.get(key) for key in stored} == stored
    if workload == "cube-descent":
        # splitting into two bumps pays at the flattest profile of the sweep
        with open(tmp_path / "symmetry-breaking" / "report.json") as fh:
            flattest = json.load(fh)["quantities"]["eps_sweep"][-1]
        assert flattest["two_bump_estimate"] < flattest["theta"]


def test_benchmark_tracer_wraps_and_restores_its_hooks():
    # the benchmark's traced runs see these names; a refactor that hides
    # one from the tracer loses that layer's spans
    import spvlab.cli as cli

    def hooks():
        named = ("energy_3d", "sobolev_gradient_3d", "h1_inner_3d",
                 "poisson_freespace")
        return {**{f"scenario {s}": cli._SCENARIO_BODIES[s]
                   for s in SCENARIOS},
                **{f"f3d.{n}": getattr(f3d, n) for n in named}}

    before = hooks()
    tracer = _perfbench_module("tracing").Tracer()
    tracer.install()
    try:
        for name, fn in hooks().items():
            assert fn is not before[name], name
            assert fn.__wrapped__ is before[name], name
    finally:
        tracer.uninstall()
    after = hooks()
    assert all(after[name] is fn for name, fn in before.items())


def test_readme_quick_start_runs():
    namespace = {}
    # the decay-guard RuntimeWarning is ignored module-wide
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        exec(_readme_block("python"), namespace)
    result = namespace["result"]
    assert round(result.energy, 2) == -2901.57
    assert result.classification == "minimizer"


def test_package_exports_resolve():
    assert len(spvlab.__all__) <= 12
    for name in spvlab.__all__:
        assert getattr(spvlab, name) is not None, name
