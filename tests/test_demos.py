"""Smoke tests for the narrative scripts in demos/."""

import glob
import importlib.util
import os

import numpy as np
import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


def _load(path):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(f"demos_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DEMOS,
                                                               "*.py"))),
                         ids=os.path.basename)
def test_demo_imports_and_has_main(path):
    # importing resolves every library name the script uses at import
    assert callable(_load(path).main)


def test_threshold_anatomy_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _load(os.path.join(DEMOS, "threshold_anatomy.py")).main()
    assert (tmp_path / "bracket_at_threshold.csv").exists()
    assert "critical charge d0" in capsys.readouterr().out


def test_symmetry_breaking_sweep_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _load(os.path.join(DEMOS, "symmetry_breaking_sweep.py")).main()
    rows = np.loadtxt(tmp_path / "symmetry_breaking_sweep.csv",
                      delimiter=",", skiprows=1)
    assert rows.shape == (5, 3)
    # the flattest profile is the one where splitting pays
    assert "yes" in capsys.readouterr().out.splitlines()[-3]
