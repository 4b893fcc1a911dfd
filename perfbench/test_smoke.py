"""Self-test of the benchmark at smoke sizes (radial n=512, cube n=16).

    python3 -m pytest perfbench/test_smoke.py

Runs each workload's traced smoke run twice and requires every counter
to repeat exactly, and shows that the reference checks reject a wrong
reference and a changed report.  Takes about two minutes on two cores.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

# per-layer metrics that count work; times are excluded
COUNTERS = (".calls", ".iterations", ".converged_ratio", ".points",
            ".computed_ops", ".computed_bytes", ".ops_per_byte",
            ".poisson_per_iteration", ".ratio_evals", ".bytes")


def smoke(workload, *extra, trace=1, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_counters_repeat_exactly(workload):
    a, b = smoke(workload), smoke(workload)
    assert a["correct"] and b["correct"]
    counters = [k for k in a["metrics"] if k.endswith(COUNTERS)]
    assert "field3d.poisson.calls" in counters and "fft.calls" in counters
    for key in counters:
        assert a["metrics"][key] == b["metrics"][key], key
    if workload == "radial-suite":
        assert a["metrics"]["field3d.poisson.calls"]["value"] == 0
        assert a["metrics"]["fft.calls"]["value"] == 0
    else:
        assert a["metrics"]["field3d.poisson.calls"]["value"] > 0


def test_wrong_reference_is_detected(tmp_path, monkeypatch, capsys):
    with open(bench.REFERENCE) as fh:
        refs = json.load(fh)
    wrong = copy.deepcopy(refs)
    for check in wrong["cube-refine/smoke"]["checks"]:
        if "max" in check:
            check["max"] *= 1e-3
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong))
    good = smoke("cube-refine", trace=0)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench, "REFERENCE", str(path))
    assert bench.main(["--workload", "cube-refine", "--seed", "5",
                       "--seconds", "1", "--trace", "0", "--smoke"]) == 0
    bad = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert good["correct"] and good["failed"] == 0
    assert not bad["correct"] and bad["failed"] > 0
    assert bad["attempted"] == good["attempted"]


def test_check_semantics():
    out = {"s/verdict/a": True, "s/verdict/b": False, "s/e": -10.0,
           "s/alpha": -10.0, "n/err": 1e-3}
    assert bench.check_one({"key": "s/verdict/a", "passed": True}, out)
    assert not bench.check_one({"key": "s/verdict/b", "passed": True}, out)
    # a verdict that failed in the reference may start passing
    assert bench.check_one({"key": "s/verdict/a", "passed": False}, out)
    assert bench.check_one({"key": "s/e", "value": -10.0 + 1e-6,
                            "rel_tol": 1e-6}, out)
    assert not bench.check_one({"key": "s/e", "value": -10.1,
                                "rel_tol": 1e-6}, out)
    upper = {"key": "s/alpha", "value": -9.0, "rel_tol": 1e-6,
             "side": "upper"}
    assert bench.check_one(upper, out)
    assert not bench.check_one(dict(upper, value=-11.0), out)
    assert not bench.check_one({"key": "n/err", "max": 5e-4}, out)
    assert not bench.check_one({"key": "missing", "max": 1.0}, out)
    assert bench.check_one({"key": "s/report_sha256", "sha256": "ab"},
                           dict(out, **{"s/report_sha256": "ab"}))
    assert not bench.check_one({"key": "s/report_sha256", "sha256": "ab"},
                               dict(out, **{"s/report_sha256": "cd"}))
    rep = {"mode": "run", "outcomes": out}
    checks = [{"key": "s/e", "value": -10.0, "rel_tol": 1e-6}]
    assert bench.run_checks([rep, rep], checks)[:2] == (2, 0)
    # a report hash that is not stored is compared with repetition 1
    a = {"mode": "run", "outcomes": dict(out, **{"v/report_sha256": "ab"})}
    b = {"mode": "trace", "outcomes": dict(out, **{"v/report_sha256": "cd"})}
    assert bench.run_checks([a, a, b], checks)[:2] == (5, 1)
    crashed = {"mode": "run", "error": "Traceback\nMemoryError"}
    assert bench.run_checks([rep, crashed], checks)[:2] == (2, 1)
