"""Tests for Sobolev descent, classification, and the saddle search."""

import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spvlab.field3d as f3d
import spvlab.radial as rad
import spvlab.solvers as slv
from spvlab.field3d import Field3D, Grid3D
from spvlab.landscape import tapered_ball_start
from spvlab.models import ChargeProfile, ModelError, NonlinearityModel
from spvlab.radial import RadialField, RadialGrid, h1_norm_sq
from spvlab.solvers import (ARMIJO_C, SolveOptions, SolverError, minimize,
                            mountain_pass, multistart_minimize,
                            radial_gaussian_starts, trace_to_csv)

# intermediate descent iterates legitimately brush the decay guard
pytestmark = pytest.mark.filterwarnings(
    "ignore:field has not decayed:RuntimeWarning")

# coupling in the negative-energy window of the pure power model; the
# charge level sqrt(lambda) sits well below the density threshold d0
LAM = 0.0031587563549145504


def _model():
    return NonlinearityModel.pure_power(2.5).with_constants(2.5)


def _grid():
    return RadialGrid(12.0, 2048)


def _rho():
    return ChargeProfile.constant(math.sqrt(LAM))


def _negative_start(grid):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "field has not decayed",
                                RuntimeWarning)
        return RadialField.gaussian(grid, 30.0, 1.2)


class TestMinimize:
    def test_finds_negative_minimizer(self):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        assert res.converged
        assert res.energy < 0.0
        assert res.gradient_norm < 1e-5 * math.sqrt(h1_norm_sq(res.field))
        assert res.classification == "minimizer"
        assert abs(res.nehari_residual) < 1e-3

    def test_collapses_to_zero_from_positive_energy(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            start = RadialField.gaussian(grid, 0.5, 1.0)
        res = minimize(start, _rho(), _model(),
                       SolveOptions(tol_grad=1e-6))
        assert res.classification == "zero"
        assert math.sqrt(h1_norm_sq(res.field)) < 1e-6

    def test_trace_is_monotone_decreasing(self):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        energies = [pt.energy for pt in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_deterministic(self):
        grid = _grid()
        opts = SolveOptions(tol_grad=1e-5)
        r1 = minimize(_negative_start(grid), _rho(), _model(), opts)
        r2 = minimize(_negative_start(grid), _rho(), _model(), opts)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.field.values, r2.field.values)

    def test_ball_constraint_confines_support(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            start = RadialField(
                grid, 13.0 * np.exp(-grid.r ** 2 / (2 * 1.65 ** 2))
                * np.clip((3.5 - grid.r) / 0.5, 0.0, 1.0))
        res = minimize(start, _rho(), _model(),
                       SolveOptions(tol_grad=1e-5), support_radius=3.5)
        assert res.converged
        assert res.energy < 0.0
        outside = grid.r > 3.5
        assert np.max(np.abs(res.field.values[outside])) == 0.0

    def test_ball_constraint_rejected_in_3d(self):
        grid = Grid3D(6.0, 16)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            u = Field3D(grid, np.zeros((16, 16, 16)))
        with pytest.raises(SolverError):
            minimize(u, _rho(), _model(), SolveOptions(max_iter=5),
                     support_radius=2.0)


def _count_fields(monkeypatch, field_type):
    """The fields of ``field_type`` built from here on, in order."""
    built = []
    post_init = field_type.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(field_type, "__post_init__", counted)
    return built


def _cube_start(grid):
    return 12.67 * np.exp(-grid.radius() ** 2 / (2.0 * 0.93 ** 2))


class TestFieldsBuiltBySearches:
    # the kernels solve Poisson on arrays, so a search builds one field
    # object, its result, whatever the number of solves

    def test_radial_minimize(self, monkeypatch):
        start = _negative_start(RadialGrid(12.0, 512))
        built = _count_fields(monkeypatch, RadialField)
        res = minimize(start, _rho(), _model(), SolveOptions(tol_grad=1e-5))
        assert res.classification == "minimizer"
        assert len(built) == 1 and built[0] is res.field

    def test_cube_minimize(self, monkeypatch):
        grid = Grid3D(6.0, 16)
        start = Field3D(grid, _cube_start(grid))
        built = _count_fields(monkeypatch, Field3D)
        res = minimize(start, _rho(), _model(), SolveOptions(tol_grad=1e-2))
        # classified, so the curvature probes ran too
        assert res.classification == "minimizer"
        assert len(built) == 1 and built[0] is res.field

    def test_radial_mountain_pass(self, monkeypatch):
        low = minimize(_negative_start(RadialGrid(12.0, 512)), _rho(),
                       _model(), SolveOptions(tol_grad_abs=1e-6))
        built = _count_fields(monkeypatch, RadialField)
        res = mountain_pass(low.field, _rho(), _model(),
                            SolveOptions(tol_grad_abs=1e-4))
        assert res.classification == "mountain-pass"
        assert len(built) == 1 and built[0] is res.field


_KERNELS = {
    "radial": lambda: rad.RadialDisc(RadialGrid(12.0, 512), _rho(), _model()),
    "ball": lambda: rad.BallDisc(RadialGrid(12.0, 512), _rho(), _model(),
                                 3.5),
    "cube": lambda: f3d.CubeDisc(Grid3D(6.0, 16), _rho(), _model()),
}


@pytest.mark.parametrize("kind", sorted(_KERNELS))
@pytest.mark.parametrize("bad, error, match", [
    (-1.0, ModelError, "nonnegative"),
    (math.nan, rad.DiscretizationError, "non-finite"),
    (math.inf, rad.DiscretizationError, "non-finite")])
def test_kernel_poisson_rejects_a_bad_source(kind, bad, error, match):
    ws = _KERNELS[kind]()
    source = np.zeros(ws.rho.shape)
    source.flat[7] = bad
    with pytest.raises(error, match=match):
        ws.poisson(source)


@pytest.mark.parametrize("name, value", [
    ("tol_grad", math.nan), ("tol_grad", math.inf), ("tol_grad", 0.0),
    ("tol_grad_abs", 0.0), ("tol_grad_abs", -1.0), ("tol_grad_abs", math.nan),
    ("tol_grad_abs", math.inf),
])
def test_options_need_finite_positive_tolerances(name, value):
    # zero would otherwise mean "stop at the cap" to a descent and
    # "unset" to the mountain-pass search
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        SolveOptions(**{name: value})


class TestMultistart:
    def test_returns_lowest_energy(self):
        grid = _grid()
        starts = [_negative_start(grid)] + radial_gaussian_starts(
            grid, 3, seed=0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            best, results = multistart_minimize(
                starts, _rho(), _model(), SolveOptions(tol_grad=1e-4))
        assert len(results) == len(starts)
        assert best.energy == min(r.energy for r in results)

    def test_start_family_deterministic(self):
        grid = _grid()
        a = radial_gaussian_starts(grid, 4, seed=3)
        b = radial_gaussian_starts(grid, 4, seed=3)
        for u, v in zip(a, b):
            assert np.array_equal(u.values, v.values)
        c = radial_gaussian_starts(grid, 4, seed=4)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_requires_starts(self):
        with pytest.raises(SolverError):
            multistart_minimize([], _rho(), _model())


def _cube_starts(count, n=12):
    """Gaussians of different heights and centres on a small cube."""
    grid = Grid3D(6.0, n)
    ax = grid.axis()
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    return [Field3D(grid, (10.0 + 2.0 * k) * np.exp(
        -((X - 0.3 * k) ** 2 + Y ** 2 + (Z + 0.2 * k) ** 2) / 1.5))
        for k in range(count)]


def _radial_starts(count):
    return radial_gaussian_starts(RadialGrid(12.0, 512), count, seed=0)


def _record_calls(monkeypatch, tmp_path, fail=None):
    """Wrap ``slv.minimize`` to record the process of each call.

    A list appended in a forked worker never reaches this process, so
    each call writes its pid to ``<seed>.pid`` under ``tmp_path``; the
    returned function reads them back as {seed: pid}.  ``fail`` maps a
    seed to (exception, delay): that call sleeps for the delay, then
    raises the exception.
    """
    original = slv.minimize

    def recorded(init, profile, model, opts, **kw):
        (tmp_path / f"{opts.seed}.pid").write_text(str(os.getpid()))
        if fail and opts.seed in fail:
            exc, delay = fail[opts.seed]
            time.sleep(delay)
            raise exc
        return original(init, profile, model, opts, **kw)

    monkeypatch.setattr(slv, "minimize", recorded)
    return lambda: {int(f.stem): int(f.read_text())
                    for f in tmp_path.glob("*.pid")}


def _count_forks(monkeypatch):
    """Wrap ``os.fork`` to record the number of threads at each fork."""
    threads = []
    fork = os.fork

    def counted():
        threads.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return threads


def _assert_reaped(pids):
    """Every one of these processes has exited and been waited for."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _running(pid):
    """The process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # the state follows the parenthesised command name
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConcurrentMultistart:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        """Fail, rather than hang, a call whose workers never answer."""
        def expired(signum, frame):
            raise TimeoutError("the test ran for more than 120 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def _check_matches_serial(self, monkeypatch, tmp_path, starts):
        opts = SolveOptions(tol_grad=1e-3, max_iter=15, seed=5)
        serial = [minimize(u, _rho(), _model(), SolveOptions(
            tol_grad=1e-3, max_iter=15, seed=5 + k))
            for k, u in enumerate(starts)]
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 1)
        best_serial, _ = multistart_minimize(starts, _rho(), _model(), opts)
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 2)
        seen = _record_calls(monkeypatch, tmp_path)
        forks = _count_forks(monkeypatch)
        best, results = multistart_minimize(starts, _rho(), _model(), opts)
        pids = seen()
        assert sorted(pids) == [5, 6, 7, 8]
        assert len(set(pids.values())) == 2
        assert os.getpid() not in pids.values()
        assert forks == [1, 1]
        _assert_reaped(set(pids.values()))
        assert len(results) == len(serial)
        for r, ref in zip(results, serial):
            assert np.array_equal(r.field.values, ref.field.values)
            assert r.energy == ref.energy
            assert r.gradient_norm == ref.gradient_norm
            assert r.nehari_residual == ref.nehari_residual
            assert r.iterations == ref.iterations
            assert r.classification == ref.classification
            assert r.converged == ref.converged
            assert r.trace == ref.trace
        assert np.array_equal(best.field.values, best_serial.field.values)

    def test_cube_results_match_serial_descents(self, monkeypatch, tmp_path):
        self._check_matches_serial(monkeypatch, tmp_path, _cube_starts(4))

    def test_radial_results_match_serial_descents(self, monkeypatch,
                                                  tmp_path):
        self._check_matches_serial(monkeypatch, tmp_path, _radial_starts(4))

    @pytest.mark.parametrize("cpus, built", [(1, 3), (2, 0)],
                             ids=["serial", "forked"])
    def test_no_symbol_outlives_the_call(self, monkeypatch, symbol_builds,
                                         cpus, built):
        # each descent's kernel holds its Coulomb symbol and frees it on
        # return; the forked call builds no kernel in this process.  The
        # results are kept, so none of them may hold a symbol either
        monkeypatch.setattr(slv, "_usable_cpus", lambda: cpus)
        best, results = multistart_minimize(
            _cube_starts(3), _rho(), _model(),
            SolveOptions(tol_grad=1e-3, max_iter=3))
        gc.collect()
        assert len(symbol_builds) == built
        assert [ref() is None for ref in symbol_builds] == [True] * built

    @pytest.mark.parametrize("fail, expected", [
        # start 2 fails first in time; start 1, the lower index, wins
        ({1: (SolverError("start 1"), 0.3), 2: (ValueError("start 2"), 0.0)},
         SolverError),
        ({0: (MemoryError("start 0"), 0.2), 3: (SolverError("start 3"), 0.0)},
         MemoryError),
    ], ids=["starts-1-and-2", "starts-0-and-3"])
    def test_lowest_failing_start_raises(self, monkeypatch, tmp_path, fail,
                                         expected):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 4)
        seen = _record_calls(monkeypatch, tmp_path, fail)
        k = min(fail)
        with pytest.raises(expected, match=f"start {k}"):
            multistart_minimize(_cube_starts(4), _rho(), _model(),
                                SolveOptions(max_iter=3))
        pids = seen()
        assert sorted(pids) == [0, 1, 2, 3]
        _assert_reaped(set(pids.values()))

    def test_no_start_is_handed_out_after_a_failure(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 2)
        seen = _record_calls(monkeypatch, tmp_path,
                             {0: (SolverError("start 0"), 0.0)})
        with pytest.raises(SolverError, match="start 0"):
            multistart_minimize(_radial_starts(4), _rho(), _model(),
                                SolveOptions(tol_grad=1e-3, max_iter=10))
        assert sorted(seen()) == [0, 1]

    def test_a_worker_that_dies_raises(self, monkeypatch, tmp_path):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 2)
        original = slv.minimize

        def dying(init, profile, model, opts, **kw):
            if opts.seed == 1:
                os._exit(3)
            return original(init, profile, model, opts, **kw)

        monkeypatch.setattr(slv, "minimize", dying)
        with pytest.raises(ChildProcessError,
                           match="start 1 .*exit code 3"):
            multistart_minimize(_radial_starts(3), _rho(), _model(),
                                SolveOptions(tol_grad=1e-3, max_iter=10))

    def test_an_interrupted_call_terminates_busy_workers(self, monkeypatch,
                                                         tmp_path):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 2)
        seen = _record_calls(monkeypatch, tmp_path, {
            0: (SolverError("start 0"), 60.0),
            1: (SolverError("start 1"), 60.0)})

        def interrupted(conns, timeout=None):
            while len(seen()) < 2:   # both workers have started a descent
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(slv.multiprocessing.connection, "wait",
                            interrupted)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            multistart_minimize(_radial_starts(2), _rho(), _model())
        assert time.monotonic() - t0 < 30.0
        _assert_reaped(set(seen().values()))

    def test_workers_die_with_a_terminated_caller(self):
        # the caller is a separate process whose workers sleep in place of
        # a descent; SIGTERM kills it without any cleanup of its own.  Each
        # worker writes its pid and newline in one write, which a pipe
        # keeps whole, so the two workers' lines cannot interleave
        script = (
            "import os, time\n"
            "import spvlab.solvers as slv\n"
            "from spvlab.models import ChargeProfile, NonlinearityModel\n"
            "from spvlab.radial import RadialGrid\n"
            "def sleeping(init, profile, model, opts, **kw):\n"
            "    os.write(1, f'{os.getpid()}\\n'.encode())\n"
            "    time.sleep(60)\n"
            "slv.minimize = sleeping\n"
            "slv._usable_cpus = lambda: 2\n"
            "starts = slv.radial_gaussian_starts(RadialGrid(12.0, 512), 2)\n"
            "slv.multistart_minimize(starts, ChargeProfile.constant(0.05),\n"
            "    NonlinearityModel.pure_power(2.5).with_constants(2.5))\n")
        src = os.path.dirname(os.path.dirname(slv.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        caller = subprocess.Popen([sys.executable, "-W", "ignore", "-c",
                                   script], stdout=subprocess.PIPE,
                                  text=True, env=env)
        pids = []
        try:
            pids = [int(caller.stdout.readline()) for _ in range(2)]
            caller.send_signal(signal.SIGTERM)
            caller.wait()
            deadline = time.monotonic() + 5.0
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_warnings_reach_the_caller_in_start_order(
            self, monkeypatch):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 2)
        original = slv.minimize

        def warning(init, profile, model, opts, **kw):
            time.sleep(0.2 if opts.seed == 0 else 0.0)
            warnings.warn(f"start {opts.seed}", UserWarning)
            return original(init, profile, model, opts, **kw)

        monkeypatch.setattr(slv, "minimize", warning)
        with pytest.warns(UserWarning) as rec:
            multistart_minimize(_radial_starts(3), _rho(), _model(),
                                SolveOptions(tol_grad=1e-3, max_iter=10))
        ours = [w for w in rec if w.category is UserWarning]
        assert [str(w.message) for w in ours] == ["start 0", "start 1",
                                                   "start 2"]
        assert {w.filename for w in ours} == {__file__}

    @pytest.mark.parametrize("kind, cpus", [("radial", 4), ("cube", 1)])
    def test_serial_on_the_calling_thread(self, monkeypatch, tmp_path, kind,
                                          cpus):
        # one usable CPU, or a platform without fork
        monkeypatch.setattr(slv, "_usable_cpus", lambda: cpus)
        if cpus > 1:
            monkeypatch.delattr(os, "fork")
        starts = _radial_starts(3) if kind == "radial" else _cube_starts(3)
        seen = _record_calls(monkeypatch, tmp_path)
        multistart_minimize(starts, _rho(), _model(),
                            SolveOptions(tol_grad=1e-3, max_iter=10))
        assert seen() == {k: os.getpid() for k in range(3)}

    def test_serial_while_another_thread_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(slv, "_usable_cpus", lambda: 4)
        seen = _record_calls(monkeypatch, tmp_path)
        forks = _count_forks(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            multistart_minimize(_radial_starts(3), _rho(), _model(),
                                SolveOptions(tol_grad=1e-3, max_iter=10))
        finally:
            release.set()
            other.join()
        assert seen() == {k: os.getpid() for k in range(3)}
        assert forks == []


class TestMountainPass:
    def test_finds_positive_saddle(self):
        grid = _grid()
        low = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-5))
        saddle = mountain_pass(low.field, _rho(), _model(),
                               SolveOptions(tol_grad=1e-6,
                                            tol_grad_abs=1e-4))
        assert saddle.converged
        assert saddle.energy > 0.0
        assert saddle.classification == "mountain-pass"

    def test_highest_node_energy_is_not_recomputed(self, count_calls,
                                                    monkeypatch):
        grid = RadialGrid(12.0, 512)
        low = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad_abs=1e-6))
        evals_F = count_calls(rad, "eval_F")
        projections = count_calls(rad.RadialDisc, "project")
        iterations = count_calls(rad.RadialDisc, "gradient")

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(slv, "_polish_residual", stop)
        with pytest.raises(Stop):
            # below the first re-spread of the path, at iteration 5
            mountain_pass(low.field, _rho(), _model(),
                          SolveOptions(tol_grad_abs=1e-5, max_iter=4))
        # J is evaluated once at the projected anchor and once at each
        # path node; after that, only at line-search trials, each of
        # which projects once
        assert len(iterations) >= 1
        trials = len(projections) - 1
        assert len(evals_F) - (1 + slv.PATH_NODES) == trials

    def test_rejects_positive_energy_endpoint(self):
        grid = _grid()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "field has not decayed",
                                    RuntimeWarning)
            start = RadialField.gaussian(grid, 0.5, 1.0)
        with pytest.raises(SolverError):
            mountain_pass(start, _rho(), _model())


class TestTraceIO:
    def test_trace_csv(self, tmp_path):
        grid = _grid()
        res = minimize(_negative_start(grid), _rho(), _model(),
                       SolveOptions(tol_grad=1e-4))
        path = tmp_path / "trace.csv"
        trace_to_csv(res, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(res.trace)
        assert_allclose(data[-1, 1], res.trace[-1].energy)


def _reference_polish(ws, u0, tol, max_iter):
    """The residual polish that evaluated J and ||G|| at every point."""
    u = u0.copy()
    J, phi = ws.energy(u)
    G, gn = ws.gradient(u, phi)
    t = 1.0
    for _ in range(max_iter):
        if gn <= tol or gn == 0.0:
            break
        scale = 1e-6 * (1.0 + math.sqrt(ws.h1_norm_sq(u))) / gn
        Jp, pp = ws.energy(u + scale * G)
        Gp, _ = ws.gradient(u + scale * G, pp)
        Jm, pm = ws.energy(u - scale * G)
        Gm, _ = ws.gradient(u - scale * G, pm)
        d = (Gp - Gm) / (2.0 * scale)
        dn2 = ws.h1_norm_sq(d)
        if dn2 <= 0.0:
            break
        phi0 = 0.5 * gn * gn
        accepted = False
        t = min(2.0 * t, 1e3)
        while t > 1e-18:
            cand = u - t * d
            Jc, pc = ws.energy(cand)
            Gc, gc = ws.gradient(cand, pc)
            if 0.5 * gc * gc <= phi0 - ARMIJO_C * t * dn2:
                u, G, gn, J, phi = cand, Gc, gc, Jc, pc
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    return u, gn, J, phi


def _saddle_polish_input():
    """The kernel, iterate and tolerance the saddle search hands to the
    polish, on the autonomous problem at radial n=512."""
    grid = RadialGrid(12.0, 512)
    low = minimize(_negative_start(grid), _rho(), _model(),
                   SolveOptions(tol_grad_abs=1e-6))
    seen = []

    def record(ws, u, tol):
        seen.append((ws, u.copy(), tol))
        return polish(ws, u, tol)

    polish = slv._polish_residual
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slv, "_polish_residual", record)
        mountain_pass(low.field, _rho(), _model(),
                      SolveOptions(tol_grad_abs=1e-5))
    (ws, u, tol), = seen
    return ws, u, tol, slv.POLISH_MAX_ITER


def _ball_polish_input():
    """The multibump ball start under the ball-constrained kernel."""
    grid = RadialGrid(12.0, 512)
    ws = rad.BallDisc(grid, _rho(), _model(), 3.5)
    u = ws.project(tapered_ball_start(grid, 3.5).values)
    return ws, u, 1e-6, 40


def _cube_polish_input():
    grid = Grid3D(6.0, 16)
    ws = f3d.CubeDisc(grid, _rho(), _model())
    return ws, ws.project(_cube_start(grid)), 1e-6, 20


# each input is a kernel, a start, a tolerance and an iteration cap
POLISH_INPUTS = pytest.mark.parametrize(
    "make_input", [_saddle_polish_input, _ball_polish_input,
                   _cube_polish_input], ids=["radial-saddle", "ball", "cube"])


class TestPolish:
    @POLISH_INPUTS
    def test_bit_identical_to_reference(self, make_input, monkeypatch):
        ws, u0, tol, max_iter = make_input()
        monkeypatch.setattr(slv, "POLISH_MAX_ITER", max_iter)
        u, gn, J, phi = slv._polish_residual(ws, u0, tol)
        u_ref, gn_ref, J_ref, phi_ref = _reference_polish(ws, u0, tol,
                                                          max_iter)
        assert not np.array_equal(u, u0)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(phi, phi_ref)
        assert gn == gn_ref
        assert J == J_ref

    @POLISH_INPUTS
    def test_evaluates_potentials_only(self, make_input, count_calls,
                                       monkeypatch):
        ws, u0, tol, max_iter = make_input()
        monkeypatch.setattr(slv, "POLISH_MAX_ITER", max_iter)
        kind = type(ws)
        # every difference step takes two H^1 norms (of the iterate, for
        # the step size, and of the descent direction) and the returned J
        # one more; every line-search trial takes one gradient with its
        # norm, and so does the starting point
        norms = count_calls(kind, "h1_norm_sq")
        gradients = count_calls(kind, "gradient")
        evals_F = count_calls(rad, "eval_F")
        if isinstance(ws, f3d.CubeDisc):
            solves = count_calls(f3d, "_poisson_doubled")
        else:
            solves = count_calls(rad, "poisson_radial")
        slv._polish_residual(ws, u0, tol)
        assert len(evals_F) == 1
        steps, odd = divmod(len(norms) - 1, 2)
        trials = len(gradients) - 1
        assert odd == 0 and steps >= 1 and trials >= steps
        assert len(solves) <= 1 + 2 * steps + trials
