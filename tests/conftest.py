"""Shared test fixtures."""

import multiprocessing
import weakref

import pytest

from spvlab import field3d, landscape


# pyproject.toml turns an exception escaping a thread into a failure of
# the test that started it; this does the same for a child process that
# outlives its test
@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test after which a child process it started is alive."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    if alive:
        pytest.fail(f"child processes still running after the test: {alive}")


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls to a module attribute or a kernel method.

    ``count_calls(owner, name)`` replaces ``owner.name`` (a module
    function, or a method on a class) by a wrapper that counts its calls
    and calls through, and returns the list the wrapper appends to; its
    length is the count so far.  The original is restored after the test.
    """
    def wrap(owner, name):
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return wrap


@pytest.fixture
def symbol_builds(monkeypatch):
    """Record the Coulomb symbols this process builds.

    Replaces ``field3d._coulomb_kernel_hat`` by a wrapper that calls
    through and appends a weak reference to each symbol it returns; the
    list's length counts the builds, and a reference that is still alive
    marks a symbol that something still holds.
    """
    build = field3d._coulomb_kernel_hat
    built = []

    def recorded(grid):
        symbol = build(grid)
        built.append(weakref.ref(symbol))
        return symbol

    monkeypatch.setattr(field3d, "_coulomb_kernel_hat", recorded)
    return built


@pytest.fixture
def fresh_scan_cache():
    """Empty the threshold scan's cache before and after the test.

    Yields the cached scan, whose ``cache_info()`` a test can read.
    """
    landscape._scan_bounds.cache_clear()
    yield landscape._scan_bounds
    landscape._scan_bounds.cache_clear()
