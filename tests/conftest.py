"""Shared test fixtures."""

import multiprocessing

import pytest

from spvlab import landscape


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
def fresh_scan_cache():
    """Empty the threshold scan's cache before and after the test.

    Yields the cached scan, whose ``cache_info()`` a test can read.
    """
    landscape._scan_bounds.cache_clear()
    yield landscape._scan_bounds
    landscape._scan_bounds.cache_clear()
