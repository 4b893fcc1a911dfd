"""Shared test fixtures."""

import pytest


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
