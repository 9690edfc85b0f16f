"""Fixtures shared by the test modules."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from aptkit import geometry


@pytest.fixture
def empty_table(monkeypatch):
    """Start the test on an empty cone table (``geometry._TABLE``), so that
    no memo hit hides the path a test spies on or patches; the session's
    table is put back afterwards, untouched by what the test stored.
    Returns a function that empties the test's table again."""
    monkeypatch.setattr(geometry, "_TABLE", OrderedDict())
    return lambda: geometry._TABLE.clear()
