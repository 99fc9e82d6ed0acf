"""Fixtures shared by the test modules."""

import pytest

from graphica import gap


@pytest.fixture
def in_process(monkeypatch):
    """Keep fold training in this process, whatever its size, so that a
    test that patches ``gap`` sees its patch used by every fold."""
    monkeypatch.setattr(gap, "_POOL_MIN_WORK", float("inf"))
