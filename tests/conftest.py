"""Fixtures shared by the whole suite."""

import pytest

from padiclab import qspecial


@pytest.fixture(autouse=True)
def fresh_root_cache(monkeypatch):
    """An empty root cache per test, so that no test's work or result
    depends on the roots an earlier test certified."""
    monkeypatch.setattr(qspecial, "_ROOT_CACHE", qspecial._RootCache(qspecial.ROOT_CACHE_SIZE))
