"""Fixtures shared by the whole suite."""

import dataclasses

import pytest

from padiclab import qspecial, spectrum_zeta


@pytest.fixture(autouse=True)
def fresh_root_cache(monkeypatch):
    """An empty root cache per test, so that no test's work or result
    depends on the roots an earlier test certified."""
    monkeypatch.setattr(qspecial, "_ROOT_CACHE", qspecial._RootCache(qspecial.ROOT_CACHE_SIZE))


@pytest.fixture
def analytic_error(monkeypatch):
    """Negative control: the lowest row of every analytic spectrum table that
    ``validate_spectrum`` reads is raised by 1e-4 relative."""
    exact = spectrum_zeta.full_spectrum

    def perturbed(*args, **kwargs):
        table = exact(*args, **kwargs)
        low = table.rows[0]
        rows = (dataclasses.replace(low, value=low.value * (1.0 + 1e-4)), *table.rows[1:])
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(spectrum_zeta, "full_spectrum", perturbed)
