import pytest

from oraclekit import properties


@pytest.fixture
def use_registry(monkeypatch):
    """``use_registry(table)`` makes ``table`` the ``properties.REGISTRY`` that
    ``run_suite`` reads, until the test ends or the next call."""

    def use(table):
        monkeypatch.setattr(properties, "REGISTRY", table)

    return use
