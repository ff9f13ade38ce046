import pytest

from qstrange.fishburn import _xi_mod


@pytest.fixture(autouse=True)
def cold_xi_memo():
    """Start every test with an empty _xi_mod memo, so that a test asserting
    which road _xi_mod takes cannot be answered from an earlier test's run."""
    _xi_mod.cache_clear()
    yield
