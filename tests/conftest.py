import pytest

from qstrange.dissection import residue_set
from qstrange.fishburn import _xi_mod
from qstrange.partialtheta import _builtin_character


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty _xi_mod, residue_set and built-in
    character memos, so that a test asserting which road _xi_mod takes, or
    how often a character is validated, cannot be answered from an earlier
    test's run."""
    _xi_mod.cache_clear()
    residue_set.cache_clear()
    _builtin_character.cache_clear()
    yield
