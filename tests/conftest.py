import pytest

import qstrange  # noqa: F401  (importing the package registers every memo)
from qstrange import _memo


@pytest.fixture(scope="session")
def memos() -> dict:
    """The helper's registry: every memo by qualified name; a memo's stats
    are its [hits, misses, evictions, bytes]."""
    return _memo.MEMOS


@pytest.fixture(scope="session")
def clear_memos():
    """The function that empties every memo in the package; session-scoped,
    so property tests may call it between examples."""
    return _memo.clear


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with every memo empty, so that a test asserting
    which run _xi_mod reads, how often a twisted sequence is built or what
    a cold stream computes cannot be answered from an earlier test's run."""
    _memo.clear()
    yield
