import importlib
import pkgutil

import pytest

import qstrange


def _find_memos() -> dict:
    """Every functools.lru_cache memo in qstrange, by qualified name, found
    by walking the package's modules for objects with cache_clear and
    cache_info; a memo imported into another module is listed once."""
    memos = {}
    for info in pkgutil.iter_modules(qstrange.__path__, "qstrange."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return memos


# found once, so a test that monkeypatches a memo's name cannot hide it
MEMOS = _find_memos()


def _clear_memos() -> None:
    for memo in MEMOS.values():
        memo.cache_clear()


@pytest.fixture(scope="session")
def memos() -> dict:
    """Every memo in the package, by qualified name."""
    return MEMOS


@pytest.fixture(scope="session")
def clear_memos():
    """The function that empties every memo in the package; session-scoped,
    so property tests may call it between examples."""
    return _clear_memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with every memo empty, so that a test asserting
    which run _xi_mod reads, how often a character is validated or what a
    cold stream computes cannot be answered from an earlier test's run."""
    _clear_memos()
    yield
