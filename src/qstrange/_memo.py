"""The package's one memo mechanism: LRU entries under one byte budget.

memo(fn) memoizes fn on its positional arguments (typed=True keys on their
types too, so True is not 1); a Memo's get and put serve callers that build
entries themselves.  put sizes a value with nbytes and stores it; a stored
value does not change, but for qfamilies._stream's, which is put again each
time it grows.  Once the entries of all memos pass BUDGET, the least
recently used are evicted down to 3/4 of it, so that one sort of the
entries pays for many puts; a value over BUDGET is returned, not kept.  A
hit takes no lock; put takes LOCK.  MEMOS names every memo.
"""

import _thread
import sys
from functools import wraps
from itertools import chain, count

from qstrange._record import Record

BUDGET = 64 << 20  # bytes that the entries of all memos may hold
LOCK = _thread.RLock()
MEMOS = {}  # name -> Memo
_clock = count()  # stamps each entry's last use
_held = [0]  # bytes of every entry stored
_HOLDERS = (tuple, list, frozenset)


def nbytes(x) -> int:
    """getsizeof of x and all it holds through tuples, lists, frozensets and
    records' fields (an array's counts its buffer).  Items of one type that
    is none of those, or sequences of one type that hold ints alone, are
    summed in C."""
    if type(x) not in _HOLDERS:
        if not isinstance(x, Record):
            return sys.getsizeof(x)
        x = [getattr(x, name) for name in x._fields]
    size, kind = sys.getsizeof(x), type(next(iter(x), None))
    try:
        if kind in _HOLDERS:
            return (size + sum(map(kind.__sizeof__, x))
                    + sum(map(int.__sizeof__, chain.from_iterable(x))))
        if not issubclass(kind, Record):
            return size + sum(map(kind.__sizeof__, x))
    except TypeError:  # items of more than one type
        pass
    return size + sum(map(nbytes, x))


class Memo:
    """entries: key -> [value, bytes, last use]; stats: [hits, misses,
    evictions, bytes]."""

    def __init__(self, name: str):
        self.entries, self.stats = {}, [0, 0, 0, 0]
        MEMOS[name] = self

    def get(self, key: tuple):
        entry = self.entries.get(key)
        self.stats[entry is None] += 1
        if entry is not None:
            entry[2] = next(_clock)
            return entry[0]

    def put(self, key: tuple, value):
        size = nbytes(value)
        with LOCK:
            self._drop(key)
            if size <= BUDGET:
                self.entries[key] = [value, size, next(_clock)]
                self.stats[3] += size
                _held[0] += size
            if _held[0] > BUDGET:
                lru = sorted((entry[2], memo, old) for memo in MEMOS.values()
                             for old, entry in memo.entries.items())
                for _, memo, old in lru:
                    if _held[0] <= BUDGET * 3 // 4:
                        break
                    memo._drop(old)
                    memo.stats[2] += 1
        return value

    def _drop(self, key: tuple) -> None:
        """Remove key's entry, if any; the caller holds LOCK."""
        _, size, _ = self.entries.pop(key, (None, 0, 0))
        self.stats[3] -= size
        _held[0] -= size


def memo(fn=None, *, typed: bool = False):
    """fn memoized on its positional arguments, in a Memo named after it;
    fn never returns None."""
    if fn is None:
        return lambda fn: memo(fn, typed=typed)
    store = Memo(f"{fn.__module__}.{fn.__qualname__}")

    @wraps(fn)
    def memoized(*args):
        key = (*args, *map(type, args)) if typed else args
        value = store.get(key)
        return store.put(key, fn(*args)) if value is None else value
    return memoized


def clear() -> None:
    """Empty every memo and restart its counts."""
    with LOCK:
        for memo in MEMOS.values():
            memo.entries.clear()
            memo.stats[:] = 0, 0, 0, 0
        _held[0] = 0
