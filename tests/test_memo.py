"""The package's one memo mechanism, qstrange._memo: what it counts, what
it keeps under its byte budget, and what it returns."""

import gc
import tracemalloc

import pytest

from helpers import BOUNDARIES, memo_entries
from qstrange import _memo
from qstrange.dissection import residue_set
from qstrange.exactpoly import cyclotomic
from qstrange.fishburn import _xi_mod
from qstrange.partialtheta import (gamma_coeff, get_character, l_value,
                                   twisted_sequence)
from qstrange.qfamilies import parse_family, partial_sum
from qstrange.strangematch import match_expansion


def _held() -> int:
    return sum(memo.stats[3] for memo in _memo.MEMOS.values())


# one cold call per memo, on small inputs; each stores one or a few entries
SMALL = {
    "partial_sum kz": lambda: partial_sum(parse_family("kz"), 40),
    "partial_sum gk:k=2": lambda: partial_sum(parse_family("gk:k=2"), 25),
    "partial_sum gk:k=3": lambda: partial_sum(parse_family("gk:k=3"), 20),
    "partial_sum hikami": lambda: partial_sum(
        parse_family("hikami:m=2,alpha=1"), 30),
    "gamma": lambda: gamma_coeff(get_character("chi6"), 301, 1, 3),
    "lvalue": lambda: l_value(twisted_sequence(get_character("chi_kz"), 97, 1), 4),
    "match": lambda: match_expansion(parse_family("kz"),
                                     get_character("chi_kz"), 5, 1, 3),
    "residue_set": lambda: residue_set(get_character("chi6"), 997),
    "xi_mod": lambda: _xi_mod(parse_family("gk:k=2"), 120, 720720),
    "cyclotomic": lambda: cyclotomic(9991),
    "character": lambda: get_character("chi_hikami:m=40,alpha=3"),
}


@pytest.mark.parametrize("call", SMALL.values(), ids=SMALL)
def test_counted_bytes_track_tracemalloc(call, clear_memos):
    # the bytes the memos count for a cold call lie within a fixed factor
    # of what tracemalloc sees the call leave held: the sizer misses no
    # large part of an entry (the stream's ladder columns among them),
    # and overcounts only objects that entries share, such as small ints
    call()  # pays the one-time costs: imports, numpy, type caches
    clear_memos()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert 0.75 * growth <= _held() <= 6 * growth


def _deep_requests() -> list:
    """40 admitted requests with large entries: chi6 gamma at even k near
    33322, the deepest admitted by MAX_TWIST_PERIOD, and the partial sums
    of each built-in family at its deepest admitted N and below."""
    chi6 = get_character("chi6")
    out = [lambda: gamma_coeff(chi6, 33322, 1, 6)]
    out += [lambda k=k: gamma_coeff(chi6, k, 1, 0) for k in range(33310, 33333, 2)]
    for guard, label, deepest in BOUNDARIES:
        if guard == "partial_sum":
            fam = parse_family(label)
            # kz and gk:k=1 take 0.4-0.6 s a sum at their depths
            below = 1 if label in ("kz", "gk:k=1") else 5
            out += [lambda fam=fam, n=n: partial_sum(fam, n)
                    for n in range(deepest, deepest - below, -1)]
    return out


def test_deep_entries_stay_within_a_lowered_budget(monkeypatch):
    # a count of entries bounds nothing when one entry is large: three
    # chi6 gamma calls at k near 33322 kept 36, 56 and 68 MiB.  Under a
    # budget of 16 MiB the counted bytes stay within it after every deep
    # request, and are never 0 after one (a sizer that counted nothing
    # would keep every entry)
    requests = _deep_requests()
    assert len(requests) == 40
    monkeypatch.setattr(_memo, "BUDGET", 16 << 20)
    for request in requests:
        request()
        assert 0 < _held() <= _memo.BUDGET
    assert sum(memo.stats[2] for memo in _memo.MEMOS.values()) > 0


def test_a_value_over_the_budget_is_returned_not_kept(monkeypatch, clear_memos):
    fam = parse_family("gk:k=2")
    want = partial_sum(fam, 20)
    clear_memos()
    monkeypatch.setattr(_memo, "BUDGET", _memo.nbytes(want) - 1)
    assert partial_sum(fam, 20) == want
    assert memo_entries("qstrange.qfamilies._partial_sum_value") == {}
    assert _held() <= _memo.BUDGET


def test_typed_keys_keep_true_apart_from_one(memos):
    char = get_character("chi6")
    assert residue_set(char, True) == residue_set(char, 1)
    assert set(memo_entries("qstrange.dissection.residue_set")) == {
        (char, True, type(char), bool), (char, 1, type(char), int)}
    with pytest.raises(TypeError):
        residue_set(char, 1.0)


def test_counts_hits_and_misses(memos):
    memo = memos["qstrange.exactpoly.cyclotomic"]
    for k in (12, 12, 7, 12):
        cyclotomic(k)
    assert memo.stats[:2] == [2, 2]
    assert set(memo_entries("qstrange.exactpoly.cyclotomic")) == {(12,), (7,)}
