import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import helpers
from qstrange.exactpoly import IntPoly, pochhammer
from qstrange.qfamilies import (
    FamilySpec,
    InvalidParam,
    ParseError,
    kernel_poly,
    parse_family,
    partial_sum,
    partial_sum_prefix,
    term_poly,
)


BUILTINS = ["kz", "hikami:m=2,alpha=0", "hikami:m=2,alpha=1",
            "gk:k=1", "gk:k=2", "gk:k=3"]


class TestParse:
    def test_kz(self):
        f = parse_family("kz")
        assert f.kernel == "F"
        assert f.label == "kz"

    def test_hikami(self):
        f = parse_family("hikami:m=2,alpha=1")
        assert f.kernel == "F"
        assert f.label == "hikami:m=2,alpha=1"

    def test_gk(self):
        f = parse_family("gk:k=3")
        assert f.kernel == "G"

    @pytest.mark.parametrize("bad", [
        "hikami:m=2,alpha=5", "hikami:m=2,alpha=-1", "hikami:m=0,alpha=0",
        "gk:k=0", "gk:k=-2",
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(InvalidParam):
            parse_family(bad)

    @pytest.mark.parametrize("bad", [
        "bogus", "hikami:m=two,alpha=0", "hikami:m=2", "gk:", "gk:j=1",
        "kz:k=1", "{not json", '{"kernel":"F"}', '["kernel"]',
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_family(bad)

    def test_inline(self):
        desc = json.dumps({"kernel": "F", "terms": [
            {"coeffs": ["1"]}, {"coeffs": ["0", "1"]}]})
        f = parse_family(desc)
        assert f.kernel == "F"
        assert term_poly(f, 0) == IntPoly.one()
        assert term_poly(f, 1) == IntPoly((0, 1))
        assert term_poly(f, 2) == IntPoly()

    def test_inline_bad_kernel(self):
        with pytest.raises(InvalidParam):
            parse_family('{"kernel":"H","terms":[]}')

    def test_spec_equality_by_label(self):
        assert parse_family("kz") == parse_family("kz")
        assert parse_family("kz") != parse_family("gk:k=1")
        assert hash(parse_family("gk:k=2")) == hash(parse_family("gk:k=2"))
        assert FamilySpec("F", "x", "kz", ()) == FamilySpec("G", "x", "gk", (1,))

    def test_rule_fields(self):
        f = parse_family("hikami:m=2,alpha=1")
        assert (f.kernel, f.kind, f.params) == ("F", "hikami", (2, 1))

    def test_immutable(self):
        f = parse_family("kz")
        with pytest.raises(AttributeError):
            f.kernel = "G"


class TestTermPoly:
    def test_kz_constant(self):
        f = parse_family("kz")
        for n in (0, 3, 7):
            assert term_poly(f, n) == IntPoly.one()

    def test_gk1_is_qn(self):
        f = parse_family("gk:k=1")
        for n in range(8):
            assert term_poly(f, n) == IntPoly.monomial(n)

    def test_gk2_frozen(self):
        # g_1 = q(1 + q^4)
        f = parse_family("gk:k=2")
        assert term_poly(f, 1) == IntPoly((0, 1, 0, 0, 0, 1))

    def test_hikami_frozen(self):
        f0 = parse_family("hikami:m=2,alpha=0")
        assert term_poly(f0, 1) == IntPoly((1, 0, 1))
        f1 = parse_family("hikami:m=2,alpha=1")
        assert term_poly(f1, 1) == IntPoly((1, 1, 1, 0, 1))

    @pytest.mark.parametrize("m,alpha", [(1, 0), (2, 0), (2, 1),
                                         (3, 0), (3, 1), (3, 2),
                                         (4, 0), (4, 1), (4, 2), (4, 3)])
    def test_hikami_ladder_matches_enumeration(self, m, alpha):
        f = parse_family(f"hikami:m={m},alpha={alpha}")
        for n in range(7):
            want = helpers.to_poly(helpers.hikami_f_def(m, alpha, n))
            assert term_poly(f, n) == want, (m, alpha, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gk_ladder_matches_enumeration(self, k):
        f = parse_family(f"gk:k={k}")
        for n in range(7):
            want = helpers.to_poly(helpers.gk_g_def(k, n))
            assert term_poly(f, n) == want, (k, n)

    def test_descending_requests_on_a_new_label(self):
        # the first request fills the stream's prefix; smaller ones slice it
        f = FamilySpec("G", "gk:k=3 (descending requests)", "gk", (3,))
        want = [helpers.to_poly(helpers.gk_g_def(3, n)) for n in range(13)]
        for n in range(12, -1, -1):
            got = f.coefficient_polys(n)
            assert got == want[: n + 1], n
            got.clear()  # each call returns a new list
        assert f.coefficient_polys(12) == want

    def test_concurrent_callers_on_a_cold_stream(self):
        # a generator cannot be advanced from two threads at once; without
        # the lock these callers raised or got wrong prefixes
        workers = 8
        f = FamilySpec("G", "gk:k=3 (cold stream, concurrent)", "gk", (3,))
        want = [helpers.to_poly(helpers.gk_g_def(3, n)) for n in range(13)]
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def call(slot):
            barrier.wait(timeout=60)
            got[slot] = f.coefficient_polys(12)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert all(g == want for g in got)

    def test_interrupted_stream_starts_over(self, monkeypatch):
        # an exception inside a stream (say KeyboardInterrupt) finishes the
        # generator; later requests for the label must not meet a dead one
        f = FamilySpec("G", "gk:k=2 (interrupted stream)", "gk", (2,))
        shift = IntPoly.shift

        def interrupt_at_5(poly, exponent):
            if exponent == 5:
                raise KeyboardInterrupt
            return shift(poly, exponent)

        monkeypatch.setattr(IntPoly, "shift", interrupt_at_5)
        with pytest.raises(KeyboardInterrupt):
            f.coefficient_polys(8)
        monkeypatch.undo()
        want = [helpers.to_poly(helpers.gk_g_def(2, n)) for n in range(9)]
        assert f.coefficient_polys(8) == want

    def test_hikami_m1_equals_kz(self):
        f = parse_family("hikami:m=1,alpha=0")
        kz = parse_family("kz")
        for n in range(21):
            assert term_poly(f, n) == term_poly(kz, n)


class TestPartialSum:
    def test_kz_frozen(self):
        ps = partial_sum(parse_family("kz"), 2)
        assert ps.value == IntPoly((3, -2, -1, 1))
        assert ps.upper == 2

    def test_gk1_frozen(self):
        ps = partial_sum(parse_family("gk:k=1"), 1)
        assert ps.value == IntPoly((1, 1, -1))

    @pytest.mark.parametrize("label", BUILTINS)
    def test_upper_zero(self, label):
        f = parse_family(label)
        assert partial_sum(f, 0).value == term_poly(f, 0)

    @pytest.mark.parametrize("label", BUILTINS)
    def test_increment_invariant(self, label):
        f = parse_family(label)
        top = 30 if label in ("kz", "gk:k=1") else 12
        prev = partial_sum(f, 0).value
        for n in range(1, top + 1):
            cur = partial_sum(f, n).value
            assert cur - prev == term_poly(f, n) * kernel_poly(f, n)
            prev = cur

    def test_gk1_matches_direct(self):
        f = parse_family("gk:k=1")
        acc = IntPoly()
        for n in range(21):
            acc = acc + IntPoly.monomial(n) * pochhammer(n, 2)
            assert partial_sum(f, n).value == acc

    def test_cache_transparent(self):
        f = parse_family("hikami:m=2,alpha=0")
        big = partial_sum(f, 10).value
        small = partial_sum(f, 7).value
        direct = IntPoly()
        for n in range(8):
            direct = direct + term_poly(f, n) * pochhammer(n)
        assert small == direct
        assert big != small

    @pytest.mark.parametrize("label", ["gk:k=1", "gk:k=2", "gk:k=3"])
    def test_g_type_valuation(self, label):
        # term n contributes nothing below degree n: stabilization hook
        f = parse_family(label)
        for n in range(1, 16):
            assert (term_poly(f, n) * kernel_poly(f, n)).valuation() >= n

    def test_concurrent_callers_agree(self):
        f = parse_family("gk:k=2")
        want = partial_sum(f, 14).value
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda n: partial_sum(f, n).value, [14] * 16))
        assert all(g == want for g in got)

    def test_immutable(self):
        ps = partial_sum(parse_family("kz"), 1)
        with pytest.raises(AttributeError):
            ps.value = IntPoly()


class TestPrefix:
    @pytest.mark.parametrize("label,upper,cap", [
        ("kz", 20, 12), ("gk:k=1", 20, 15), ("gk:k=2", 14, 10),
        ("gk:k=3", 12, 16), ("hikami:m=2,alpha=0", 12, 9),
        ("hikami:m=2,alpha=1", 10, 11), ("hikami:m=3,alpha=1", 10, 8),
    ])
    def test_matches_exact(self, label, upper, cap):
        f = parse_family(label)
        assert partial_sum_prefix(f, upper, cap) == \
            partial_sum(f, upper).value.truncate(cap)

    def test_g_type_stabilizes_past_cap(self):
        # G-type terms beyond the cap cannot touch the prefix
        f = parse_family("gk:k=2")
        assert partial_sum_prefix(f, 40, 20) == partial_sum_prefix(f, 20, 20)
