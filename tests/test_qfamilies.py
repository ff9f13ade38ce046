import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import helpers
from helpers import term_poly, truncate
import qstrange.exactpoly as exactpoly
import qstrange.qfamilies as qfamilies
from qstrange.exactpoly import WORD, IntPoly, pochhammer
from qstrange.qfamilies import (
    FamilySpec,
    InvalidParam,
    ParseError,
    parse_family,
    partial_sum,
    partial_sum_prefix,
    partial_sum_work,
)


BUILTINS = ["kz", "hikami:m=2,alpha=0", "hikami:m=2,alpha=1",
            "gk:k=1", "gk:k=2", "gk:k=3"]
INLINE = '{"kernel":"F","terms":[{"coeffs":["1"]},{"coeffs":["0","1"]}]}'


class TestParse:
    def test_kz(self):
        f = parse_family("kz")
        assert f.kernel == "F"
        assert f.label == "kz"

    def test_hikami(self):
        f = parse_family("hikami:m=2,alpha=1")
        assert f.kernel == "F"
        assert f.label == "hikami:m=2,alpha=1"
        assert parse_family("hikami: m = +2 , alpha=1") == f

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
        '{"kernel":"F","terms":[{"coeffs":["1_0"]}]}',
        # int() read these as k = 10, k = 2 and alpha = 1
        "gk:k=1_0", "gk:k=\u0662", "hikami:m=2,alpha=\u0661",
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

    def test_unknown_kind_is_refused(self):
        # the kind is read from the descriptor, so none but the four exists
        with pytest.raises(ParseError, match="descriptor 'bogus'"):
            FamilySpec("bogus")
        assert {parse_family(d).kind for d in BUILTINS + [INLINE]} == {
            "kz", "hikami", "gk", "inline"}

    def test_four_field_call_is_refused(self):
        # a spec built from fields could carry kz's label and gk's rule;
        # every memo is keyed on the label, so its sum was kz's after a kz
        # call and gk:k=3's when the memos were cold
        with pytest.raises(TypeError):
            FamilySpec("G", "kz", "gk", (3,))
        kz = partial_sum(parse_family("kz"), 3)
        assert partial_sum(FamilySpec("gk:k=3"), 3) != kz

    def test_equal_labels_have_equal_fields(self):
        descriptors = [
            *BUILTINS, " kz ", "gk: k = +03", "hikami:m=02, alpha = 0",
            INLINE, json.dumps(json.loads(INLINE), indent=2),
            '{"terms": [{"coeffs": ["+1"]}, {"coeffs": ["0", "1", "0"]}], '
            '"kernel": "F"}',
            '{"kernel": "G", "terms": [{"coeffs": ["1"]}, {"coeffs": ["0", "1"]}]}',
        ]
        specs = [parse_family(d) for d in descriptors]
        for f in specs:
            assert FamilySpec(f.label) == f
            for g in specs:
                same = (f.kernel, f.kind, f.params) == (g.kernel, g.kind, g.params)
                assert (f.label == g.label) == same == (f == g), (f, g)
                if same:
                    assert hash(f) == hash(g)
        assert len(set(specs)) == len(descriptors) - 5

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
            assert term_poly(f, n) == helpers.monomial(IntPoly, n)

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
        f = parse_family("gk:k=3")
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
        f = parse_family("gk:k=3")
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

    def test_concurrent_callers_with_different_uppers(self, clear_memos):
        # callers that ask one cold stream for different uppers: a caller
        # that finds the stream short must see how far it has got once it
        # holds the lock, since another may have drawn past its upper
        uppers = range(3, 17)
        f = parse_family("gk:k=3")
        want = [helpers.to_poly(helpers.gk_g_def(3, n)) for n in range(17)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                clear_memos()
                barrier = threading.Barrier(len(uppers))
                got = {}

                def call(upper):
                    barrier.wait(timeout=60)
                    got[upper] = f.coefficient_polys(upper)

                threads = [threading.Thread(target=call, args=(upper,))
                           for upper in uppers]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == {n: want[: n + 1] for n in uppers}
        finally:
            sys.setswitchinterval(old_interval)

    def test_interrupted_stream_starts_over(self, monkeypatch):
        # an exception inside a stream (say KeyboardInterrupt) finishes the
        # generator; later requests for the label must not meet a dead one,
        # nor a prefix drawn before it.  The ladder is interrupted once, as
        # it hands out packed weight 5, after weights 0..3 were drawn
        f = parse_family("gk:k=2")
        ladder, fired = qfamilies._ladder, []

        def interrupt_at_5(*args):
            for n, triple in enumerate(ladder(*args)):
                if n == 5 and not fired:
                    fired.append(n)
                    raise KeyboardInterrupt
                yield triple

        monkeypatch.setattr(qfamilies, "_ladder", interrupt_at_5)
        assert f.coefficient_polys(3)[3] == term_poly(f, 3)
        with pytest.raises(KeyboardInterrupt):
            f.coefficient_polys(8)
        want = [helpers.to_poly(helpers.gk_g_def(2, n)) for n in range(9)]
        assert fired and f.coefficient_polys(8) == want
        assert partial_sum(f, 8) == helpers.horner_def(f, want)

    def test_hikami_m1_equals_kz(self):
        f = parse_family("hikami:m=1,alpha=0")
        kz = parse_family("kz")
        for n in range(21):
            assert term_poly(f, n) == term_poly(kz, n)


class TestPartialSum:
    def test_kz_frozen(self):
        ps = partial_sum(parse_family("kz"), 2)
        assert ps == IntPoly((3, -2, -1, 1))

    def test_gk1_frozen(self):
        ps = partial_sum(parse_family("gk:k=1"), 1)
        assert ps == IntPoly((1, 1, -1))

    @pytest.mark.parametrize("label", BUILTINS)
    def test_upper_zero(self, label):
        f = parse_family(label)
        assert partial_sum(f, 0) == term_poly(f, 0)

    def test_thousands_of_ladder_levels(self):
        # a generator per level raised RecursionError here
        assert partial_sum(parse_family("gk:k=3000"), 0) == IntPoly.one()

    @pytest.mark.parametrize("label", BUILTINS)
    def test_increment_invariant(self, label):
        f = parse_family(label)
        top = 30 if label in ("kz", "gk:k=1") else 12
        prev = partial_sum(f, 0)
        for n in range(1, top + 1):
            cur = partial_sum(f, n)
            assert cur - prev == term_poly(f, n) * helpers.kernel_poly(f, n)
            prev = cur

    def test_gk1_matches_direct(self):
        f = parse_family("gk:k=1")
        acc = IntPoly()
        for n in range(21):
            acc = acc + helpers.monomial(IntPoly, n) * pochhammer(n, 2)
            assert partial_sum(f, n) == acc

    def test_cache_transparent(self):
        f = parse_family("hikami:m=2,alpha=0")
        big = partial_sum(f, 10)
        small = partial_sum(f, 7)
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
            assert helpers.valuation(
                term_poly(f, n) * helpers.kernel_poly(f, n)) >= n

    def test_concurrent_callers_agree(self):
        f = parse_family("gk:k=2")
        want = partial_sum(f, 14)
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda n: partial_sum(f, n), [14] * 16))
        assert all(g == want for g in got)

    def test_immutable(self):
        ps = partial_sum(parse_family("kz"), 1)
        with pytest.raises(AttributeError):
            ps.coeffs = ()

    def test_returns_the_memo_itself(self):
        # the value, with no record built around it per call
        f = parse_family("gk:k=2")
        ps = partial_sum(f, 9)
        assert type(ps) is IntPoly
        assert partial_sum(f, 9) is ps
        assert partial_sum(parse_family("gk:k=2"), 9) is ps


class TestWorkLimit:
    INLINE = parse_family(json.dumps(
        {"kernel": "G", "terms": [{"coeffs": [5, -7, 0, 3]}, {"coeffs": []},
                                  {"coeffs": [0, 0, 0, 0, 0, -40]}]}))

    @pytest.mark.parametrize("label", BUILTINS + [
        "hikami:m=3,alpha=1", "hikami:m=3,alpha=2", "inline"])
    def test_bounds_degree_and_coefficients(self, label):
        # N passes at least, each over the whole degree and coefficient size
        f = self.INLINE if label == "inline" else parse_family(label)
        for n in range(13):
            value = partial_sum(f, n)
            bits = max(abs(c).bit_length() for c in value.coeffs)
            assert partial_sum_work(f, n) >= \
                n * value.degree * (1 + bits // 64)

    # the partial_sum rows of the table of guard boundaries
    @pytest.mark.parametrize("label,deepest", [
        (arg, deepest) for guard, arg, deepest in helpers.BOUNDARIES
        if guard == "partial_sum"])
    def test_refused_past_the_deepest_accepted_n(self, label, deepest,
                                                 monkeypatch):
        helpers.check_boundary("partial_sum", label, deepest, monkeypatch)


class TestPrefix:
    @pytest.mark.parametrize("label,upper,cap", [
        ("kz", 20, 12), ("gk:k=1", 20, 15), ("gk:k=2", 14, 10),
        ("gk:k=3", 12, 16), ("hikami:m=2,alpha=0", 12, 9),
        ("hikami:m=2,alpha=1", 10, 11), ("hikami:m=3,alpha=1", 10, 8),
    ])
    def test_matches_exact(self, label, upper, cap):
        f = parse_family(label)
        assert partial_sum_prefix(f, upper, cap) == \
            truncate(partial_sum(f, upper), cap)

    def test_g_type_stabilizes_past_cap(self):
        # G-type terms beyond the cap cannot touch the prefix
        f = parse_family("gk:k=2")
        assert partial_sum_prefix(f, 40, 20) == partial_sum_prefix(f, 20, 20)


# an inline family whose terms sit at the edges of one and two slot words
INLINE_WIDE = parse_family(json.dumps({"kernel": "F", "terms": [
    {"coeffs": [str(2 ** 62 - 1), "-3"]},
    {"coeffs": ["0", str(-2 ** 62), "1", str(2 ** 63 - 1)]},
    {"coeffs": [str(2 ** 126 - 5), "0", str(-2 ** 127 + 1)]},
    {"coeffs": ["-1"]}]}))

# N on both sides of each width change of the packed stream.  The Horner
# sum first doubles its slots at N = 94 for kz, 63 for gk:k=1, 32 for
# gk:k=2, 25 for gk:k=3, 54 and 53 for hikami:m=2 (alpha 0 and 1) and 35
# for hikami:m=3,alpha=1, and again at 174, 138, 64 and 50 for the first
# four (gk:k=1 a third time at 269, left out to keep the test short).  Its
# bound first reaches the slot, where the sum is measured, at 62-63 for kz
# and gk:k=1, 31-32 for gk:k=2 and hikami:m=2 and 23-24 for hikami:m=3,
# and again at 126-127 for kz.  The ladder columns double at n = 40 for
# gk:k=3 and hikami:m=3,alpha=1 and at 62-63 for gk:k=2 and hikami:m=2,
# which the term polynomials cover.  The inline family needs two and four
# words.
PINNED_SUMS = {
    "kz": (0, 1, 2, 62, 63, 93, 94, 126, 127, 173, 174),
    "gk:k=1": (0, 1, 62, 63, 137, 138),
    "gk:k=2": (0, 1, 31, 32, 62, 63, 64),
    "gk:k=3": (24, 25, 39, 40, 41, 49, 50),
    "hikami:m=2,alpha=0": (31, 32, 53, 54, 63, 64),
    "hikami:m=2,alpha=1": (30, 31, 52, 53, 62, 63),
    "hikami:m=3,alpha=1": (23, 24, 34, 35, 39, 40, 41),
    INLINE_WIDE.label: (0, 1, 2, 3, 4, 40),
}

# SHA-256 of stream_digest per family, as the exact stream computed it on
# coefficient lists, before it was packed into ints
PINNED_STREAM_DIGESTS = {
    "kz": "467e13fd3b0da79324bbd21f2c691e90eafa696b592208e4f015cecbd8fdcd93",
    "gk:k=1":
        "24d5bbf03c36867ee88f11a56714aaeb6ca01e4cf47d5cff5a8cafccc691dc03",
    "gk:k=2":
        "336d9d44746de72375922bef59de5ac119f3b6f76fb6e667f7e7e8845336873c",
    "gk:k=3":
        "443c92b3c2f09584ce84745243b4bf798aabe9c5673484fa8a0a3fa1a4d852d5",
    "hikami:m=2,alpha=0":
        "3bbbd75c08b86920299117aa7f9991f6eb0994ff687439e5db118c666e7e8d88",
    "hikami:m=2,alpha=1":
        "4379b495cd7f00f2ad69a158f1e36d45e63cb4b63633eabbcc509b45bdf9c383",
    "hikami:m=3,alpha=1":
        "9e5c49bd9a6290f5d67ba79154211b418fbeed531036dcb28e7074d2f4efcdac",
    INLINE_WIDE.label:
        "b61026c750299efaa11ba0d0361865db675829531b3be58c2f7bd50883483870",
}


def stream_digest(label):
    """SHA-256 over term_poly n = 0..max N, then for each N of PINNED_SUMS
    the partial sum and its prefixes at caps N and 4N+3."""
    fam, digest = parse_family(label), hashlib.sha256()
    for n in range(max(PINNED_SUMS[label]) + 1):
        digest.update(f"term {n}: {term_poly(fam, n).coeffs}\n".encode())
    for N in PINNED_SUMS[label]:
        digest.update(f"sum {N}: {partial_sum(fam, N).coeffs}\n".encode())
        for cap in (N, 4 * N + 3):
            prefix = partial_sum_prefix(fam, N, cap)
            digest.update(f"prefix {N} {cap}: {prefix.coeffs}\n".encode())
    return digest.hexdigest()


class TestPackedStream:
    @pytest.mark.parametrize("label", sorted(PINNED_STREAM_DIGESTS))
    def test_pinned_digest(self, label):
        assert stream_digest(label) == PINNED_STREAM_DIGESTS[label]

    def test_measured_sum_keeps_its_slots(self):
        # one weight, 2**14 at n = 125, under the G kernel: the sum nearly
        # doubles at each factor and fills 127 bits of its two-word slots,
        # so a measured bound one bit low lets it overflow them
        fam = parse_family(json.dumps({"kernel": "G", "terms": []}))
        weights = [IntPoly()] * 125 + [IntPoly([2 ** 14])]
        got = qfamilies._horner(fam, list(map(qfamilies._packed, weights)))
        assert got == helpers.horner_def(fam, weights)

    def test_prefix_costs_follow_the_sum_not_the_cap(self):
        # a cap of 10**7 slots took 6.3 s and 355 MB, at each truncation
        fam = parse_family("kz")
        t0 = time.perf_counter()
        assert partial_sum_prefix(fam, 5, 10 ** 9) == partial_sum(fam, 5)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("call", [
        lambda fam: fam.coefficient_polys(0),
        lambda fam: partial_sum_prefix(fam, 0, 0),
    ], ids=["coefficient_polys", "partial_sum_prefix"])
    def test_huge_ladders_are_refused_before_they_run(self, call, monkeypatch):
        # each would build 10**8 ladder levels; gk:k=10**6 took 2.1 s and
        # 267 MB in partial_sum_prefix, and k = 3*10**6 7.7 s for one
        # coefficient polynomial
        def never(*args):
            raise AssertionError("the family's weights were built")

        monkeypatch.setattr(qfamilies, "_weights", never)
        t0 = time.perf_counter()
        with pytest.raises(InvalidParam, match="MAX_PARTIAL_SUM_WORK"):
            call(parse_family("gk:k=100000000"))
        assert time.perf_counter() - t0 < 1.0

    def test_family_sweep_keeps_a_bounded_number_of_streams(self):
        # gk:k for k = 2..25, each drawn to its deepest admitted N <= 40:
        # one stream holds up to 20 MB, and keeping all 24 peaked at 315 MB
        tracemalloc.start()
        try:
            for k in range(2, 26):
                fam = parse_family(f"gk:k={k}")
                term_poly(fam, min(40, helpers.deepest_admitted(
                    "MAX_PARTIAL_SUM_WORK", lambda n: partial_sum_work(fam, n))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2 ** 20

    def test_one_representation(self, monkeypatch):
        # from a cold stream, gk:k=3 at 50 goes through no list arithmetic
        # and packs nothing: the ladder starts from packed ones, and only
        # the sum is decoded; the ladder and the sum each widen their
        # slots O(log words) times
        def refuse(name):
            def fail(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return fail

        for name in ("mul_binomial", "_add_into"):
            monkeypatch.setattr(exactpoly, name, refuse(name))
        calls = {"_encode": 0, "_decode": 0}
        moves, fits = [], []

        def counted(name):
            real = getattr(qfamilies, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def respace(x, width, new):
            moves.append((width, new))
            return exactpoly._respace(x, width, new)

        def fitting(width, bound):
            fits.append(exactpoly._fitting(width, bound))
            return fits[-1]

        for name in calls:
            monkeypatch.setattr(qfamilies, name, counted(name))
        monkeypatch.setattr(qfamilies, "_respace", respace)
        monkeypatch.setattr(qfamilies, "_fitting", fitting)
        N = 50
        partial_sum(parse_family("gk:k=3"), N)
        # decoded: the sum, and the sum once more where its bound reaches
        # the slot, before each of its two doublings
        assert calls == {"_encode": 0, "_decode": 3}
        # the ladder and the sum outgrow one word, and each widens at most
        # log2(words) times; every move of slots (a widening, or a weight
        # packed narrower than the sum) goes to a wider width
        words = max(fits) // WORD
        assert fits and len(fits) <= 2 * math.log2(words)
        assert all(new > width for width, new in moves)
