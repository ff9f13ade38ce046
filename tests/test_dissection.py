import random

import pytest

from helpers import pochhammer_factorization, reassemble_def, residue_set_def
from qstrange.dissection import (
    MAX_DISSECT_MODULUS,
    DivisibilityFalsified,
    OddModulusRequired,
    dissect,
    residue_set,
    thresholds,
    verify_theorem,
)
from qstrange.exactpoly import IntPoly, NotDivisible, cyclotomic, exact_div, pochhammer
from qstrange.partialtheta import (Character, CharacterInvalid,
                                   IntegralityViolation, MeanValueNonzero,
                                   get_character)
from qstrange.qfamilies import InvalidParam, parse_family, partial_sum


def rand_poly(rng, max_deg=40):
    return IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, max_deg))))


class TestDissect:
    def test_frozen_example(self):
        p = IntPoly((3, -2, -1, 1))
        d = dissect(p, 2)
        assert d[0] == IntPoly((3, -1))
        assert d[1] == IntPoly((-2, 1))

    def test_s_one(self):
        p = IntPoly((5, 0, 2))
        d = dissect(p, 1)
        assert d == (p,)
        assert reassemble_def(d) == p

    def test_reassembly_random(self):
        rng = random.Random(771)
        for _ in range(60):
            p = rand_poly(rng)
            s = rng.randint(1, 12)
            assert reassemble_def(dissect(p, s)) == p

    def test_zero_poly(self):
        d = dissect(IntPoly(), 4)
        assert all(not part for part in d)

    def test_immutable(self):
        d = dissect(IntPoly((1,)), 2)
        with pytest.raises(TypeError):
            d[0] = IntPoly()

    @pytest.mark.parametrize("s", [1, 2, 5, 13])
    def test_returns_a_tuple_of_s_parts(self, s):
        p = partial_sum(parse_family("kz"), 6)
        d = dissect(p, s)
        assert type(d) is tuple and len(d) == s
        assert all(type(part) is IntPoly for part in d)
        assert partial_sum(parse_family("kz"), 6) is p  # p is left as it was


class TestThresholds:
    @pytest.mark.parametrize("N,s,k,lam,mu", [
        (8, 5, 1, 1, 2),
        (9, 5, 1, 2, 2),
        (9, 3, 2, 3, 1),
        (0, 1, 1, 1, 0),
        (30, 7, 1, 4, 4),
    ])
    def test_values(self, N, s, k, lam, mu):
        assert thresholds(N, s, k) == (lam, mu)

    def test_mu_is_floor_of_half_offset_ratio(self):
        from fractions import Fraction
        for N in range(0, 40):
            for s in (1, 3, 5, 7):
                for k in (1, 2, 3):
                    want = int(Fraction(N, s * (2 * k - 1)) + Fraction(1, 2))
                    assert thresholds(N, s, k)[1] == want


class TestResidueSet:
    def test_paper_sets(self):
        assert residue_set(get_character("chi6"), 5) == frozenset({0, 1, 3})
        assert residue_set(get_character("chi_hikami:m=2,alpha=0"), 3) == frozenset({0, 1})
        assert residue_set(get_character("chi_hikami:m=2,alpha=1"), 3) == frozenset({0, 2})

    def test_pentagonal(self):
        # (n^2-1)/24 over the support of chi_kz runs through the pentagonal numbers
        assert residue_set(get_character("chi_kz"), 5) == frozenset({0, 1, 2})

    def test_subset_of_range(self):
        for name in ("chi_kz", "chi6", "chi_gk:k=2"):
            char = get_character(name)
            for s in range(1, 9):
                assert residue_set(char, s) <= set(range(s))

    def test_refinement(self):
        # reducing S(ks) mod s recovers S(s)
        for name in ("chi_kz", "chi6", "chi_gk:k=3"):
            char = get_character(name)
            for s in (2, 3, 5):
                for k in (2, 3):
                    fine = residue_set(char, k * s)
                    assert {x % s for x in fine} == set(residue_set(char, s))

    def test_s_one(self):
        assert residue_set(get_character("chi6"), 1) == frozenset({0})


class TestMemos:
    """residue_set and the built-in characters are memoized; no result may
    depend on what an earlier call left in the memo."""

    CASES = [("chi_kz", 5), ("chi_kz", 7), ("chi6", 5), ("chi6", 3),
             ("chi_gk:k=2", 9), ("chi_gk:k=2", 5)]

    def test_residue_set_warm_equals_cold(self, clear_memos):
        cold = {}
        for name, s in self.CASES:
            clear_memos()
            cold[name, s] = residue_set(get_character(name), s)
            assert cold[name, s] == residue_set_def(get_character(name), s)
        for name, s in self.CASES + self.CASES[::-1]:
            assert residue_set(get_character(name), s) == cold[name, s]

    def test_verify_theorem_warm_equals_cold(self, clear_memos):
        fam, char = parse_family("gk:k=2"), get_character("chi_gk:k=2")
        cold = {}
        for s in (9, 5, 3):
            clear_memos()
            cold[s] = verify_theorem(fam, char, s, 12)
        for s in (3, 5, 9, 5):
            assert verify_theorem(fam, char, s, 12) == cold[s]

    def test_equal_character_under_another_label(self):
        builtin = get_character("chi_kz")
        twin = Character(1, 24, 1, 12, {1: "-1/2", 11: "-1/2", 5: "1/2", 7: "1/2"},
                         "my_kz")
        assert twin == builtin and twin.label != builtin.label
        for s in (5, 7):
            assert residue_set(twin, s) == residue_set(builtin, s)
            assert verify_theorem(parse_family("kz"), twin, s, 14) == \
                verify_theorem(parse_family("kz"), builtin, s, 14)

    def test_invalid_character_refused_on_every_call(self):
        residue_set(get_character("chi6"), 3)  # warms the memo
        verify_theorem(parse_family("kz"), get_character("chi_kz"), 3, 5)
        for _ in range(2):
            with pytest.raises(MeanValueNonzero):
                Character(0, 1, 0, 1, {0: 1})

    def test_bad_modulus_refused_on_every_call(self):
        char = get_character("chi_kz")
        residue_set(char, 5)
        for _ in range(2):
            with pytest.raises(TypeError):
                residue_set(char, 5.0)
            with pytest.raises(ValueError, match="positive"):
                residue_set(char, 0)

    def test_every_memo_is_found(self, memos):
        # the helper that empties the memos between tests finds them all
        assert sorted(memos) == [
            "qstrange.dissection.residue_set",
            "qstrange.exactpoly.cyclotomic",
            "qstrange.fishburn._xi_mod",
            "qstrange.partialtheta._builtin_character",
            "qstrange.partialtheta._twist_rows",
            "qstrange.qfamilies._partial_sum_value",
            "qstrange.qfamilies._stream",
            "qstrange.strangematch._series_moments",
        ]

    def test_every_memo_is_bounded(self, memos):
        # a memo without a bound keeps every entry that a sweep asks for
        assert [name for name, memo in memos.items()
                if memo.cache_info().maxsize is None] == []

    def test_residue_set_memo_is_bounded(self):
        # a memo without a bound kept every set of a sweep over s: 271 MB
        # at s = 1..4000, against 14 MB without the memo
        char, bound = get_character("chi6"), residue_set.cache_info().maxsize
        assert bound is not None
        for s in range(1, bound + 20):
            assert residue_set(char, s) == residue_set_def(char, s)
            assert residue_set.cache_info().currsize <= bound

    @pytest.mark.parametrize("name,key", [
        ("qstrange.qfamilies._partial_sum_value", lambda j: (parse_family(
            f'{{"kernel":"F","terms":[{{"coeffs":[{j}]}}]}}'), 0)),
        ("qstrange.partialtheta._twist_rows",
         lambda j: (Character(0, 1, 0, 2, {0: j, 1: -j}), 1)),
        ("qstrange.strangematch._series_moments",
         lambda j: (parse_family("kz"), 2, j, 1)),
        ("qstrange.fishburn._xi_mod", lambda j: (parse_family("gk:k=1"), 0, j + 1)),
        ("qstrange.exactpoly.cyclotomic", lambda j: (j,)),
    ])
    def test_large_entry_memos_are_bounded(self, memos, name, key):
        # one entry is a whole partial sum, set of twisted rows, set of
        # series moments, xi column or cyclotomic polynomial; 300 distinct
        # keys, each cheap to build, must not keep 300 entries
        memo, bound = memos[name], 256
        assert memo.cache_info().maxsize == bound
        for j in range(1, 301):
            memo(*key(j))
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound

    def test_get_character_before_and_after_cache_clear(self, clear_memos):
        names = ("chi_kz", "chi6", "chi_gk:k=3", "chi_hikami:m=2,alpha=1")
        warm = [get_character(name) for name in names]
        assert get_character(" chi6 ") is get_character("chi6")
        clear_memos()
        for name, before in zip(names, warm):
            after = get_character(name)
            assert after == before and after.label == before.label
            assert after.to_json_obj() == before.to_json_obj()


class TestPochhammerFactorization:
    def test_frozen(self):
        assert pochhammer_factorization(3, 1) == (-1, [3, 1, 1])
        assert pochhammer_factorization(2, 2) == (1, [2, 1])
        assert pochhammer_factorization(0, 1) == (1, [])
        assert pochhammer_factorization(0, 2) == (1, [])

    @pytest.mark.parametrize("step,top", [(1, 12), (2, 10)])
    def test_remultiplication(self, step, top):
        for n in range(top + 1):
            sign, exps = pochhammer_factorization(n, step)
            prod = IntPoly((sign,))
            for k, e in enumerate(exps, start=1):
                base = k if step == 1 else 2 * k - 1
                prod = prod * cyclotomic(base) ** e
            assert prod == pochhammer(n, step), (step, n)


# the worked s=5, N=8 dissection of gk:k=1, all five parts in closed form
def gk1_expected_parts():
    poch22 = pochhammer(2, 2)
    part0 = IntPoly((1, -1)) * IntPoly((1, 0, 0, 0, 1, -2, 1, -2, 2, -3, 1, -2, 1))
    part1 = IntPoly((1, 0, 0, 2, -1, 2, -3, 5, -5, 4, -5, 4, -2, 1, -1))
    part2 = (poch22 * IntPoly((1, 0, 1, -1, 2, -1, 2, 0, 1))).shift(2)
    part3 = IntPoly((-1, 0, 1, -2, 2, -5, 5, -4, 5, -4, 3, -2, 1)).shift(1)
    part4 = -(poch22 * IntPoly((1, -1, 1)) * IntPoly((1, 1, 1, 0, 1, 0, 1))).shift(1)
    return part0, part1, part2, part3, part4


class TestWorkedExamples:
    def test_gk1_s5_n8_parts(self):
        d = dissect(partial_sum(parse_family("gk:k=1"), 8), 5)
        assert d == gk1_expected_parts()

    def test_gk1_s5_n8_divisibility(self):
        d = dissect(partial_sum(parse_family("gk:k=1"), 8), 5)
        poch22 = pochhammer(2, 2)
        for i in (2, 4):
            exact_div(d[i], poch22)
        for i in (0, 1, 3):
            with pytest.raises(NotDivisible):
                exact_div(d[i], poch22)

    def test_hikami_alpha0_s3_n8(self):
        d = dissect(partial_sum(parse_family("hikami:m=2,alpha=0"), 8), 3)
        q3 = pochhammer(3)
        quo = exact_div(d[2], q3)
        inner = exact_div(quo, IntPoly((1, 1)) * IntPoly((1, 1, 1)))
        assert inner[0] == 1 and inner[1] == -1
        assert inner.degree == 26 and inner[26] == 1 and inner[25] == -1
        # the two parts the theorem does not claim
        with pytest.raises(NotDivisible):
            exact_div(d[0], q3)
        with pytest.raises(NotDivisible):
            exact_div(d[1], q3)
        cof = exact_div(d[0], IntPoly((1, -1, 1)))
        assert cof[0] == 9 and cof[1] == 9
        assert cof.degree == 34 and cof[34] == 1 and cof[33] == 1
        assert d[1][0] == -8 and d[1][1] == -7
        assert d[1].degree == 35
        assert d[1][35] == -1 and d[1][34] == 1

    def test_hikami_alpha1_s3_n8(self):
        d = dissect(partial_sum(parse_family("hikami:m=2,alpha=1"), 8), 3)
        q3 = pochhammer(3)
        quo = exact_div(d[1], q3)
        inner = exact_div(
            quo, IntPoly((1, 1)) * IntPoly((1, -1, 1)) * IntPoly((1, 1, 1)))
        assert inner[0] == 1 and inner[1] == 2
        assert inner.degree == 27 and inner[27] == 1 and inner[26] == -1
        with pytest.raises(NotDivisible):
            exact_div(d[0], q3)
        with pytest.raises(NotDivisible):
            exact_div(d[2], q3)
        assert d[0][0] == 9 and d[0][1] == -7
        assert d[0].degree == 39 and d[0][39] == 1 and d[0][36] == 2
        p2 = d[2]
        assert p2[0] == -7 and p2[1] == 0 and p2[2] == 0 and p2[3] == 3
        assert p2.degree == 38 and p2[38] == -1 and p2[36] == 1


class TestVerifyTheorem:
    def test_gk1_report(self):
        rep = verify_theorem(parse_family("gk:k=1"), get_character("chi6"), 5, 8)
        assert rep.residues == frozenset({0, 1, 3})
        verdicts = {row.i: row.verdict for row in rep.rows}
        assert verdicts == {0: "not-claimed", 1: "not-claimed", 2: "divides",
                            3: "not-claimed", 4: "divides"}
        assert all(row.divisor_name == "(q;q2)_2" for row in rep.rows)
        row2 = rep.rows[2]
        assert row2.quotient == IntPoly((1, 0, 1, -1, 2, -1, 2, 0, 1)).shift(2)

    def test_kz_report(self):
        rep = verify_theorem(parse_family("kz"), get_character("chi_kz"), 5, 9)
        for i in (3, 4):
            assert rep.rows[i].verdict == "divides"
            assert rep.rows[i].divisor_name == "(q;q)_2"

    def test_hikami_report(self):
        rep = verify_theorem(parse_family("hikami:m=2,alpha=0"),
                             get_character("chi_hikami:m=2,alpha=0"), 3, 8)
        assert rep.rows[2].verdict == "divides"
        assert rep.rows[2].divisor_name == "(q;q)_3"

    def test_even_s_rejected_for_g(self):
        with pytest.raises(OddModulusRequired):
            verify_theorem(parse_family("gk:k=1"), get_character("chi6"), 4, 8)

    def test_bad_character(self):
        with pytest.raises(CharacterInvalid):
            verify_theorem(parse_family("kz"), Character(0, 1, 0, 1, {0: 1}), 3, 5)

    @pytest.mark.parametrize("family,char,s,N", [
        ("kz", "chi_kz", 5, 9),
        ("gk:k=1", "chi6", 5, 8),
        ("gk:k=2", "chi_gk:k=2", 3, 12),
        ("hikami:m=2,alpha=0", "chi_hikami:m=2,alpha=0", 3, 8),
    ])
    def test_divides_slices_by_the_binomials_alone(self, monkeypatch, family,
                                                   char, s, N):
        # the certificate builds no dissection and no factor polynomial, and
        # makes no exact_div dispatch: each residue slice goes to
        # div_binomial once per Pochhammer exponent, up to the first
        # NotDivisible, and only a quotient becomes an IntPoly
        import qstrange.dissection as dis
        import qstrange.exactpoly as ep
        fam, char = parse_family(family), get_character(char)
        partial_sum(fam, N)  # warm, so only the certificate's own work is seen

        def never(*args):
            raise AssertionError("called off the certificate path")
        for module, name in ((dis, "dissect"), (dis, "exact_div"),
                             (ep, "exact_div"), (ep, "_div_step")):
            monkeypatch.setattr(module, name, never)
        calls, wrapped = [], []
        real_div, real_new = dis.div_binomial, IntPoly._new.__func__

        def div(coeffs, e):
            calls.append([e, "raised"])
            quo = real_div(coeffs, e)
            calls[-1][1] = "divided"
            return quo
        monkeypatch.setattr(dis, "div_binomial", div)
        monkeypatch.setattr(IntPoly, "_new", classmethod(
            lambda cls, coeffs: wrapped.append(1) or real_new(cls, coeffs)))
        rep = verify_theorem(fam, char, s, N)
        monkeypatch.undo()

        lam, mu = thresholds(N, s)
        want = list(range(1, lam + 1) if fam.kernel == "F" else range(1, 2 * mu, 2))
        runs = []
        for e, how in calls:
            if e == want[0]:
                runs.append([])
            runs[-1].append((e, how))
        assert len(runs) == s
        for row, run in zip(rep.rows, runs):
            assert [e for e, _ in run] == want[:len(run)]
            assert all(how == "divided" for _, how in run[:-1])
            if row.verdict == "divides":
                assert len(run) == len(want) and run[-1][1] == "divided"
            else:
                assert run[-1][1] == "raised"
        assert len(wrapped) == sum(row.verdict == "divides" for row in rep.rows)
        assert {row.verdict for row in rep.rows} == {"divides", "not-claimed"}
        assert rep == verify_theorem(fam, char, s, N)

    @pytest.mark.parametrize("args,exc,match", [
        ((0, 2, 0, 2, {0: 1, 1: -1}), IntegralityViolation,
         r"\(\(1\)\^2 - 0\)/2 is not an integer"),
        ((0, 1, 0, 2, {0: 1}), MeanValueNonzero, "mean"),
    ], ids=["integrality", "mean"])
    def test_invalid_character_cannot_be_built(self, args, exc, match):
        # no verify_theorem call can be made with such a character
        with pytest.raises(exc, match=match):
            Character(*args)

    @pytest.mark.parametrize("family,char,s,N,exc,match", [
        ("kz", "chi_kz", 5, -1, ValueError, "need N >= 0"),
        ("kz", "chi_kz", 0, 9, ValueError, "need N >= 0"),
        ("kz", "chi_kz", MAX_DISSECT_MODULUS + 1, 9, InvalidParam,
         "MAX_DISSECT_MODULUS"),
        ("gk:k=1", "chi6", 4, 8, OddModulusRequired, "odd s"),
        ("kz", "chi_kz", 99999, 9, InvalidParam, "MAX_RESIDUE_SPAN"),
        ("kz", "chi_kz", 5, 2000, InvalidParam, "MAX_PARTIAL_SUM_WORK"),
    ])
    def test_single_faults(self, family, char, s, N, exc, match):
        with pytest.raises(exc, match=match):
            verify_theorem(parse_family(family), get_character(char), s, N)

    def test_falsification_detected(self):
        # character whose residue set misses 0 mod 2, against a family whose
        # even part is the constant 1: the guaranteed division cannot hold
        char = Character(3, 2, 0, 4, {1: 1, 3: -1})
        fam = parse_family('{"kernel":"F","terms":[{"coeffs":["1"]}]}')
        with pytest.raises(DivisibilityFalsified):
            verify_theorem(fam, char, 2, 3)

    def test_immutable(self):
        rep = verify_theorem(parse_family("gk:k=1"), get_character("chi6"), 5, 8)
        with pytest.raises(AttributeError):
            rep.rows = ()
        with pytest.raises(AttributeError):
            rep.rows[2].verdict = "not-claimed"
        # records compare by value, quotients included
        again = verify_theorem(parse_family("gk:k=1"), get_character("chi6"), 5, 8)
        assert again == rep and again.rows[2] == rep.rows[2]

    def test_report_json_shape(self):
        rep = verify_theorem(parse_family("gk:k=1"), get_character("chi6"), 5, 8)
        obj = rep.to_json_obj()
        assert obj["family"] == "gk:k=1" and obj["s"] == 5 and obj["N"] == 8
        assert obj["S"] == [0, 1, 3]
        assert obj["rows"][2]["verdict"] == "divides"
        assert "quotient" in obj["rows"][2]
        assert "quotient" not in obj["rows"][0]


class TestSmallSweeps:
    # desk-scale slices of the acceptance sweeps; the full N <= 30 runs live
    # in the acceptance suite
    def test_kz_sweep(self):
        fam, char = parse_family("kz"), get_character("chi_kz")
        for s in range(1, 8):
            for N in range(1, 13):
                verify_theorem(fam, char, s, N)

    @pytest.mark.parametrize("m,alpha", [(2, 0), (2, 1)])
    def test_hikami_sweep(self, m, alpha):
        fam = parse_family(f"hikami:m={m},alpha={alpha}")
        char = get_character(f"chi_hikami:m={m},alpha={alpha}")
        for s in range(1, 5):
            for N in range(1, 11):
                verify_theorem(fam, char, s, N)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gk_sweep(self, k):
        fam = parse_family(f"gk:k={k}")
        char = get_character(f"chi_gk:k={k}")
        for s in (1, 3, 5, 7, 9):
            for N in range(1, 13):
                verify_theorem(fam, char, s, N)
