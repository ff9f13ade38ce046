import gc
import json
import random
from fractions import Fraction

import pytest

from helpers import (
    bernoulli_number,
    bernoulli_poly_def,
    evaluate,
    gamma_def,
    memo_entries,
    to_rat,
    twisted_entry,
    zeta,
)
from qstrange.cyclofield import CycloNum
from qstrange.exactpoly import RatPoly
from qstrange.partialtheta import (
    Character,
    CharacterInvalid,
    IntegralityViolation,
    MeanValueNonzero,
    TwistedSeq,
    character_from_json_obj,
    gamma_coeff,
    get_character,
    l_value,
    theta_truncated,
    twisted_sequence,
)
from qstrange.qfamilies import (
    InvalidParam,
    ParseError,
    parse_family,
    partial_sum_prefix,
)
from qstrange.strangematch import match_expansion

BUILTIN_NAMES = ["chi_kz", "chi6", "chi_hikami:m=1,alpha=0",
                 "chi_hikami:m=2,alpha=0", "chi_hikami:m=2,alpha=1",
                 "chi_gk:k=1", "chi_gk:k=2", "chi_gk:k=3"]


class TestCharacters:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_validate(self, name):
        # the constructor checks integrality and the mean of every built-in
        c = get_character(name)
        assert Character(c.a, c.b, c.nu, c.period, c.values) == c

    def test_chi6_table(self):
        c = get_character("chi6")
        assert (c.a, c.b, c.nu, c.period) == (1, 3, 0, 6)
        assert [c.value(n) for n in range(6)] == [0, 1, 1, 0, -1, -1]

    def test_chi_kz_table(self):
        c = get_character("chi_kz")
        assert (c.a, c.b, c.nu, c.period) == (1, 24, 1, 12)
        assert c.value(1) == c.value(11) == Fraction(-1, 2)
        assert c.value(5) == c.value(7) == Fraction(1, 2)
        assert c.value(3) == 0

    def test_chi_hikami_m1_is_chi_kz(self):
        assert get_character("chi_hikami:m=1,alpha=0") == get_character("chi_kz")

    def test_chi_hikami_m2(self):
        c = get_character("chi_hikami:m=2,alpha=0")
        assert (c.a, c.b, c.period) == (9, 40, 20)
        assert c.value(3) == c.value(17) == Fraction(-1, 2)
        assert c.value(7) == c.value(13) == Fraction(1, 2)
        # and every (m, alpha) to m = 40 has its four residues, all distinct
        half = Fraction(1, 2)
        for m in range(1, 41):
            T = 8 * m + 4
            for alpha in range(m):
                c = get_character(f"chi_hikami:m={m},alpha={alpha}")
                want = {(2 * m - 2 * alpha - 1) % T: -half,
                        (6 * m + 2 * alpha + 5) % T: -half,
                        (2 * m + 2 * alpha + 3) % T: half,
                        (6 * m - 2 * alpha + 1) % T: half}
                assert len(want) == 4, (m, alpha)
                assert {n: c.value(n) for n in range(T) if c.value(n)} \
                    == want, (m, alpha)

    def test_chi_gk_table(self):
        c = get_character("chi_gk:k=2")
        assert (c.a, c.b, c.nu, c.period) == (4, 5, 0, 10)
        assert c.value(2) == c.value(3) == 1
        assert c.value(7) == c.value(8) == -1

    def test_integrality_violation(self):
        # support at n = 3 with (9-1)/3 not an integer
        with pytest.raises(IntegralityViolation):
            Character(1, 3, 0, 6, {3: 1, 1: 1, 5: -1, 2: -1})

    def test_integrality_checked_past_one_period(self):
        # passes on 0..T-1 but fails at n = 3 = 1 + T
        with pytest.raises(IntegralityViolation):
            Character(1, 16, 0, 2, {1: 1})

    def test_mean_value_nonzero(self):
        with pytest.raises(MeanValueNonzero):
            Character(0, 1, 0, 1, {0: 1})

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            get_character("chi_hikami:m=2,alpha=9")
        with pytest.raises(InvalidParam):
            get_character("chi_gk:k=0")
        with pytest.raises(ParseError):
            get_character("nope")
        with pytest.raises(CharacterInvalid):
            Character(1, 0, 0, 6, {})
        with pytest.raises(CharacterInvalid):
            Character(1, 3, 2, 6, {})

    @pytest.mark.parametrize("name", ["chi_gk:k=1_0", "chi_gk:k=\u0662",
                                      "chi_hikami:m=\u0662,alpha=0"])
    def test_name_integers_read_one_grammar(self, name):
        # int() read these as k = 10, k = 2 and m = 2
        with pytest.raises(ParseError, match="bad integer"):
            get_character(name)

    @pytest.mark.parametrize("name", [5, None, ["chi6"]])
    def test_non_string_name_refused(self, name):
        with pytest.raises(ParseError, match="character name must be a string"):
            get_character(name)

    def test_immutable_and_equal_up_to_label(self):
        c = get_character("chi6")
        with pytest.raises(AttributeError):
            c.label = "renamed"
        twin = Character(c.a, c.b, c.nu, c.period, list(c.values), "renamed")
        assert twin == c and hash(twin) == hash(c)
        assert isinstance(twin.values, tuple)
        assert Character(1, 3, 0, 6, {1: 1, 2: 1, 4: -1, 5: -1}) == c
        assert Character(1, 3, 1, 6, c.values) != c

    @pytest.mark.parametrize("values", [
        {0: -0.1, 1: 0.1}, [True, -1], [0.5, -0.5], {0: "x", 1: 1}])
    def test_inexact_values_refused(self, values):
        with pytest.raises(CharacterInvalid):
            Character(0, 1, 0, 2, values)

    @pytest.mark.parametrize("text", ["1_0", " 7", "1 / 2", "\u0663", "1/0",
                                      "1e3", ".5"])
    def test_values_and_residues_read_one_grammar(self, text):
        # an optional sign, ASCII digits and /digits or .digits, on every
        # Python: int() and Fraction() took some of these, by version
        with pytest.raises(CharacterInvalid, match="not an exact rational"):
            Character(1, 3, 0, 6, {"1": text, "5": "-10"})
        with pytest.raises(CharacterInvalid, match="not an integer"):
            Character(1, 3, 0, 6, {text: "1", "5": "-1"})
        assert Character(1, 3, 0, 6, {"+1": "+1", "05": "-1.0"}) == \
            Character(1, 3, 0, 6, {1: 1, 5: -1})

    def test_exact_string_values(self):
        c = Character(0, 1, 0, 2, {"0": "-1/2", "1": "0.5"})
        assert c.values == (Fraction(-1, 2), Fraction(1, 2))

    def test_json_round_trip(self):
        c = get_character("chi6")
        obj = json.loads(json.dumps(c.to_json_obj()))
        assert character_from_json_obj(obj) == c

    def test_json_matches_documented_shape(self):
        obj = {"a": 1, "b": 3, "nu": 0, "period": 6,
               "values": {"1": "1", "2": "1", "4": "-1", "5": "-1"}}
        assert character_from_json_obj(obj) == get_character("chi6")


class TestTwistedSequence:
    def test_chi6_untwisted(self):
        seq = twisted_sequence(get_character("chi6"), 1, 0)
        assert seq.period == 6
        assert twisted_entry(seq, 1) == 1 and twisted_entry(seq, 5) == -1

    def test_chi_hikami_period_80(self):
        seq = twisted_sequence(get_character("chi_hikami:m=2,alpha=0"), 2, 1)
        assert seq.period == 80

    def test_immutable_and_equal_by_fields(self):
        char = get_character("chi6")
        seq = twisted_sequence(char, 3, 1)
        with pytest.raises(AttributeError):
            seq.period = 2 * seq.period
        # each call builds its own sequence, equal field by field for the
        # same (character, k, j mod k)
        again = twisted_sequence(char, 3, 4)
        assert again is not seq
        assert again == seq and hash(again) == hash(seq)
        assert twisted_sequence(char, 3, 2) != seq
        # the constructor builds the same record from its four fields
        public = TwistedSeq(char, 3, 4, seq.period)
        assert (public.j, public.period) == (1, 18)
        assert public == seq and hash(public) == hash(seq)
        assert TwistedSeq(char, 3, 1, 2 * seq.period) != seq

    def test_constructor_refuses_what_is_not_the_twist(self, monkeypatch):
        import qstrange.partialtheta as pt

        char = get_character("chi6")
        P = twisted_sequence(char, 3, 1).period
        # a period that is not a positive multiple of P
        for period in (P + 1, P // 2, 0, -P):
            with pytest.raises(ValueError, match="multiple"):
                TwistedSeq(char, 3, 1, period)
        assert TwistedSeq(char, 3, 1, 3 * P).period == 3 * P
        with pytest.raises(ValueError, match="conductor"):
            TwistedSeq(char, 0, 1, P)
        with pytest.raises(MeanValueNonzero):
            TwistedSeq(Character(0, 1, 0, 1, {0: 1}), 1, 0, 1)
        # a twisted period past the limit is refused before any row
        monkeypatch.setattr(pt, "_twist_rows", None)
        with pytest.raises(InvalidParam, match="MAX_TWIST_PERIOD"):
            TwistedSeq(char, pt.MAX_TWIST_PERIOD, 1, P)

    def test_cached_call_does_not_rehash_the_values(self, monkeypatch, memos):
        # the character's hash is the key of the shared twisted rows; it is
        # computed once, not from its tuple of Fractions on each call
        char = get_character("chi_kz")
        seq = twisted_sequence(char, 5, 1)
        calls = []
        real = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda x: calls.append(x) or real(x))
        assert twisted_sequence(char, 5, 1) == seq
        assert memos["qstrange.partialtheta._twist_rows"].stats[0] == 1
        assert calls == []
        # of the nonzero values with their residues, not of every value
        nonzero = tuple((r, v) for r, v in enumerate(char.values) if v)
        assert hash(char) == hash((char.a, char.b, char.nu, char.period,
                                   nonzero))

    def test_constant_character_rejected(self):
        with pytest.raises(MeanValueNonzero):
            twisted_sequence(Character(0, 1, 0, 1, {0: 1}), 1, 0)

    def test_entries_match_formula(self):
        char = get_character("chi_gk:k=1")
        k, j = 3, 1
        seq = twisted_sequence(char, k, j)
        rng = random.Random(40)
        for _ in range(20):
            n = rng.randint(0, 4 * seq.period)
            c = char.value(n)
            want = (zeta(k, j * char.exponent(n)).scale(c)
                    if c else CycloNum.rational(k, 0))
            assert twisted_entry(seq, n) == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_half_period_lemma(self, m):
        # the twisted sum already vanishes over M(8m+4), half the table period
        for alpha in range(m):
            char = get_character(f"chi_hikami:m={m},alpha={alpha}")
            for M in range(1, 7):
                seq = twisted_sequence(char, M, 1)
                total = CycloNum.rational(M, 0)
                for n in range(1, M * (8 * m + 4) + 1):
                    total = total + twisted_entry(seq, n)
                assert not total, (m, alpha, M)

    def test_no_sequence_outlives_its_request(self):
        # the rows shared by the roots of one order are memoized, the
        # sequences built on them are not, so none is kept after a call
        def alive():
            gc.collect()
            return sum(isinstance(x, TwistedSeq) for x in gc.get_objects())

        before, char = alive(), get_character("chi_kz")
        match_expansion(parse_family("kz"), char, 2, 1, 3)
        gamma_coeff(char, 3, 1, 2)
        l_value(twisted_sequence(char, 4, 1), 1)
        assert alive() == before

    def test_mean_zero_any_conductor_for_odd_char(self):
        char = get_character("chi6")
        for k in (1, 2, 3, 4, 5):
            twisted_sequence(char, k, 1)  # constructor enforces mean zero


class TestBernoulli:
    def test_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert all(bernoulli_number(n) == 0 for n in (3, 5, 7, 9, 11))

    def test_polys(self):
        # the oracle polynomials that l_value_def reads
        assert bernoulli_poly_def(0) == RatPoly((1,))
        assert bernoulli_poly_def(1) == RatPoly((Fraction(-1, 2), 1))
        assert bernoulli_poly_def(2) == RatPoly((Fraction(1, 6), -1, 1))

    def test_difference_identity(self):
        # B_n(x+1) - B_n(x) = n x^(n-1), checked at enough points to pin the poly
        xs = [Fraction(i, 3) for i in range(-6, 7)]
        for n in range(1, 11):
            bp = bernoulli_poly_def(n)
            for x in xs:
                assert evaluate(bp, x + 1) - evaluate(bp, x) == n * x ** (n - 1)

    def test_endpoint_symmetry(self):
        for n in range(2, 11):
            bp = bernoulli_poly_def(n)
            assert evaluate(bp, Fraction(0)) == evaluate(bp, Fraction(1))
            assert evaluate(bp, Fraction(0)) == bernoulli_number(n)


def alternating_seq():
    # C(1) = 1, C(2) = C(0) = -1 at zeta = 1
    return twisted_sequence(Character(0, 1, 0, 2, {0: -1, 1: 1}), 1, 0)


class TestLValue:
    def test_alternating_frozen(self):
        assert l_value(alternating_seq(), 0) == Fraction(1, 2)

    def test_chi_kz_untwisted_order_one(self):
        seq = twisted_sequence(get_character("chi_kz"), 1, 0)
        assert l_value(seq, 1) == 1

    def test_all_zero(self):
        seq = twisted_sequence(Character(0, 1, 0, 1, {}), 1, 0)
        for n in range(5):
            assert not l_value(seq, n)

    @pytest.mark.parametrize("name,k,j", [
        ("chi_kz", 1, 0), ("chi_kz", 3, 1), ("chi6", 1, 0), ("chi6", 3, 2),
        ("chi_gk:k=2", 5, 1), ("chi_hikami:m=2,alpha=1", 2, 1),
    ])
    def test_period_doubling(self, name, k, j):
        seq = twisted_sequence(get_character(name), k, j)
        for times in (2, 3):
            longer = TwistedSeq(seq.character, seq.k, seq.j,
                                times * seq.period)
            for n in range(7):
                assert l_value(seq, n) == l_value(longer, n), (name, times, n)

    def test_doubled_sequence_reads_twice_the_rows(self, monkeypatch):
        # l_value reads the shared rows over the stored period, not the
        # base one, so a doubled sequence is a second computation
        import qstrange.partialtheta as pt

        char = get_character("chi_kz")
        seq = twisted_sequence(char, 3, 1)
        P = seq.period
        doubled = TwistedSeq(char, 3, 1, 2 * P)
        read = []
        real = pt._bucket_sums

        def spy(ms, keys, cs, top):
            rows = list(zip(ms, keys, cs))
            read.append([m for m, _, _ in rows])
            return real(*zip(*rows), top)

        monkeypatch.setattr(pt, "_bucket_sums", spy)
        assert l_value(doubled, 2) == l_value(seq, 2)
        supported = [m for m in range(1, 2 * P + 1) if char.value(m)]
        assert read == [supported, supported[:len(supported) // 2]]


class TestGamma:
    def test_order_zero_frozen(self):
        assert gamma_coeff(get_character("chi_kz"), 1, 0, 0) == 1
        assert gamma_coeff(get_character("chi6"), 1, 0, 0) == 1

    def test_a_zero_collapses(self):
        char = Character(0, 1, 0, 2, {0: -1, 1: 1})
        seq = twisted_sequence(char, 1, 0)
        import math
        for n in range(5):
            want = l_value(seq, 2 * n).scale(
                Fraction((-1) ** n, math.factorial(n)))
            assert gamma_coeff(char, 1, 0, n) == want

    def test_values_live_in_the_right_field(self):
        g = gamma_coeff(get_character("chi6"), 3, 1, 1)
        assert g.k == 3

    @pytest.mark.parametrize("char,k", [
        (get_character("chi6"), 6), (get_character("chi6"), 30),
        (get_character("chi_gk:k=2"), 5),
        # a nonzero twisted mean at the odd j, zero at the j with gcd 2
        (Character(0, 1, 0, 2, {0: 1, 1: -1}), 6),
    ], ids=["chi6-k6", "chi6-k30", "chi_gk:k=2-k5", "alternating-k6"])
    def test_roots_of_one_order_share_the_theta_side(self, monkeypatch,
                                                     clear_memos, char, k):
        # every j of one order, ascending, descending and after a memo
        # clear, gives what a cold call and the oracle give, including the
        # j with gcd(j, k) > 1 whose classes merge, and the j refused for a
        # nonzero twisted mean; the class sums are built once per (char,
        # k, top), not once per root
        import qstrange.partialtheta as pt

        def outcome(f, j, n):
            try:
                return f(char, k, j, n)
            except MeanValueNonzero as exc:
                return str(exc)

        tops = range(3)
        cold = {}
        for j in range(k):
            for n in tops:
                clear_memos()
                cold[j, n] = outcome(gamma_coeff, j, n)
                assert cold[j, n] == outcome(gamma_def, j, n), (j, n)
        builds = []
        real = pt._bucket_sums
        monkeypatch.setattr(pt, "_bucket_sums",
                            lambda *args: builds.append(args) or real(*args))

        def sweep(js):
            for j in js:
                for n in tops:
                    assert outcome(gamma_coeff, j, n) == cold[j, n], (j, n)

        clear_memos()
        sweep(range(k))
        sweep(reversed(range(k)))
        assert len(builds) == len(tops)
        clear_memos()
        sweep(range(k))
        assert len(builds) == 2 * len(tops)

    @pytest.mark.parametrize("char,k", [
        (get_character("chi6"), 6), (get_character("chi_kz"), 4),
        (get_character("chi_gk:k=2"), 5),
    ], ids=["chi6-k6", "chi_kz-k4", "chi_gk:k=2-k5"])
    def test_gamma_orders_in_either_order_store_the_same_entries(
            self, clear_memos, char, k):
        # each order's numerators are one memo entry, keyed by (char, k, n)
        # and stored once: reading gamma_0..gamma_top over every root of
        # order k ascending, then descending, stores the same entries with
        # the same values, and later reads replace none of them
        top, name = 4, "qstrange.partialtheta._gammas"

        def read(orders):
            for n in orders:
                for j in range(k):
                    gamma_coeff(char, k, j, n)
            return memo_entries(name)

        up = read(range(top + 1))
        clear_memos()
        down = read(range(top, -1, -1))
        assert set(up) == set(down) == {(char, k, n) for n in range(top + 1)}
        assert up == down
        again = read(range(top + 1))
        assert all(again[key] is down[key] for key in down)


class TestThetaTruncated:
    def test_chi6_frozen(self):
        assert theta_truncated(get_character("chi6"), 8) == \
            RatPoly((1, 1, 0, 0, 0, -1, 0, 0, -1))

    def test_chi_gk2_frozen(self):
        got = theta_truncated(get_character("chi_gk:k=2"), 12)
        want = [0] * 13
        want[0], want[1], want[9], want[12] = 1, 1, -1, -1
        assert got == RatPoly(want)

    def test_cap_zero(self):
        assert theta_truncated(get_character("chi6"), 0) == RatPoly((1,))

    def test_nu_one_rejected(self):
        with pytest.raises(ValueError):
            theta_truncated(get_character("chi_kz"), 5)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_family_prefix(self, k):
        # the q-hypergeometric sum and its theta form agree coefficientwise
        cap = 25
        theta = theta_truncated(get_character(f"chi_gk:k={k}"), cap)
        fam = partial_sum_prefix(parse_family(f"gk:k={k}"), cap, cap)
        assert theta == to_rat(fam)
