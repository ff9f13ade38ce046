import random
import sys
import threading
from fractions import Fraction

import pytest

import helpers
from helpers import pochhammer_factors, qbinomial, truncate
from qstrange.exactpoly import (
    IntPoly,
    RatPoly,
    NotDivisible,
    cyclotomic,
    div_binomial,
    exact_div,
    mul_binomial,
    pochhammer,
    pochhammer_exponents,
    subst_one_minus_q,
    theta_deriv,
)


def rand_poly(rng, max_deg=12, span=9):
    return IntPoly(tuple(rng.randint(-span, span) for _ in range(rng.randint(0, max_deg + 1))))


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()
        assert not IntPoly((0,))

    def test_degree_and_valuation(self):
        p = IntPoly((0, 0, 3, 0, 1))
        assert p.degree == 4
        assert helpers.valuation(p) == 2
        assert IntPoly().degree == -1
        assert helpers.valuation(IntPoly()) == -1

    def test_immutability(self):
        p = IntPoly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (5,)

    def test_getitem_out_of_range(self):
        p = IntPoly((1, 2))
        assert p[5] == 0
        assert p[1] == 2

    def test_int_poly_rejects_fractions(self):
        with pytest.raises(ValueError):
            IntPoly((Fraction(1, 2),))
        assert IntPoly((Fraction(4, 2),)).coeffs == (2,)

    @pytest.mark.parametrize("cls", [IntPoly, RatPoly])
    def test_bool_coefficients_refused(self, cls):
        # IntPoly used to keep True as a coefficient and write it as "True"
        for coeffs in ([True, 2], [1, False], [True]):
            with pytest.raises(TypeError):
                cls(coeffs)
        p = cls([1, 2])
        assert p.to_json_obj() == {"coeffs": ["1", "2"]}
        assert cls.from_json_obj(p.to_json_obj()) == p

    def test_monomial(self):
        assert helpers.monomial(IntPoly, 3).coeffs == (0, 0, 0, 1)
        assert helpers.monomial(IntPoly, 0, -2).coeffs == (-2,)

    def test_str(self):
        assert str(IntPoly((3, -2, -1, 1))) == "3 - 2*q - q^2 + q^3"
        assert str(IntPoly()) == "0"
        assert str(IntPoly((0, 1))) == "q"
        assert str(IntPoly((-1,))) == "-1"


class TestRingOps:
    def test_add_sub_mul_small(self):
        p = IntPoly((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).coeffs == ()
        assert (p + p).coeffs == (2, 2)

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            IntPoly((1,)) + RatPoly((1,))

    def test_scale_and_rmul(self):
        p = IntPoly((1, -2))
        assert (3 * p).coeffs == (3, -6)
        assert p.scale(-1) == -p

    def test_pow(self):
        p = IntPoly((1, 1))
        assert helpers.power(p, 4).coeffs == (1, 4, 6, 4, 1)
        assert helpers.power(p, 0) == IntPoly.one()

    def test_shift_dilate(self):
        p = IntPoly((1, 2, 3))
        assert p.shift(2).coeffs == (0, 0, 1, 2, 3)
        assert p.dilate(3).coeffs == (1, 0, 0, 2, 0, 0, 3)
        assert IntPoly().shift(5) == IntPoly()

    def test_derivative_theta(self):
        p = IntPoly((7, 5, 4))
        assert p.derivative().coeffs == (5, 8)
        assert theta_deriv(p).coeffs == (0, 5, 8)
        assert theta_deriv(p, 2).coeffs == (0, 5, 16)
        assert theta_deriv(p, 0) == p

    def test_evaluate(self):
        p = IntPoly((1, 0, -1))
        assert helpers.evaluate(p, 3) == -8
        assert helpers.evaluate(p, Fraction(1, 2)) == Fraction(3, 4)

    def test_truncate(self):
        p = IntPoly((1, 2, 3, 4))
        assert truncate(p, 1).coeffs == (1, 2)
        assert truncate(p, -1) == IntPoly()

    def test_ring_axioms_random(self):
        rng = random.Random(411)
        for _ in range(80):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a + (-a) == IntPoly()

    def test_mul_matches_oracle(self):
        rng = random.Random(1202)
        for _ in range(60):
            a, b = rand_poly(rng, 20), rand_poly(rng, 20)
            want = helpers.to_poly(helpers.dmul(helpers.from_poly(a), helpers.from_poly(b)))
            assert a * b == want


class TestExactDiv:
    def test_simple(self):
        p = IntPoly((-1, 0, 0, 1))  # q^3 - 1
        d = IntPoly((-1, 1))
        assert exact_div(p, d).coeffs == (1, 1, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(IntPoly((1, 1)), IntPoly((1, 1, 1)))
        with pytest.raises(NotDivisible):
            exact_div(IntPoly((1, 0, 1)), IntPoly((1, 1)))

    def test_non_unit_leading(self):
        p = IntPoly((2, 4)) * IntPoly((3, 5))
        assert exact_div(p, IntPoly((3, 5))).coeffs == (2, 4)
        with pytest.raises(NotDivisible):
            exact_div(IntPoly((1, 1)), IntPoly((2,)))

    def test_zero_cases(self):
        assert exact_div(IntPoly(), IntPoly((1, 1))) == IntPoly()
        with pytest.raises(ZeroDivisionError):
            exact_div(IntPoly((1,)), IntPoly())

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(120):
            a, b = rand_poly(rng), rand_poly(rng)
            if not b:
                continue
            # force unit leading coefficient half the time to hit the fast path
            if rng.random() < 0.5:
                b = b + helpers.monomial(IntPoly, b.degree + 1,
                                         rng.choice((1, -1)))
            assert exact_div(a * b, b) == a

    def test_chain_of_divisors(self):
        a, b, c = IntPoly((1, 2)), IntPoly((3, 0, 1)), IntPoly((-1, 1))
        assert exact_div(a * b * c, b, c) == a
        assert exact_div(a * b * c, c, b, a) == IntPoly.one()
        with pytest.raises(NotDivisible):
            exact_div(a * b, b, c)

    def test_no_divisors(self):
        p = IntPoly((4, 0, -3))
        assert exact_div(p) == p
        assert exact_div(IntPoly()) == IntPoly()

    def test_chain_argument_checks(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(IntPoly((1,)), IntPoly((1, 1)), IntPoly())
        with pytest.raises(TypeError):
            exact_div(IntPoly((1,)), IntPoly((1, 1)), RatPoly((1,)))

    def test_chain_mixes_rational_steps(self):
        a, b, c = IntPoly((1, 1)), IntPoly((2, 3)), IntPoly((1, 0, -1))
        assert exact_div(a * b * c, c, b) == a
        with pytest.raises(NotDivisible):
            exact_div(a * c + IntPoly((1,)), c, b)


class TestBinomialKernels:
    """Factor-by-factor kernels against the dict-based oracles in helpers."""

    @pytest.mark.parametrize("step", [1, 2])
    def test_mul_by_factors_matches_oracle(self, step):
        rng = random.Random(3100 + step)
        for n in range(31):
            p = rand_poly(rng) or IntPoly((1,))
            coeffs = list(p.coeffs)
            for e in pochhammer_exponents(n, step):
                coeffs = mul_binomial(coeffs, e)
            want = helpers.dmul(helpers.from_poly(p), helpers.poch_def(n, step))
            assert IntPoly(coeffs) == helpers.to_poly(want), (step, n)
            assert p * pochhammer(n, step) == helpers.to_poly(want), (step, n)

    @pytest.mark.parametrize("step", [1, 2])
    def test_factors_multiply_to_kernel(self, step):
        for n in range(31):
            prod = IntPoly.one()
            for f in pochhammer_factors(n, step):
                prod = prod * f
            assert prod == helpers.to_poly(helpers.poch_def(n, step)), (step, n)

    @pytest.mark.parametrize("step", [1, 2])
    def test_divide_by_factors_round_trip(self, step):
        rng = random.Random(3200 + step)
        for n in range(31):
            p = rand_poly(rng)
            kern = helpers.to_poly(helpers.poch_def(n, step))
            assert exact_div(p * kern, *pochhammer_factors(n, step)) == p, (step, n)

    @pytest.mark.parametrize("step", [1, 2])
    def test_fails_only_at_last_factor(self, step):
        rng = random.Random(3300 + step)
        for n in range(1, 31):
            factors = pochhammer_factors(n, step)
            last = factors[-1].degree
            # r(1) != 0, so 1 - q^e never divides r; deg r >= e keeps the
            # failure away from the degree shortcut
            r = [rng.randint(-9, 9) for _ in range(last + 3)]
            r[-1] = r[-1] or 1
            if sum(r) == 0:
                r[0] += 1
            r = IntPoly(r)
            dividend = r * helpers.to_poly(helpers.poch_def(n - 1, step))
            assert exact_div(dividend, *factors[:-1]) == r
            with pytest.raises(NotDivisible):
                exact_div(dividend, *factors)

    def test_mul_binomial_edges(self):
        assert mul_binomial([], 3) == []
        assert mul_binomial((2, 1), 1) == [2, -1, -1]
        assert mul_binomial([1], 3) == [1, 0, 0, -1]
        with pytest.raises(ValueError):
            mul_binomial([1], 0)

    def test_div_binomial_edges(self):
        assert div_binomial([], 3) == []
        assert div_binomial([2, -1, -1], 1) == [2, 1]
        assert div_binomial((1, 0, 0, -1), 3) == [1]
        with pytest.raises(NotDivisible):
            div_binomial([1], 3)  # degree below e
        with pytest.raises(NotDivisible):
            div_binomial([1, 0, 1, -1], 3)  # class 2 ends at 1
        with pytest.raises(ValueError):
            div_binomial([1], 0)
        # q^e - 1 = -(1 - q^e) takes the same road, with the sign
        assert exact_div(IntPoly((1, 0, -1)), IntPoly((-1, 0, 1))) == IntPoly((-1,))

    def test_exponents(self):
        assert list(pochhammer_exponents(4)) == [1, 2, 3, 4]
        assert list(pochhammer_exponents(4, 2)) == [1, 3, 5, 7]
        assert list(pochhammer_exponents(0, 2)) == []
        assert pochhammer_factors(2, 2) == (IntPoly((1, -1)), IntPoly((1, 0, 0, -1)))
        with pytest.raises(ValueError):
            pochhammer_exponents(-1)
        with pytest.raises(ValueError):
            pochhammer_factors(2, 3)


class TestRatPoly:
    def test_coercion(self):
        p = RatPoly((1, Fraction(1, 2)))
        assert p.coeffs == (Fraction(1), Fraction(1, 2))

    def test_divmod(self):
        num = RatPoly((1, 2, 1))
        q, r = helpers.divmod_def(num, RatPoly((1, 1)))
        assert q == RatPoly((1, 1))
        assert not r
        q, r = helpers.divmod_def(RatPoly((1, 0, 1)), RatPoly((0, 1)))
        assert q == RatPoly((0, 1))
        assert r == RatPoly((1,))

    def test_to_int_poly(self):
        assert helpers.to_int_poly_def(RatPoly((2, 4))) == IntPoly((2, 4))
        with pytest.raises(ValueError):
            helpers.to_int_poly_def(RatPoly((Fraction(1, 3),)))


class TestPochhammer:
    def test_frozen_values(self):
        assert pochhammer(0).coeffs == (1,)
        assert pochhammer(1).coeffs == (1, -1)
        # (q;q)_3 = 1 - q - q^2 + q^4 + q^5 - q^6
        assert pochhammer(3).coeffs == (1, -1, -1, 0, 1, 1, -1)
        # (q;q^2)_2 = (1-q)(1-q^3)
        assert pochhammer(2, step=2).coeffs == (1, -1, 0, -1, 1)

    @pytest.mark.parametrize("step", [1, 2])
    def test_matches_definition(self, step):
        for n in range(12):
            assert pochhammer(n, step) == helpers.to_poly(helpers.poch_def(n, step))

    def test_recurrence(self):
        for n in range(1, 20):
            factor = IntPoly.one() - helpers.monomial(IntPoly, n)
            assert pochhammer(n) == pochhammer(n - 1) * factor

    def test_degree(self):
        for n in range(15):
            assert pochhammer(n).degree == n * (n + 1) // 2
            assert pochhammer(n, 2).degree == n * n

    def test_bad_args(self):
        with pytest.raises(ValueError):
            pochhammer(-1)
        with pytest.raises(ValueError):
            pochhammer(3, step=3)

    def test_concurrent_callers_agree(self):
        # threads entering pochhammer together must each get the exact
        # kernel; an unlocked shared cache here returned corrupted ones
        n, workers = 150, 8
        want = helpers.to_poly(helpers.poch_def(n))
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def call(slot):
            barrier.wait(timeout=60)
            got[slot] = pochhammer(n)

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


class TestQBinomial:
    def test_frozen_values(self):
        assert qbinomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert qbinomial(5, 1).coeffs == (1, 1, 1, 1, 1)
        assert qbinomial(3, 0) == IntPoly.one()
        assert qbinomial(3, 3) == IntPoly.one()

    def test_out_of_range(self):
        assert qbinomial(3, 4) == IntPoly()
        assert qbinomial(3, -1) == IntPoly()

    def test_matches_definition(self):
        for n in range(10):
            for k in range(n + 1):
                assert qbinomial(n, k) == helpers.to_poly(helpers.qbinom_def(n, k))

    def test_square_base(self):
        for n in range(8):
            for k in range(n + 1):
                assert qbinomial(n, k, square_base=True) == \
                    helpers.to_poly(helpers.qbinom_def(n, k, base_power=2))

    def test_symmetry_and_count(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(0, 16)
            k = rng.randint(0, n)
            b = qbinomial(n, k)
            assert b == qbinomial(n, n - k)
            # q=1 recovers the ordinary binomial coefficient
            import math
            assert helpers.evaluate(b, 1) == math.comb(n, k)


class TestCyclotomic:
    def test_frozen_values(self):
        assert cyclotomic(1).coeffs == (-1, 1)
        assert cyclotomic(2).coeffs == (1, 1)
        assert cyclotomic(6).coeffs == (1, -1, 1)
        assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for n in range(1, 31):
            prod = IntPoly.one()
            d = 1
            while d <= n:
                if n % d == 0:
                    prod = prod * cyclotomic(d)
                d += 1
            want = IntPoly((-1,) + (0,) * (n - 1) + (1,))
            assert prod == want

    def test_prime_case(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert cyclotomic(p).coeffs == (1,) * p

    def test_matches_division_of_q_k_minus_one(self):
        # products and quotients of binomials against the recursive division
        for k in range(1, 400):
            assert cyclotomic(k) == helpers.cyclotomic_def(k), k

    def test_many_prime_factors(self):
        # 30030 = 2*3*5*7*11*13: phi is 5760, and Phi_k(1) = 1 when k is
        # not a prime power; the recursive division took 42 s here
        p = cyclotomic(30030)
        assert p.degree == 5760 and p.coeffs[-1] == 1
        assert sum(p.coeffs) == 1


class TestSubstitution:
    def test_frozen_small(self):
        # (1-q) under q -> 1-q returns q
        assert subst_one_minus_q(IntPoly((1, -1)), 5).coeffs == (0, 1)

    def test_matches_definition(self):
        rng = random.Random(909)
        for _ in range(40):
            p = rand_poly(rng, 15)
            cap = rng.randint(0, 20)
            assert subst_one_minus_q(p, cap) == helpers.subst_def(p, cap)

    def test_involution(self):
        rng = random.Random(31)
        for _ in range(30):
            p = rand_poly(rng, 10)
            cap = p.degree + 1 if p else 3
            assert truncate(subst_one_minus_q(subst_one_minus_q(p, cap + 20), cap + 20),
                            cap) == truncate(p, cap)

    def test_is_ring_map(self):
        rng = random.Random(66)
        for _ in range(30):
            a, b = rand_poly(rng, 8), rand_poly(rng, 8)
            cap = 25
            lhs = subst_one_minus_q(a * b, cap)
            rhs = truncate(subst_one_minus_q(a, cap) * subst_one_minus_q(b, cap), cap)
            assert lhs == rhs


class TestJson:
    def test_round_trip_int(self):
        p = IntPoly((3, -2, 0, 1))
        assert IntPoly.from_json_obj(p.to_json_obj()) == p

    def test_round_trip_rat(self):
        p = RatPoly((Fraction(1, 3), Fraction(-2, 7)))
        obj = p.to_json_obj()
        assert obj["coeffs"] == ["1/3", "-2/7"]
        assert RatPoly.from_json_obj(obj) == p

    def test_bad_input(self):
        with pytest.raises(ValueError):
            IntPoly.from_json_obj({"nope": []})
        with pytest.raises(ValueError):
            IntPoly.from_json_obj({"coeffs": [1.5]})

    @pytest.mark.parametrize("cls", [IntPoly, RatPoly])
    @pytest.mark.parametrize("text", ["1_0", " 7", "1 / 2", "\u0663", "0x1",
                                      "", "1/0"])
    def test_coefficients_read_one_grammar(self, cls, text):
        # an optional sign and ASCII digits (and /digits or .digits in a
        # RatPoly), on every Python: int() and Fraction() took some of these
        with pytest.raises(ValueError, match="is not an exact"):
            cls.from_json_obj({"coeffs": ["1", text]})

    def test_grammar_keeps_signs_and_rationals_apart(self):
        assert IntPoly.from_json_obj({"coeffs": ["+7", "-007"]}) == IntPoly([7, -7])
        assert RatPoly.from_json_obj({"coeffs": ["-2/4", "0.25", 3]}) == \
            RatPoly([Fraction(-1, 2), Fraction(1, 4), 3])
        for text in ("1/2", "0.5"):
            with pytest.raises(ValueError, match="is not an exact integer"):
                IntPoly.from_json_obj({"coeffs": [text]})

    @pytest.mark.parametrize("cls", [IntPoly, RatPoly])
    @pytest.mark.parametrize("obj", [
        {"coeffs": "12"}, {"coeffs": {"0": 1}}, {"coeffs": None},
        {"coeffs": [True, False, 2]}, {"coeffs": ["1", False]},
    ])
    def test_coeffs_must_be_a_list_without_bools(self, cls, obj):
        # a string used to be read character by character, and true as 1
        with pytest.raises(ValueError):
            cls.from_json_obj(obj)
