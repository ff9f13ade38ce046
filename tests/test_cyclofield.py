import random
from fractions import Fraction

import mpmath
import pytest

from helpers import embed_def, lift_def, monomial, zeta
from qstrange.cyclofield import ConductorMismatch, CycloNum, eval_at_root
from qstrange.exactpoly import IntPoly, RatPoly, cyclotomic


EMBED_TOL = mpmath.mpf(10) ** -30


def embed_close(a, b):
    return abs(a - b) < EMBED_TOL


class TestConstruction:
    def test_reduction(self):
        # zeta_3^2 reduces against 1 + q + q^2
        z2 = CycloNum(3, monomial(RatPoly, 2))
        assert z2.rep.coeffs == (Fraction(-1), Fraction(-1))

    def test_zeta_power_wraps(self):
        assert zeta(5, 7) == zeta(5, 2)
        assert zeta(5, -1) == zeta(5, 4)
        assert zeta(5, 0) == 1

    def test_rational_predicates(self):
        x = CycloNum.rational(7, Fraction(3, 2))
        assert x.is_rational()
        assert x.as_fraction() == Fraction(3, 2)
        z = zeta(7)
        assert not z.is_rational()
        with pytest.raises(ValueError):
            z.as_fraction()

    def test_immutable(self):
        z = zeta(4)
        with pytest.raises(AttributeError):
            z.k = 5

    def test_integer_coordinates(self):
        # (1/2 + zeta/3) is (3 + 2*zeta)/6, and (2 + 4*zeta)/-6 is (-1 - 2*zeta)/3
        x = CycloNum(5, [Fraction(1, 2), Fraction(1, 3)])
        assert (x.num, x.den) == ((3, 2), 6)
        y = CycloNum(5, [2, 4, 0], -6)
        assert (y.num, y.den) == ((-1, -2), 3)
        assert y.rep == RatPoly([Fraction(-1, 3), Fraction(-2, 3)])
        zero = CycloNum(5, [0, 0], 7)
        assert (zero.num, zero.den) == ((), 1)

    @pytest.mark.parametrize("make", [
        lambda: CycloNum.rational(3, 0.1),
        lambda: zeta(3).scale(0.1),
        lambda: CycloNum.rational(3, True),
        lambda: zeta(3).scale(True),
        lambda: CycloNum(3, [1, 0.5]),
        lambda: CycloNum(3, [True, 1]),
        lambda: zeta(3) + 0.5,
        lambda: 0.5 * zeta(3),
        lambda: zeta(3) - True,
    ])
    def test_inexact_inputs_refused(self, make):
        # a float would become a huge binary Fraction, a bool a silent 0 or 1
        with pytest.raises(TypeError):
            make()

    def test_rational_hashes_as_fraction(self):
        one = CycloNum.rational(5, 1)
        assert one == 1 and hash(one) == hash(1)
        assert {1: "x"}.get(one) == "x"
        half = CycloNum.rational(5, Fraction(3, 2))
        assert {Fraction(3, 2): "y"}.get(half) == "y"
        assert hash(CycloNum.rational(5, 0)) == hash(0)
        # equal rationals of two fields are one set element, not a mismatch
        assert CycloNum.rational(3, 1) == one
        assert len({one, CycloNum.rational(3, 1), 1}) == 1
        assert len({zeta(5), zeta(5, 6), zeta(5, 2)}) == 2


class TestArithmetic:
    def test_conjugate_product(self):
        # (1 + zeta_3)(1 + zeta_3^2) = 1
        z = zeta(3)
        assert (1 + z) * (1 + z * z) == 1

    def test_geometric_sum_vanishes(self):
        for k in (2, 3, 5, 6, 12):
            z = zeta(k)
            total = CycloNum.rational(k, 0)
            for j in range(k):
                total = total + z ** j
            assert not total

    def test_pow_matches_repeated_mul(self):
        z = zeta(8) + CycloNum.rational(8, Fraction(1, 2))
        acc = CycloNum.rational(8, 1)
        for n in range(6):
            assert z ** n == acc
            acc = acc * z

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatch):
            zeta(3) + zeta(4)
        with pytest.raises(ConductorMismatch):
            zeta(3) == zeta(4)

    def test_scalar_ops(self):
        z = zeta(5)
        assert 2 * z - z == z
        assert (z - 1) + (1 - z) == 0
        assert z.scale(Fraction(1, 3)) * 3 == z

    def test_lift(self):
        z3 = zeta(3)
        z12 = lift_def(z3, 12)
        assert z12.k == 12
        assert z12 == zeta(12, 4)
        with pytest.raises(ConductorMismatch):
            lift_def(z3, 8)

    def test_field_axioms_random(self):
        rng = random.Random(1453)
        k = 12
        deg = cyclotomic(k).degree

        def rand_elt():
            return CycloNum(k, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(deg + 2)])

        for _ in range(40):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == 0


class TestEvalAtRoot:
    def test_folding(self):
        # q^5 at zeta_4: 5 = 1 mod 4
        p = monomial(IntPoly, 5)
        assert eval_at_root(p, 4) == zeta(4)

    def test_power_argument(self):
        p = IntPoly((0, 1))  # q
        assert eval_at_root(p, 6, 2) == zeta(6, 2)

    def test_cyclotomic_vanishes_at_primitive_root(self):
        for k in (1, 2, 3, 4, 6, 10, 12):
            assert not eval_at_root(cyclotomic(k), k)

    def test_cyclotomic_nonzero_at_nonprimitive(self):
        assert eval_at_root(cyclotomic(4), 4, 2)  # zeta_4^2 = -1 is not primitive

    def test_matches_slow_substitution(self):
        rng = random.Random(8)
        for _ in range(25):
            k = rng.randint(1, 12)
            j = rng.randint(0, 2 * k)
            p = IntPoly(tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 18))))
            z = zeta(k, j)
            slow = CycloNum.rational(k, 0)
            for e, c in enumerate(p.coeffs):
                slow = slow + (z ** e).scale(c)
            assert eval_at_root(p, k, j) == slow


class TestEmbed:
    def test_zeta_values(self):
        with mpmath.workprec(200):
            z = embed_def(zeta(4))
            assert embed_close(z, mpmath.mpc(0, 1))
            z6 = embed_def(zeta(6))
            assert embed_close(z6, mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2))

    def test_embedding_is_ring_map(self):
        rng = random.Random(99)
        k = 7
        for _ in range(10):
            a = CycloNum(k, [Fraction(rng.randint(-3, 3)) for _ in range(8)])
            b = CycloNum(k, [Fraction(rng.randint(-3, 3)) for _ in range(8)])
            with mpmath.workprec(200):
                assert embed_close(embed_def(a * b), embed_def(a) * embed_def(b))
                assert embed_close(embed_def(a + b), embed_def(a) + embed_def(b))

    def test_poly_eval_consistency(self):
        rng = random.Random(512)
        for _ in range(10):
            k = rng.randint(2, 9)
            p = IntPoly(tuple(rng.randint(-4, 4) for _ in range(12)))
            direct = embed_def(eval_at_root(p, k))
            with mpmath.workprec(200):
                z = mpmath.expjpi(mpmath.mpf(2) / k)
                numeric = sum(int(c) * z ** e for e, c in enumerate(p.coeffs))
            assert embed_close(direct, numeric)
