"""Exact arithmetic in the cyclotomic fields Q(zeta_k).

An element is stored as its canonical residue mod the k-th cyclotomic
polynomial Phi_k, written as integer coordinates over one denominator:

    x = (num[0] + num[1]*zeta + ... + num[d-1]*zeta**(d-1)) / den,

with d at most phi(k) = deg Phi_k, trailing zeros stripped, den > 0 and
the whole in lowest terms, so equal elements have equal fields.  Products
fold exponents with zeta**k = 1 and reduce from the top by Phi_k, which is
monic, so the coordinates stay integers.  Only ints (never bools) and
Fractions are accepted as rationals: a float is refused rather than turned
into a binary fraction.  All operations stay exact: no floating point
enters at any point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub

from qstrange._record import Record, _set
from qstrange.exactpoly import (RatPoly, _add_into, _cyclotomic_binomials,
                                _mul_lists, _sub_lists, cyclotomic)

__all__ = ["CycloNum", "ConductorMismatch", "eval_at_root"]


class ConductorMismatch(ValueError):
    """Arithmetic tried to mix elements of different cyclotomic fields."""


def _fold(k: int, coeffs: list, phi: tuple | None = None) -> list:
    """Integer coordinates of sum coeffs[e] * zeta**e, any length: exponents
    mod k, then each term from the top down to phi(k) removed by the monic
    Phi_k's nonzero coefficients.  When that costs over 2k steps (Phi_2p
    has p terms and p + 1 coordinates to remove), the remainder comes from
    the quotient's power series instead (_fold_by_series).  A short coeffs
    is returned itself.  phi is Phi_k's coefficients, read from its memo
    when not given: a loop that folds many values at one k reads it once."""
    if phi is None:
        phi = cyclotomic(k).coeffs
    d = len(phi) - 1
    if len(coeffs) <= d:
        return coeffs
    out = coeffs[:k]
    for base in range(k, len(coeffs), k):
        _add_into(out, coeffs[base:base + k])
    terms = [(i, c) for i, c in enumerate(phi[:-1]) if c]
    if (len(out) - d) * len(terms) > 2 * k:
        return _fold_by_series(k, out, d)
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            base = top - d
            for i, p in terms:
                out[base + i] -= c * p
    return out[:d]


def _folded(k: int, terms, phi: tuple | None = None) -> list:
    """Integer coordinates of sum c * zeta_k**power over the pairs
    (power, c) of terms, power < k: each c is added into the bucket of its
    power, so equal powers merge, and the k buckets are folded once, by
    _fold with phi."""
    buckets = [0] * k
    for power, c in terms:
        buckets[power] += c
    return _fold(k, buckets, phi)


def _exact(x):
    """x when it is an int (not a bool) or a Fraction; TypeError otherwise."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return x
    raise TypeError(f"cannot use {type(x).__name__} {x!r} as an exact rational")


def _normal(num: list, den: int) -> tuple:
    """(numerators, denominator) stripped, with den > 0, in lowest terms."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    return tuple(num), den


def _new(k: int, num: list, den: int) -> "CycloNum":
    """Element from integer coordinates already reduced mod Phi_k."""
    num, den = _normal(num, den)
    x = object.__new__(CycloNum)
    _set(x, "k", k)
    _set(x, "num", num)
    _set(x, "den", den)
    return x


class CycloNum(Record):
    """One element of Q(zeta_k), zeta_k = exp(2*pi*i/k).

    CycloNum(k, coeffs, den=1) is (sum coeffs[e] * zeta**e) / den for any
    exact rational coeffs (a sequence or a RatPoly) of any length and a
    nonzero int den; the fields hold the reduced integer form.
    rational(), scale() and the arithmetic build their results from
    integers through the trusted _new instead.
    """

    __slots__ = ("k", "num", "den")

    def __init__(self, k: int, num, den: int = 1):
        if k < 1:
            raise ValueError("k must be positive")
        den = _exact(den)
        if not isinstance(den, int) or not den:
            raise ValueError(f"denominator must be a nonzero integer, got {den!r}")
        coeffs = num.coeffs if isinstance(num, RatPoly) else num
        values = [_exact(c) for c in coeffs]
        common = math.lcm(*(c.denominator for c in values))
        ints = [c.numerator * (common // c.denominator) for c in values]
        super().__init__(k, *_normal(_fold(k, ints), den * common))

    @classmethod
    def rational(cls, k: int, x) -> "CycloNum":
        x = _exact(x)
        if k < 1:
            raise ValueError("k must be positive")
        return _new(k, [x.numerator], x.denominator)

    @property
    def rep(self) -> RatPoly:
        """The element as a rational polynomial in zeta of degree below phi(k)."""
        den = self.den
        return RatPoly([Fraction(c, den) for c in self.num])

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNum):
            if isinstance(other, (int, Fraction)):
                return self.is_rational() and self.as_fraction() == other
            return NotImplemented
        if self.k != other.k and not (self.is_rational() and other.is_rational()):
            raise ConductorMismatch(f"fields Q(zeta_{self.k}) and Q(zeta_{other.k})")
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a rational element equals its Fraction (in any field), so it hashes as one
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.k, self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    def _match(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other.k != self.k:
                raise ConductorMismatch(
                    f"fields Q(zeta_{self.k}) and Q(zeta_{other.k})")
            return other
        x = _exact(other)
        return _new(self.k, [x.numerator], x.denominator)

    def _combine(self, other: "CycloNum", kernel) -> "CycloNum":
        """kernel(a, b) of the numerators brought over one denominator."""
        a, b = list(self.num), other.num
        da, db = self.den, other.den
        if da != db:
            a = [c * db for c in a]
            b = [c * da for c in b]
            da *= db
        return _new(self.k, kernel(a, b), da)

    def __add__(self, other):
        return self._combine(self._match(other), _add_into)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._match(other), _sub_lists)

    def __rsub__(self, other):
        return self._match(other) - self

    def __neg__(self):
        return _new(self.k, [-c for c in self.num], self.den)

    def __mul__(self, other):
        other = self._match(other)
        prod = _mul_lists(self.num, other.num)
        return _new(self.k, _fold(self.k, prod), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = CycloNum.rational(self.k, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "CycloNum":
        c = _exact(c)
        p = c.numerator
        return _new(self.k, [x * p for x in self.num], self.den * c.denominator)

    # -- output --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CycloNum(k={self.k}, {self.rep.coeffs})"

    def __str__(self) -> str:
        return f"[{self.rep}]_zeta{self.k}"


def eval_at_root(p, k: int, power: int = 1) -> CycloNum:
    """Value of an IntPoly or RatPoly at q = zeta_k**power: its coefficients
    over their common denominator, each placed at its power e * power mod k
    and folded once."""
    if k < 1:
        raise ValueError("k must be positive")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    terms = ((e * power % k, c.numerator * (den // c.denominator))
             for e, c in enumerate(p.coeffs) if c)
    return _new(k, _folded(k, terms), den)


def _fold_by_series(k: int, out: list, d: int) -> list:
    """out mod Phi_k, for k > 1, d = phi(k) < len(out) <= k.

    Phi_k is a product of binomials (1 - x^e)^(+-1) and is palindromic, so
    the quotient of out by Phi_k, reversed, is the reversed out times
    1/Phi_k to len(out) - d terms, and the remainder is out - Phi_k * Q
    below x^d: each is one pass per binomial over a truncated series.
    """
    binomials = _cyclotomic_binomials(k)
    quo = out[:d - 1:-1]
    for e, mu in binomials:
        _times_binomial(quo, e, -mu)
    quo.reverse()
    low = quo[:d] + [0] * (d - len(quo))
    for e, mu in binomials:
        _times_binomial(low, e, mu)
    return list(map(sub, out[:d], low))


def _times_binomial(c: list, e: int, mu: int) -> None:
    """c times (1 - x^e)^mu, mu = +-1, as a series truncated to len(c), in
    place: for mu = -1 each block of e coefficients adds the one below."""
    if mu > 0:
        c[e:] = map(sub, c[e:], c[:-e])
    else:
        for base in range(e, len(c), e):
            c[base:base + e] = map(add, c[base:base + e], c[base - e:base])
