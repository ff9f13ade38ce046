"""Exact dense polynomial arithmetic over Z and Q in one variable q.

Coefficients are stored densely as an immutable tuple indexed by exponent,
with trailing zeros stripped; the zero polynomial has an empty tuple.
IntPoly holds arbitrary-precision integers, RatPoly holds Fractions.
Everything here is exact: no floats enter at any point.

General products use the schoolbook rule.  The q-Pochhammer kernels
(q;q)_n and (q;q^2)_n are products of binomials 1 - q^e, and partial sums
and certificates apply them one binomial at a time: mul_binomial
multiplies a coefficient list by one binomial with a shift and a
subtraction, and exact_div(p, *pochhammer_factors(n, step)) divides by the
binomials in turn.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "IntPoly",
    "RatPoly",
    "NotDivisible",
    "exact_div",
    "theta_deriv",
    "subst_one_minus_q",
    "cyclotomic",
    "mul_binomial",
    "pochhammer_exponents",
    "pochhammer_factors",
    "pochhammer",
    "qbinomial",
]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder or a non-integer quotient."""


def _add_lists(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _sub_lists(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _mul_lists(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def mul_binomial(coeffs: Sequence, e: int) -> list:
    """Coefficient list of coeffs * (1 - q^e), for e >= 1.

    One shift and one subtraction, O(len + e).  A list without trailing
    zeros gives a list without trailing zeros; the empty list stays empty.
    """
    if e < 1:
        raise ValueError("binomial exponent must be positive")
    if not coeffs:
        return []
    c = list(coeffs)
    pad = [0] * e
    return list(map(operator.sub, c + pad, pad + c))


class _BasePoly:
    """Shared implementation; subclasses fix the coefficient domain."""

    __slots__ = ("coeffs",)

    coeffs: tuple

    @staticmethod
    def _coerce(c):
        raise NotImplementedError

    def __init__(self, coeffs: Iterable = ()):
        cs = [self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient=1):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, exponent: int):
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return self._coerce(0)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    # -- ring operations ---------------------------------------------------

    def _same_kind(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")

    def __add__(self, other):
        self._same_kind(other)
        return type(self)(_add_lists(list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        self._same_kind(other)
        return type(self)(_sub_lists(list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if type(other) is type(self):
            return type(self)(_mul_lists(self.coeffs, other.coeffs))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = self._coerce(c)
        return type(self)(tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = type(self).one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, exponent: int):
        """Multiply by q**exponent."""
        if not self.coeffs:
            return self
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return type(self)((0,) * exponent + self.coeffs)

    def dilate(self, s: int):
        """Substitute q -> q**s (exponent dilation)."""
        if s < 1:
            raise ValueError("dilation step must be positive")
        if s == 1 or not self.coeffs:
            return self
        out = [0] * (s * self.degree + 1)
        for e, c in enumerate(self.coeffs):
            out[s * e] = c
        return type(self)(out)

    def derivative(self):
        """Formal d/dq."""
        return type(self)(tuple(e * c for e, c in enumerate(self.coeffs) if e))

    def evaluate(self, x):
        """Horner evaluation at any value supporting + and *."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncate(self, cap: int):
        """Drop all terms of degree above cap."""
        if cap < 0:
            return type(self)()
        return type(self)(self.coeffs[: cap + 1])

    def valuation(self) -> int:
        """Least exponent with nonzero coefficient; -1 for the zero polynomial."""
        for e, c in enumerate(self.coeffs):
            if c:
                return e
        return -1

    # -- text and JSON -----------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"

    def to_json_obj(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict):
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
        return cls(cls._parse_coeff(c) for c in obj["coeffs"])

    @staticmethod
    def _parse_coeff(c):
        raise NotImplementedError


class IntPoly(_BasePoly):
    """Dense polynomial with integer coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(c) -> int:
        if isinstance(c, int):
            return c
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            return c.numerator
        raise TypeError(f"cannot use {type(c).__name__} as an integer coefficient")

    @staticmethod
    def _parse_coeff(c) -> int:
        if isinstance(c, int) and not isinstance(c, bool):
            return c
        if isinstance(c, str):
            return int(c, 10)
        raise ValueError(f"bad integer coefficient {c!r}")

    def to_rat(self) -> "RatPoly":
        return RatPoly(self.coeffs)


class RatPoly(_BasePoly):
    """Dense polynomial with exact rational coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(c) -> Fraction:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")

    @staticmethod
    def _parse_coeff(c) -> Fraction:
        if isinstance(c, (int, str)) and not isinstance(c, bool):
            return Fraction(c)
        raise ValueError(f"bad rational coefficient {c!r}")

    def to_int_poly(self) -> IntPoly:
        """Convert when every coefficient is integral; raises otherwise."""
        return IntPoly(self.coeffs)

    def divmod_by(self, d: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Quotient and remainder over Q; d must be nonzero."""
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = d.coeffs
        dd = d.degree
        lead = dc[-1]
        quo = [Fraction(0)] * max(len(rem) - dd, 0)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top]
            if not c:
                continue
            f = c / lead
            quo[top - dd] = f
            for i, dcoef in enumerate(dc):
                rem[top - dd + i] -= f * dcoef
        return RatPoly(quo), RatPoly(rem)


def exact_div(p: IntPoly, *divisors: IntPoly) -> IntPoly:
    """Exact quotient of p by the product of the divisors, in Z[q].

    exact_div(p, d1, ..., dk) divides by d1, then the quotient by d2, and so
    on, and raises NotDivisible at the first step that leaves a remainder or
    a non-integer quotient.  Quotients in Z[q] are unique, so this gives the
    same quotient and verdict as one division by d1*...*dk.  With no
    divisors the quotient is p.

    A step runs in the integers when its divisor has leading coefficient
    +-1 (every binomial 1 - q^e does), and its inner loop visits only the
    divisor's nonzero coefficients, so dividing by 1 - q^e costs O(deg p).
    Other divisors go through the rationals with an integrality check.
    """
    if not isinstance(p, IntPoly) or not all(isinstance(d, IntPoly) for d in divisors):
        raise TypeError("exact_div expects IntPoly arguments")
    if not all(divisors):
        raise ZeroDivisionError("exact division by the zero polynomial")
    if not p:
        return IntPoly()
    num = list(p.coeffs)
    for d in divisors:
        num = _div_step(num, d)
    return IntPoly(num)


def _div_step(num: list, d: IntPoly) -> list:
    """Quotient of a nonzero coefficient list (no trailing zeros) by d.

    num is used as the remainder buffer and is overwritten.
    """
    dd = d.degree
    if len(num) - 1 < dd:
        raise NotDivisible(f"degree {len(num) - 1} < divisor degree {dd}")
    lead = d.coeffs[-1]
    if lead not in (1, -1):
        q, r = RatPoly(num).divmod_by(d.to_rat())
        if r:
            raise NotDivisible("nonzero remainder")
        try:
            return list(q.to_int_poly().coeffs)
        except ValueError as exc:
            raise NotDivisible("quotient is not integral") from exc
    # lead is self-inverse: the quotient term is c*lead, and it removes
    # c*lead*d_i from position base+i for every nonzero lower term d_i
    terms = [(i, lead * c) for i, c in enumerate(d.coeffs[:-1]) if c]
    quo = [0] * (len(num) - dd)
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        if c:
            base = top - dd
            quo[base] = c * lead
            for i, t in terms:
                num[base + i] -= c * t
    if any(num[:dd]):
        raise NotDivisible("nonzero remainder")
    return quo


def theta_deriv(p, times: int = 1):
    """Apply (q d/dq) the given number of times: coefficient c_e maps to e**times * c_e."""
    if times < 0:
        raise ValueError("times must be nonnegative")
    return type(p)(tuple(e ** times * c for e, c in enumerate(p.coeffs)))


def subst_one_minus_q(p: IntPoly, cap: int) -> IntPoly:
    """p(1-q) truncated at degree cap, by Horner from the top coefficient."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    acc = [0] * (cap + 1)
    for c in reversed(p.coeffs):
        # acc <- acc*(1-q) + c, in place; descending index keeps old values live
        for i in range(min(cap, len(acc) - 1), 0, -1):
            acc[i] -= acc[i - 1]
        acc[0] += c
    return IntPoly(acc)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """k-th cyclotomic polynomial, monic, with cyclotomic(1) = q - 1."""
    if k < 1:
        raise ValueError("k must be positive")
    p = IntPoly((-1,) + (0,) * (k - 1) + (1,))  # q^k - 1
    for d in _divisors(k):
        if d < k:
            p = exact_div(p, cyclotomic(d))
    return p


def pochhammer_exponents(n: int, step: int = 1) -> range:
    """Exponents e of the binomial factors 1 - q^e of pochhammer(n, step).

    step=1 gives 1..n, step=2 gives the odd numbers 1..2n-1.
    """
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return range(1, n + 1) if step == 1 else range(1, 2 * n, 2)


def pochhammer_factors(n: int, step: int = 1) -> tuple[IntPoly, ...]:
    """The binomials 1 - q^e whose product is pochhammer(n, step), in order."""
    return tuple(IntPoly((1,) + (0,) * (e - 1) + (-1,))
                 for e in pochhammer_exponents(n, step))


def pochhammer(n: int, step: int = 1) -> IntPoly:
    """q-Pochhammer products.

    step=1 gives (q;q)_n = prod_{j=1..n} (1 - q^j); step=2 gives the odd
    product (q;q^2)_n = prod_{j=1..n} (1 - q^(2j-1)).  pochhammer(0, s) = 1.
    Built one binomial factor at a time; nothing is cached.
    """
    coeffs = [1]
    for e in pochhammer_exponents(n, step):
        coeffs = mul_binomial(coeffs, e)
    return IntPoly(coeffs)


def qbinomial(n: int, k: int, square_base: bool = False) -> IntPoly:
    """Gaussian binomial [n choose k]_q, or the base-q^2 version.

    Zero outside 0 <= k <= n.  Computed by exact division of q-factorials,
    which is guaranteed to succeed.
    """
    if k < 0 or k > n:
        return IntPoly()
    base = exact_div(pochhammer(n), pochhammer(k) * pochhammer(n - k))
    return base.dilate(2) if square_base else base
