"""Exact dense polynomial arithmetic over Z and Q in one variable q.

Coefficients are stored densely as an immutable tuple indexed by exponent,
with trailing zeros stripped; the zero polynomial has an empty tuple.
IntPoly holds arbitrary-precision integers (never bools), RatPoly holds
only Fractions.  Both are records (qstrange._record), so they are frozen
and compare, hash, copy and pickle by their coefficients.  They have two
constructors: the public one, IntPoly(coeffs) or RatPoly(coeffs), coerces
and validates every coefficient and refuses bools, floats and (for
IntPoly) non-integral Fractions; the private IntPoly._new(coeffs) trusts
an integer sequence produced by list arithmetic on IntPoly coefficients
and only strips trailing zeros.  RatPoly has no trusted path: its results
always go through the coercing constructor, so an int never slips in.
Everything here is exact: no floats enter at any point.

General products use the schoolbook rule.  The q-Pochhammer kernels
(q;q)_n and (q;q^2)_n are products of binomials 1 - q^e, applied one
binomial at a time: mul_binomial multiplies a coefficient list by one
binomial with a shift and a subtraction, as pochhammer builds a kernel,
and its inverse div_binomial divides by one with a running sum per
residue class mod e.  The certificates (dissection.verify_theorem) call
div_binomial directly, on each residue slice of a partial sum, for each e
in pochhammer_exponents(n, step) in turn.  exact_div, for any divisors,
runs integer long division, so tests can check div_binomial against it.

The exact stream of qfamilies (its ladder of weights and its Horner sums)
adds shifted polynomials and multiplies by binomials, but forms no product
of two polynomials.  It works on polynomials packed into one int each,
sum c_i 2**(width*i) with width a whole number of 64-bit words: a shift by
q**k is a shift by k*width bits and a sum is one int addition, each a
single pass in C.  _encode, _decode, _respace and _truncate are that
codec.  A slot is exact while |c_i| < 2**(width-1); the callers bound that
by l1 norms kept as plain ints (the Horner sum also by measuring itself)
and move to a doubled width with _respace before it fails.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import struct
from collections.abc import Sequence
from fractions import Fraction

from qstrange._memo import memo
from qstrange._record import Record, _set

__all__ = [
    "IntPoly",
    "RatPoly",
    "NotDivisible",
    "exact_div",
    "theta_deriv",
    "subst_one_minus_q",
    "cyclotomic",
    "mul_binomial",
    "div_binomial",
    "pochhammer_exponents",
    "pochhammer",
]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder or a non-integer quotient."""


# Exact numbers read as text (JSON coefficients, character values and
# residue keys) have one grammar: an optional sign and ASCII digits and, for
# a rational, an optional /digits (not zero) or .digits.  int() and
# Fraction() also take some of "1_0", " 7", "1 / 2" and non-ASCII digits,
# which ones by Python version; on this grammar they agree everywhere.  No
# run of digits may be longer than CPython's default limit on int-string
# conversion, whatever limit the interpreter is set to (the CLI lifts it):
# past it, reading a number takes quadratic time.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")
_DIGIT_RUN = re.compile(r"[0-9]+")
_MAX_DIGITS = 4300


def _parse_number(c, rational: bool = False):
    """c as an int, or with rational set as a Fraction, when c is an int
    (not a bool) or a string in the grammar above; ValueError otherwise."""
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c) if rational else c
    if (isinstance(c, str) and (_RATIONAL if rational else _INTEGER).fullmatch(c)
            and (len(c) <= _MAX_DIGITS
                 or max(map(len, _DIGIT_RUN.findall(c))) <= _MAX_DIGITS)):
        return Fraction(c) if rational else int(c)
    kind = "rational" if rational else "integer"
    raise ValueError(f"{_quoted(c)} is not an exact {kind}")


def _quoted(value) -> str:
    """repr(value) for an error line; a value whose text is over 60
    characters shows its first 60 and its length, so that an error line
    stays short whatever input it echoes."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 60:
        return repr(value)
    return f"{text[:60]!r}... ({len(text)} characters)"


def _add_into(acc: list, coeffs: Sequence, off: int = 0) -> list:
    """acc += q^off * coeffs, coefficientwise and in place."""
    end = off + len(coeffs)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[off:end] = map(operator.add, acc[off:end], coeffs)
    return acc


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


def div_binomial(coeffs: Sequence, e: int) -> list:
    """Coefficient list of coeffs / (1 - q^e), for e >= 1; inverts mul_binomial.

    From p = Q (1 - q^e), Q_i = p_i + Q_(i-e): within each residue class
    mod e the quotient is the running sum of p's coefficients, and the
    class's last running sum is its coefficient of the remainder.  Raises
    NotDivisible unless every class ends at 0.  O(len + e); a list without
    trailing zeros gives a list without trailing zeros.  At e = 1, where
    most refusals of a certificate fall (a slice whose value at q = 1 is
    not 0), the remainder p(1) is summed first, and a quotient is one
    running sum less its last entry.
    """
    if e < 1:
        raise ValueError("binomial exponent must be positive")
    if e == 1:
        if sum(coeffs):
            raise NotDivisible("nonzero remainder")
        quo = list(itertools.accumulate(coeffs))
        del quo[-1:]
        return quo
    quo = [0] * len(coeffs)
    for r in range(e):
        sums = list(itertools.accumulate(coeffs[r::e]))
        if sums and sums[-1]:
            raise NotDivisible("nonzero remainder")
        quo[r::e] = sums
    # each class's last index lies in the top e, where the sums are 0
    del quo[max(len(coeffs) - e, 0):]
    return quo


WORD = 64  # bits in one slot word; packed widths are multiples of it
_TOP = 1 << (WORD - 1)


def _halves(width: int, n: int, spacing: int = 0) -> int:
    """2**(width-1) in each of n slots of spacing bits, by default width."""
    pad = bytes(max(spacing - width, 0) // 8)
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80" + pad) * n, "little")


def _encode(coeffs: Sequence, width: int) -> int:
    """sum c_i 2**(width*i), for ints with -2**(width-1) <= c_i < 2**(width-1).

    Each c_i is written in two's complement, one slot each; flipping the
    top bit of every slot makes the slot c_i + 2**(width-1), a sum with no
    carries, from which the offsets are then subtracted.  Only inline
    terms are encoded (the stream's other weights start packed), so one
    plain loop serves every width.
    """
    size, half = width // 8, _halves(width, len(coeffs))
    raw = b"".join(c.to_bytes(size, "little", signed=True) for c in coeffs)
    return (int.from_bytes(raw, "little") ^ half) - half


def _decode(x: int, width: int) -> tuple:
    """The coefficients of a packed int, lowest first, possibly with
    trailing zeros; inverts _encode while every |c_i| < 2**(width-1).

    The offsets make every slot c_i + 2**(width-1) >= 0; its words are
    read in one call and joined, the top one less its offset.
    """
    n = abs(x).bit_length() // width + 1  # the top slot is at most n-1
    half = _halves(width, n)
    if width == WORD:
        raw = ((x + half) ^ half).to_bytes(8 * n, "little")
        return struct.unpack(f"<{n}q", raw)
    k = width // WORD
    raw = (x + half).to_bytes(8 * n * k, "little")
    words = struct.unpack(f"<{n * k}Q", raw)
    out = map(operator.sub, words[k - 1::k], itertools.repeat(_TOP))
    for j in range(k - 2, -1, -1):
        out = map(operator.lshift, out, itertools.repeat(WORD))
        out = map(operator.add, out, words[j::k])
    return tuple(out)


def _respace(x: int, width: int, new: int) -> int:
    """The packed int x, its slots moved from width to width new >= width.

    With the offsets added every slot is a nonnegative number of width
    bits, so its words are copied into the low words of the wider slots
    and the offsets, now one per wider slot, taken off again.
    """
    n = abs(x).bit_length() // width + 1
    k, wide = width // WORD, new // WORD
    raw = memoryview((x + _halves(width, n)).to_bytes(8 * n * k, "little"))
    buf = bytearray(8 * n * wide)
    out, words = memoryview(buf).cast("Q"), raw.cast("Q")
    for j in range(k):  # whole 8-byte units, so byte order does not matter
        out[j::wide] = words[j::k]
    return int.from_bytes(buf, "little") - _halves(width, n, new)


def _truncate(x: int, width: int, n: int) -> int:
    """The packed int of x's slots 0..n-1, the rest dropped.  Adding the
    offsets makes every slot nonnegative, so a mask cuts it exactly.  x is
    returned as it is when it holds no slot from n on (counted as _decode
    counts them), so the cost follows x, not n."""
    if n > abs(x).bit_length() // width:
        return x
    half = _halves(width, n)
    return ((x + half) & ((1 << width * n) - 1)) - half


def _fitting(width: int, bound: int) -> int:
    """width, doubled until a slot holds every |c| <= bound."""
    while bound >> (width - 1):
        width *= 2
    return width


def _stripped(cs: tuple) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


class _BasePoly(Record):
    """Shared implementation; subclasses fix the coefficient domain."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        _set(self, "coeffs", _stripped(tuple(map(self._coerce, coeffs))))

    @classmethod
    def _new(cls, coeffs: Sequence):
        """Result of list arithmetic on coefficients; revalidated here."""
        return cls(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

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

    # -- ring operations ---------------------------------------------------

    def _same_kind(self, other):
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")

    def __add__(self, other):
        self._same_kind(other)
        return self._new(_add_into(list(self.coeffs), other.coeffs))

    def __sub__(self, other):
        self._same_kind(other)
        return self._new(_sub_lists(self.coeffs, other.coeffs))

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __mul__(self, other):
        if type(other) is type(self):
            return self._new(_mul_lists(self.coeffs, other.coeffs))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = self._coerce(c)
        return self._new([c * a for a in self.coeffs])

    def shift(self, exponent: int):
        """Multiply by q**exponent."""
        if not self.coeffs:
            return self
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return self._new((0,) * exponent + self.coeffs)

    def dilate(self, s: int):
        """Substitute q -> q**s (exponent dilation)."""
        if s < 1:
            raise ValueError("dilation step must be positive")
        if s == 1 or not self.coeffs:
            return self
        out = [0] * (s * self.degree + 1)
        out[::s] = self.coeffs
        return self._new(out)

    def derivative(self):
        """Formal d/dq."""
        return self._new([e * c for e, c in enumerate(self.coeffs) if e])

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


class IntPoly(_BasePoly):
    """Dense polynomial with integer coefficients."""

    __slots__ = ()  # coeffs is _BasePoly's slot

    @classmethod
    def _new(cls, coeffs: Sequence) -> "IntPoly":
        """Trusted constructor: coeffs are ints (never bools), as list
        arithmetic on IntPoly coefficients yields; only trailing zeros are
        stripped, and the sequence itself is never modified."""
        x = object.__new__(cls)
        _set(x, "coeffs", _stripped(tuple(coeffs)))
        return x

    @staticmethod
    def _coerce(c) -> int:
        if type(c) is int:  # the hot path; False and True fail it
            return c
        if isinstance(c, int) and not isinstance(c, bool):
            return c
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            return c.numerator
        raise TypeError(f"cannot use {type(c).__name__} as an integer coefficient")

    _parse_coeff = staticmethod(_parse_number)


class RatPoly(_BasePoly):
    """Dense polynomial with exact rational coefficients, held as Fractions."""

    __slots__ = ()  # as for IntPoly

    @staticmethod
    def _coerce(c) -> Fraction:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int) and not isinstance(c, bool):
            return Fraction(c)
        raise TypeError(f"cannot use {type(c).__name__} as a rational coefficient")

    _parse_coeff = staticmethod(functools.partial(_parse_number, rational=True))


def exact_div(p: IntPoly, *divisors: IntPoly) -> IntPoly:
    """Exact quotient of p by the product of the divisors, in Z[q].

    exact_div(p, d1, ..., dk) divides by d1, then the quotient by d2, and so
    on, and raises NotDivisible at the first step that leaves a remainder or
    a non-integer quotient.  Quotients in Z[q] are unique, so this gives the
    same quotient and verdict as one division by d1*...*dk.  With no
    divisors the quotient is p.

    Each step is integer long division, whose inner loop visits only the
    divisor's nonzero coefficients below the top, and which stops at the
    first quotient term that is not an integer.
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
    return IntPoly._new(num)


def _div_step(num: list, d: IntPoly) -> list:
    """Quotient of a nonzero coefficient list (no trailing zeros) by d.

    num may be used as the remainder buffer, and overwritten.
    """
    dd, dc = d.degree, d.coeffs
    lead = dc[-1]
    # the quotient term t = c/lead removes t*d_i from position base+i for
    # every nonzero lower d_i; quotients are unique, so t must be integral
    terms = [(i, c) for i, c in enumerate(dc[:-1]) if c]
    quo = [0] * (len(num) - dd)
    for top in range(len(num) - 1, dd - 1, -1):
        c = num[top]
        if c:
            t, rest = divmod(c, lead)
            if rest:
                raise NotDivisible("quotient is not integral")
            base = top - dd
            quo[base] = t
            for i, di in terms:
                num[base + i] -= t * di
    if any(num[:dd]):
        raise NotDivisible("nonzero remainder")
    return quo


def theta_deriv(p, times: int = 1):
    """Apply (q d/dq) the given number of times: coefficient c_e maps to e**times * c_e."""
    if times < 0:
        raise ValueError("times must be nonnegative")
    return p._new([e ** times * c for e, c in enumerate(p.coeffs)])


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
    return IntPoly._new(acc)


def _one_minus_q_coeff(p: IntPoly, k: int) -> int:
    """The coefficient of q**k in p(1-q), (-1)**k sum_(e>=k) c_e C(e, k),
    in one pass over p: C(e, k) = C(e-1, k) e / (e-k)."""
    total, binom = 0, 1
    for e in range(k, len(p.coeffs)):
        if e > k:
            binom = binom * e // (e - k)
        total += p.coeffs[e] * binom
    return -total if k % 2 else total


def _cyclotomic_binomials(k: int) -> list:
    """(d, mu(k/d)) for the d | k with mu(k/d) != 0, so that
    Phi_k = prod (1 - q^d)^mu(k/d) for k > 1 (the mu add up to 0) and
    -Phi_1 for k = 1: each prime p of k adds d/p with the opposite sign
    for each d so far."""
    factors, n, p = [(k, 1)], k, 2
    while n > 1:
        if p * p > n:
            p = n  # n is prime: every smaller prime is divided out
        if n % p == 0:
            factors += [(d // p, -mu) for d, mu in factors]
            while n % p == 0:
                n //= p
        p += 1
    return factors


@memo
def cyclotomic(k: int) -> IntPoly:
    """k-th cyclotomic polynomial, monic, with cyclotomic(1) = q - 1.

    The product of _cyclotomic_binomials(k); the mu = +1 binomials go
    first, so each division is exact.  Memoized, within _memo's byte
    budget: Phi_k near k = 90000 holds about 0.44 MB, and root matching
    reads at most a handful of conductors.
    """
    if k < 1:
        raise ValueError("k must be positive")
    coeffs = [1]
    for d, mu in sorted(_cyclotomic_binomials(k), key=lambda f: -f[1]):
        coeffs = mul_binomial(coeffs, d) if mu > 0 else div_binomial(coeffs, d)
    return IntPoly._new([-c for c in coeffs] if k == 1 else coeffs)


def pochhammer_exponents(n: int, step: int = 1) -> range:
    """Exponents e of the binomial factors 1 - q^e of pochhammer(n, step).

    step=1 gives 1..n, step=2 gives the odd numbers 1..2n-1.
    """
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return range(1, n + 1) if step == 1 else range(1, 2 * n, 2)


def pochhammer(n: int, step: int = 1) -> IntPoly:
    """q-Pochhammer products.

    step=1 gives (q;q)_n = prod_{j=1..n} (1 - q^j); step=2 gives the odd
    product (q;q^2)_n = prod_{j=1..n} (1 - q^(2j-1)).  pochhammer(0, s) = 1.
    Built one binomial factor at a time; nothing is cached.
    """
    coeffs = [1]
    for e in pochhammer_exponents(n, step):
        coeffs = mul_binomial(coeffs, e)
    return IntPoly._new(coeffs)
