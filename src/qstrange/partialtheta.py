"""Characters with quadratic exponents and their partial theta machinery.

A character here is a periodic rational-valued function chi together with
the exponent data (a, b) and the weight nu, so that the attached partial
theta series is sum over n >= 0 of n^nu * chi(n) * q^((n^2-a)/b).  A
Character meets the support condition (integrality of the exponent) and
the mean-zero condition once it is built.  The module builds the twisted
sequences C(n) = zeta^((n^2-a)/b) * chi(n) at a root of unity, computes
L(-n, C) exactly through Bernoulli sums, and assembles the asymptotic
expansion coefficients gamma_n(zeta).

Everything is exact: character values are Fractions (only ints, Fractions
and exact strings are accepted), twisted entries are CycloNum.  A twisted
sequence keeps its nonzero entries as integer (power, coefficient) terms
over one common denominator, so L(-n, C) is one integer Horner pass of
B_{n+1} per nonzero entry, summed by power of zeta and folded mod Phi_k
once, and a single division.  L-value and gamma requests whose work
estimate exceeds MAX_L_WORK, and twisted sequences whose period exceeds
MAX_TWIST_PERIOD, are refused with InvalidParam before any arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from qstrange._admit import MAX_L_WORK, MAX_TWIST_PERIOD, admit
from qstrange._record import Record
from qstrange.cyclofield import CycloNum, _fold, _new
from qstrange.exactpoly import RatPoly
from qstrange.qfamilies import ParseError, _builtin_params

__all__ = [
    "Character",
    "TwistedSeq",
    "CharacterInvalid",
    "IntegralityViolation",
    "MeanValueNonzero",
    "get_character",
    "character_from_json_obj",
    "twisted_sequence",
    "bernoulli_number",
    "l_value",
    "l_value_work",
    "gamma_coeff",
    "gamma_work",
    "MAX_L_WORK",
    "MAX_TWIST_PERIOD",
    "theta_truncated",
]


class CharacterInvalid(ValueError):
    """Character data violates one of the admissibility conditions."""


class IntegralityViolation(CharacterInvalid):
    """Some supported n has (n^2 - a)/b outside the integers."""


class MeanValueNonzero(CharacterInvalid):
    """The (twisted) mean over one period is not zero."""


def _exact_value(v) -> Fraction:
    """A character value as a Fraction; only ints, Fractions and strings such
    as "-1/2" are exact, so a float or bool is refused, never rounded."""
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
        raise CharacterInvalid(f"character value {v!r} is not an exact rational")
    try:
        return Fraction(v)
    except ValueError as exc:
        raise CharacterInvalid(f"character value {v!r}: {exc}") from None


class Character(Record, compare=("a", "b", "nu", "period", "values")):
    """Periodic rational character with quadratic exponent data (a, b, nu).

    values, a {residue: value} dict or one full period of ints, Fractions or
    exact strings, is stored as a tuple of Fractions.  Equality and hashing
    compare every field but the label; the hash is computed once, since
    every twisted_sequence call hashes its character.  Refused with
    InvalidParam, before its table is built, when lcm(period, b) exceeds
    MAX_TWIST_PERIOD.  Then (chi1) integrality is checked on the support
    within lcm(period, b) indices, since the exponent map has period b, not
    the period, and (chi2) the zero mean over one period.
    """

    __slots__ = ("a", "b", "nu", "period", "values", "label", "_hash")

    def __init__(self, a: int, b: int, nu: int, period: int, values,
                 label: str = "custom"):
        if b < 1:
            raise CharacterInvalid("b must be positive")
        if a < 0:
            raise CharacterInvalid("a must be nonnegative")
        if nu not in (0, 1):
            raise CharacterInvalid("nu must be 0 or 1")
        if period < 1:
            raise CharacterInvalid("period must be positive")
        admit("MAX_TWIST_PERIOD", math.lcm(period, b),
              f"period of character {label}")
        if isinstance(values, dict):
            table = [Fraction(0)] * period
            for key, val in values.items():
                n = int(key)
                if not 0 <= n < period:
                    raise CharacterInvalid(f"residue {n} outside 0..{period - 1}")
                table[n] = _exact_value(val)
        else:
            table = [_exact_value(v) for v in values]
            if len(table) != period:
                raise CharacterInvalid("values length must equal the period")
        values = tuple(table)
        super().__init__(a, b, nu, period, values, label,
                         hash((a, b, nu, period, values)))
        for n in self.support(math.lcm(period, b)):
            self.exponent(n)  # raises IntegralityViolation when fractional
        mean = sum(filter(None, values))  # the zeros add nothing
        if mean:
            raise MeanValueNonzero(f"character mean over one period is {mean}")

    def __hash__(self):
        return self._hash

    def value(self, n: int) -> Fraction:
        return self.values[n % self.period]

    def support(self, span: int) -> Iterator[int]:
        """The n in 0..span-1 with value(n) != 0, ascending; span must be a
        multiple of the period."""
        rs = [r for r, v in enumerate(self.values) if v]
        return (base + r for base in range(0, span, self.period) for r in rs)

    def exponent(self, n: int) -> int:
        """(n^2 - a)/b for a supported n; exact integer or IntegralityViolation."""
        num = n * n - self.a
        if num % self.b:
            raise IntegralityViolation(f"(({n})^2 - {self.a})/{self.b} is not an integer")
        return num // self.b

    def __repr__(self):
        return f"Character({self.label!r}, a={self.a}, b={self.b}, nu={self.nu}, T={self.period})"

    def to_json_obj(self) -> dict:
        vals = {str(n): str(v) for n, v in enumerate(self.values) if v}
        return {"a": self.a, "b": self.b, "nu": self.nu,
                "period": self.period, "values": vals}


def character_from_json_obj(obj: dict, label: str = "custom") -> Character:
    """Character from its JSON form; a float or bool is refused, never rounded."""
    if not isinstance(obj, dict):
        raise ParseError("character JSON must be an object")
    for name in ("a", "b", "nu", "period"):
        if name not in obj:
            raise ParseError(f"character JSON missing field {name!r}")
        if type(obj[name]) is not int:
            raise ParseError(f"character field {name!r} must be an integer, got {obj[name]!r}")
    values = obj.get("values", {})
    entries = values.values() if isinstance(values, dict) else values
    if not isinstance(values, (dict, list)) or any(
            type(v) is not int and not isinstance(v, str) for v in entries):
        raise ParseError('character values must be integers or strings such as "-1/2"')
    return Character(obj["a"], obj["b"], obj["nu"], obj["period"], values, label)


# -- built-ins ----------------------------------------------------------------

def _chi_kz() -> Character:
    return Character(1, 24, 1, 12,
                     {1: Fraction(-1, 2), 11: Fraction(-1, 2),
                      5: Fraction(1, 2), 7: Fraction(1, 2)}, "chi_kz")


def _chi6() -> Character:
    return Character(1, 3, 0, 6, {1: 1, 2: 1, 4: -1, 5: -1}, "chi6")


def _chi_hikami(m: int, alpha: int) -> Character:
    T = 8 * m + 4
    minus = ((2 * m - 2 * alpha - 1) % T, (6 * m + 2 * alpha + 5) % T)
    plus = ((2 * m + 2 * alpha + 3) % T, (6 * m - 2 * alpha + 1) % T)
    assert len(set(minus + plus)) == 4
    vals = {n: Fraction(-1, 2) for n in minus}
    vals.update({n: Fraction(1, 2) for n in plus})
    return Character((2 * m - 2 * alpha - 1) ** 2, 8 * (2 * m + 1), 1, T, vals,
                     f"chi_hikami:m={m},alpha={alpha}")


def _chi_gk(k: int) -> Character:
    T = 4 * k + 2
    vals = {k: Fraction(1), k + 1: Fraction(1),
            (-k) % T: Fraction(-1), (-k - 1) % T: Fraction(-1)}
    return Character(k * k, 2 * k + 1, 0, T, vals, f"chi_gk:k={k}")


def get_character(name: str) -> Character:
    """Built-in character by name; see module docstring for the catalogue.

    A non-string is refused with ParseError.  The name's parameters are
    checked and the record is built once per stripped name, when it is
    first asked for; later calls return that same immutable record while
    it is among the latest 16 names asked for.  A refused or unknown name
    raises on every call.
    """
    if not isinstance(name, str):
        raise ParseError("character name must be a string")
    return _builtin_character(name.strip())


@functools.lru_cache(maxsize=16)
def _builtin_character(text: str) -> Character:
    if text == "chi_kz":
        return _chi_kz()
    if text == "chi6":
        return _chi6()
    head, _, tail = text.partition(":")
    if head == "chi_hikami":
        return _chi_hikami(*_builtin_params("hikami", tail, text))
    if head == "chi_gk":
        return _chi_gk(*_builtin_params("gk", tail, text))
    raise ParseError(f"unknown character name {text!r}")


# -- twisted sequences ---------------------------------------------------------

def _folded(k: int, rows) -> list:
    """Integer coordinates of the sum of the rows over Q(zeta_k): each term
    (power, c) adds c into the bucket of that power of zeta, and the k
    buckets are folded once."""
    buckets = [0] * k
    for _, terms in rows:
        for power, c in terms:
            buckets[power] += c
    return _fold(k, buckets)


def _sealed(seq, character: Character, k: int, j: int, period: int,
            rows: tuple, den: int) -> "TwistedSeq":
    """seq with its fields set, after refusing a nonzero twisted mean."""
    if any(_folded(k, rows)):
        raise MeanValueNonzero(
            f"twisted mean of {character.label} at zeta_{k}^{j} is nonzero")
    Record.__init__(seq, character, k, j, period, rows, den)
    return seq


class TwistedSeq(Record):
    """C(n) = zeta^((n^2-a)/b) * chi(n) tabulated over one full period.

    C(m) = sum c * zeta**power / den over the integer (power, c) terms of
    row m, power < k, for each m in 1..period with C(m) != 0, ascending.
    The public constructor keeps each table entry's nonzero coordinates;
    twisted_sequence writes one term per supported m.  Both refuse a
    nonzero twisted mean; table and entry are derived from rows.  Equality
    is identity; twisted_sequence shares one per (chi, k, j mod k).
    """

    __slots__ = ("character", "k", "j", "period", "rows", "den")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, character: Character, k: int, j: int, period: int,
                 table: tuple):
        if len(table) != period:
            raise ValueError("table length must equal the period")
        if not all(isinstance(x, CycloNum) and x.k == k for x in table):
            raise ValueError(f"table entries must lie in Q(zeta_{k})")
        nonzero = [(m, table[m % period]) for m in range(1, period + 1)
                   if table[m % period]]
        den = math.lcm(*(x.den for _, x in nonzero))
        rows = tuple((m, tuple((i, c * (den // x.den))
                               for i, c in enumerate(x.num) if c))
                     for m, x in nonzero)
        _sealed(self, character, k, j, period, rows, den)

    def entry(self, n: int) -> CycloNum:
        m = n % self.period or self.period
        at = bisect.bisect_left(self.rows, m, key=itemgetter(0))
        row = [r for r in self.rows[at:at + 1] if r[0] == m]
        return _new(self.k, _folded(self.k, row), self.den)

    @property
    def table(self) -> tuple:
        """C(0), ..., C(period - 1)."""
        return tuple(map(self.entry, range(self.period)))

    def __repr__(self):
        return (f"TwistedSeq({self.character.label!r}, zeta_{self.k}^{self.j}, "
                f"P={self.period})")


def twisted_sequence(char: Character, k: int, j: int) -> TwistedSeq:
    """Tabulate C(n) over P = lcm(T, b*k).

    C is P-periodic by construction: T divides P, and b*k dividing P makes
    the zeta-power ratio between n + P and n one.  Refused with InvalidParam,
    before any entry is built, when P exceeds MAX_TWIST_PERIOD.  The
    twisted mean is checked once per (chi, k, j mod k), when the shared
    sequence is first built.  The memo keeps the latest 256 sequences.
    """
    if k < 1:
        raise ValueError("conductor k must be positive")
    admit("MAX_TWIST_PERIOD", math.lcm(char.period, char.b * k),
          f"period of the twisted sequence of {char.label} at zeta_{k}")
    return _twisted_sequence(char, k, j % k)


@functools.lru_cache(maxsize=256)
def _twisted_sequence(char: Character, k: int, j: int) -> TwistedSeq:
    """On the support, C(n) = chi(n) * zeta**(j*e) with e = (n^2-a)/b is
    one term, the integer chi(n) * den at power j*e mod k."""
    P = math.lcm(char.period, char.b * k)
    support = sorted(n or P for n in char.support(P))  # C(0) is entry m = P
    den = math.lcm(*(v.denominator for v in char.values))
    scaled = [int(den * v) for v in char.values]
    rows = tuple((m, ((j * char.exponent(m) % k, scaled[m % char.period]),))
                 for m in support)
    return _sealed(object.__new__(TwistedSeq), char, k, j, P, rows, den)


# -- Bernoulli machinery --------------------------------------------------------

def l_value_work(n: int, P: int) -> int:
    """Work estimate for l_value(seq, n) at period P, from n and P alone.

    B_0..B_{n+1} take under (n+2)^2 integer multiply-adds and the P Horner
    passes n+2 steps each; every step is weighted by n+2, since the
    integers' bit length grows with the order.
    """
    return (n + 2) ** 2 * (n + 2 + P)


def gamma_work(char: Character, k: int, n: int) -> int:
    """Work estimate for gamma_coeff(char, k, j, n): n+1 L-values of order
    at most 2n+nu at the twisted period; their Bernoulli numbers are
    charged as one set at the top order."""
    top = 2 * n + char.nu + 2
    P = math.lcm(char.period, char.b * k)
    return top ** 2 * (top + (n + 1) * P)


def _bernoulli(top: int) -> list:
    """B_0, ..., B_top as (numerator, denominator) pairs in lowest terms,
    B_1 = -1/2.  The even ones come from the tangent numbers T_i of
    tan x = sum T_i x^(2i-1)/(2i-1)!, in integer multiply-adds (Brent and
    Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
    2011): B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)).  Nothing is kept.
    """
    half = top // 2
    t = [0] + [math.factorial(i - 1) for i in range(1, half + 1)]
    for i in range(2, half + 1):
        for h in range(i, half + 1):
            t[h] = (h - i) * t[h - 1] + (h - i + 2) * t[h]
    out = [(1, 1), (-1, 2), *[(0, 1)] * (top - 1)]
    for i in range(1, half + 1):
        num, den = (-1) ** (i - 1) * 2 * i * t[i], 4 ** i * (4 ** i - 1)
        g = math.gcd(num, den)
        out[2 * i] = (num // g, den // g)
    return out[:top + 1]


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return Fraction(*_bernoulli(m)[m])


def l_value(seq: TwistedSeq, n: int) -> CycloNum:
    """L(-n, C) = (-P^n/(n+1)) * sum_{m=1}^{P} C(m) B_{n+1}(m/P), exactly.

    Computed in integers: with C(m) = row_m/D (seq.rows, seq.den), d the
    lcm of the denominators of B_0..B_{n+1}, and
    B_{n+1}(x) = sum_e b_e x^e / d for integers b_e,

        L(-n, C) = -sum_m row_m * H(m) / (d * D * (n+1) * P),
        H(m) = sum_e b_e m^e P^(n+1-e),

    one integer Horner pass per nonzero row, added into k buckets by the
    power of zeta, one fold and one division at the end.  Refused with
    InvalidParam when l_value_work(n, P) exceeds MAX_L_WORK.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    P = seq.period
    admit("MAX_L_WORK", l_value_work(n, P), f"work of L(-{n}, C) at period {P}")
    return _l_value(seq, n, _bernoulli(n + 1))


def _l_value(seq: TwistedSeq, n: int, bern: list) -> CycloNum:
    """l_value(seq, n) from bern = B_0, ..., B_{n+1} as _bernoulli gives
    them, with no admission; d is the lcm over every pair in bern."""
    P = seq.period
    d = math.lcm(*(den for _, den in bern))
    horner, power = [], 1
    for e in range(n + 1, -1, -1):
        num, den = bern[n + 1 - e]
        horner.append(math.comb(n + 1, e) * num * (d // den) * power)
        power *= P
    buckets = [0] * seq.k
    for m, terms in seq.rows:
        h = 0
        for c in horner:
            h = h * m + c
        for power, c in terms:
            buckets[power] -= c * h
    return _new(seq.k, _fold(seq.k, buckets), d * seq.den * (n + 1) * P)


def gamma_coeff(char: Character, k: int, j: int, n: int) -> CycloNum:
    """Asymptotic coefficient gamma_n(zeta_k^j) of the partial theta series.

    Cauchy product of the exp(a*t/b) prefactor series with the L-value
    expansion: gamma_n = sum_r (a/b)^(n-r)/(n-r)! * (-1)^r/(b^r r!) * L(-2r-nu, C).
    It is the last value of _gammas, which computes L(-2r-nu, C) once for
    each r <= n.  Refused with InvalidParam when gamma_work(char, k, n)
    exceeds MAX_L_WORK.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    admit("MAX_L_WORK", gamma_work(char, k, n), f"work of gamma_{n} at zeta_{k}")
    return next(islice(_gammas(char, k, j, n), n, None))


def _gammas(char: Character, k: int, j: int, top: int) -> Iterator[CycloNum]:
    """gamma_0, ..., gamma_top at zeta_k^j, with one L-value per order.

    Over b^n n!, gamma_n is sum_r a^(n-r) (-1)^r C(n, r) L_r, where
    L_r = L(-2r-nu, C) is computed once, when gamma_r is, and kept as its
    integer (num, den).  Each gamma_n is that integer sum over the lcm of
    the kept denominators, normalized once.  One Bernoulli pass, to the
    order of L_top, serves every L_r.  Nothing is admitted here: the caller
    admits gamma_work at top.
    """
    seq = twisted_sequence(char, k, j)
    a, b, nu = char.a, char.b, char.nu
    bern = _bernoulli(2 * top + nu + 1)
    kept = []
    for n in range(top + 1):
        order = 2 * n + nu
        x = _l_value(seq, order, bern[:order + 2])
        kept.append((x.num, x.den))
        den = math.lcm(*(d for _, d in kept))
        acc = [0] * max(len(num) for num, _ in kept)
        for r, (num, d) in enumerate(kept):
            c = (-1) ** r * math.comb(n, r) * a ** (n - r) * (den // d)
            for i, v in enumerate(num):
                acc[i] += c * v
        yield _new(k, acc, den * b ** n * math.factorial(n))


def theta_truncated(char: Character, cap: int) -> RatPoly:
    """Partial theta series through degree cap; only meaningful for nu = 0."""
    if char.nu != 0:
        raise ValueError("theta_truncated requires a nu=0 character")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    coeffs = [Fraction(0)] * (cap + 1)
    n = 0
    # exponents grow like n^2/b; stop once a whole period stays above cap
    top = math.isqrt(char.a + char.b * cap) + char.period + 1
    while n <= top:
        c = char.value(n)
        if c:
            e = char.exponent(n)
            if e < 0:
                raise ValueError(f"negative exponent at n={n}")
            if e <= cap:
                coeffs[e] += c
        n += 1
    return RatPoly(coeffs)
