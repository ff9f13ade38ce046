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
and exact strings are accepted), twisted entries are CycloNum.  Each step
does its work once at the level its inputs allow:

- per character: its nonzero values as integers over one denominator,
  built by the constructor;
- per character and conductor k (_twist_rows): the twisted period P and,
  for every supported m in 1..P, e(m) mod k and the integer value, so a
  root zeta_k^j only maps e to the power j*e mod k;
- per L-value request at zeta_k^j: a TwistedSeq (character, k, j,
  period), its twisted mean checked on those rows; one Bernoulli pass to
  the order asked for and one pass over the rows, repeated over the
  period, for the power sums sum c * m^e by power j*e mod k of zeta
  (_bucket_sums); L(-n, C) then combines those sums with the integer
  coefficients of B_{n+1}, folds mod Phi_k once and divides once;
- per character, conductor k and top order of a gamma or match request
  (_theta_classes): the same work, done once for every root of order k
  on the classes r = e mod k instead of the powers, with the class
  numerators of each L-value and of each gamma_n built when a root
  first reads that order;
- per gamma or match request at zeta_k^j: the order-0 class sums and the
  class numerators of each gamma_n read placed at powers j*r mod k and
  folded, the first to refuse a nonzero twisted mean.

L-value and gamma requests whose work estimate exceeds MAX_L_WORK, and
twisted sequences whose period exceeds MAX_TWIST_PERIOD, are refused with
InvalidParam before any arithmetic.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from operator import mul

from qstrange._admit import MAX_L_WORK, MAX_TWIST_PERIOD, admit
from qstrange._record import Record
from qstrange.cyclofield import CycloNum, _folded, _new
from qstrange.exactpoly import RatPoly, _parse_number
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
    """A character value as a Fraction; only ints, Fractions and strings in
    exactpoly's number grammar, such as "-1/2", are exact, so a float or
    bool is refused, never rounded."""
    try:
        return v if isinstance(v, Fraction) else _parse_number(v, rational=True)
    except ValueError:
        raise CharacterInvalid(
            f"character value {v!r} is not an exact rational") from None


class Character(Record, compare=("a", "b", "nu", "period", "values")):
    """Periodic rational character with quadratic exponent data (a, b, nu).

    values, a {residue: value} dict or one full period of ints, Fractions or
    exact strings, is stored as a tuple of Fractions; terms holds the
    nonzero ones as (residue, integer) pairs over the common denominator
    den.  Equality and hashing compare a, b, nu, period and values; the
    hash, of the nonzero values with their residues, is computed once,
    since every memoized call hashes its character.  Refused with
    InvalidParam, before its table is built, when lcm(period, b) exceeds
    MAX_TWIST_PERIOD.  Then (chi1) integrality is checked on the support
    within lcm(period, b) indices, since the exponent map has period b, not
    the period, and (chi2) the zero mean over one period.
    """

    __slots__ = ("a", "b", "nu", "period", "values", "label", "den", "terms",
                 "_hash")

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
                try:
                    n = _parse_number(key)
                except ValueError:
                    raise CharacterInvalid(f"residue {key!r} is not an integer") from None
                if not 0 <= n < period:
                    raise CharacterInvalid(f"residue {n} outside 0..{period - 1}")
                table[n] = _exact_value(val)
        else:
            table = [_exact_value(v) for v in values]
            if len(table) != period:
                raise CharacterInvalid("values length must equal the period")
        nonzero = tuple((r, v) for r, v in enumerate(table) if v)
        den = math.lcm(*(v.denominator for _, v in nonzero))
        terms = tuple((r, v.numerator * (den // v.denominator))
                      for r, v in nonzero)
        # the nonzero (residue, value) pairs fix the table once the period
        # is fixed; Fraction.__hash__ is Python code, and most values are 0
        super().__init__(a, b, nu, period, tuple(table), label, den, terms,
                         hash((a, b, nu, period, nonzero)))
        for n in self.support(math.lcm(period, b)):
            self.exponent(n)  # raises IntegralityViolation when fractional
        mean = sum(c for _, c in terms)
        if mean:
            raise MeanValueNonzero("character mean over one period is "
                                   f"{Fraction(mean, den)}")

    def __hash__(self):
        return self._hash

    def value(self, n: int) -> Fraction:
        return self.values[n % self.period]

    def support(self, span: int) -> Iterator[int]:
        """The n in 0..span-1 with value(n) != 0, ascending; span must be a
        multiple of the period."""
        rs = [r for r, _ in self.terms]
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

def _refuse_nonzero_mean(char: Character, k: int, j: int, terms) -> None:
    """Raise MeanValueNonzero unless sum c * zeta_k**power over the pairs
    (power, c) of terms, the twisted mean of char at zeta_k^j, is 0."""
    if any(_folded(k, terms)):
        raise MeanValueNonzero(
            f"twisted mean of {char.label} at zeta_{k}^{j} is nonzero")


class TwistedSeq(Record):
    """C(n) = zeta_k^(j*(n^2-a)/b) * chi(n) over a period, a multiple of
    P = lcm(T, b*k): the record (character, k, j mod k, period).

    entry(n) folds the one monomial chi(n) * zeta_k^(j*e(n)), table is
    built from entry, and l_value reads the rows of _twist_rows.  Like
    twisted_sequence, the constructor refuses a nonzero twisted mean; it
    also refuses with ValueError a period that is not a multiple of P and
    a table that is not the twist over it.
    """

    __slots__ = ("character", "k", "j", "period")

    def __init__(self, character: Character, k: int, j: int, period: int,
                 table: tuple):
        base = twisted_sequence(character, k, j)
        if period < 1 or period % base.period:
            raise ValueError(f"period {period} is not a multiple of "
                             f"lcm(T, b*k) = {base.period}")
        if len(table) != period:
            raise ValueError("table length must equal the period")
        if not all(isinstance(x, CycloNum) and x.k == k for x in table):
            raise ValueError(f"table entries must lie in Q(zeta_{k})")
        super().__init__(character, k, base.j, period)
        if tuple(table) != self.table:
            raise ValueError(f"table is not the twist of {character.label} "
                             f"at zeta_{k}^{base.j}")

    def entry(self, n: int) -> CycloNum:
        """C(n): chi(n) * zeta_k^(j*e(n)), one monomial folded into Q(zeta_k)."""
        char, k = self.character, self.k
        c = char.value(n)
        if not c:
            return _new(k, [], 1)
        terms = ((self.j * char.exponent(n) % k, c.numerator),)
        return _new(k, _folded(k, terms), c.denominator)

    @property
    def table(self) -> tuple:
        """C(0), ..., C(period - 1)."""
        return tuple(map(self.entry, range(self.period)))

    def __repr__(self):
        return (f"TwistedSeq({self.character.label!r}, zeta_{self.k}^{self.j}, "
                f"P={self.period})")


def twisted_sequence(char: Character, k: int, j: int) -> TwistedSeq:
    """The twist of char at zeta_k^j over P = lcm(T, b*k).

    C is P-periodic by construction: T divides P, and b*k dividing P makes
    the zeta-power ratio between n + P and n one.  Refused with InvalidParam,
    before any row is built, when P exceeds MAX_TWIST_PERIOD, and with
    MeanValueNonzero when the twisted mean, read off the rows of
    _twist_rows at their powers j*e(m) mod k, is not zero.
    """
    _admit_twist(char, k)
    j %= k
    P, _, exps, cs = _twist_rows(char, k)
    _refuse_nonzero_mean(char, k, j, zip((j * e % k for e in exps), cs))
    seq = object.__new__(TwistedSeq)
    Record.__init__(seq, char, k, j, P)
    return seq


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


def l_value(seq: TwistedSeq, n: int) -> CycloNum:
    """L(-n, C) = (-P^n/(n+1)) * sum_{m=1}^{P} C(m) B_{n+1}(m/P), exactly.

    Computed in integers: with C(m) = c_m zeta^(j*e(m)) / D on the rows of
    _twist_rows (D = char.den), repeated over P = seq.period, d the lcm of
    the denominators of B_0..B_{n+1}, and
    B_{n+1}(x) = sum_e b_e x^e / d for integers b_e,

        L(-n, C) = -sum_m c_m zeta^(j*e(m)) * H(m) / (d * D * (n+1) * P),
        H(m) = sum_e b_e m^e P^(n+1-e),

    so each power of zeta needs only the power sums sum c_m * m^e of its
    rows, e <= n+1 (_bucket_sums); one fold and one division end it.
    Refused with InvalidParam when l_value_work(n, P) exceeds MAX_L_WORK.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    P, k = seq.period, seq.k
    admit("MAX_L_WORK", l_value_work(n, P), f"work of L(-{n}, C) at period {P}")
    base, ms, exps, cs = _twist_rows(seq.character, k)
    times = P // base
    sums = _bucket_sums((shift + m for shift in range(0, P, base) for m in ms),
                        (seq.j * e % k for e in exps * times), cs * times,
                        n + 1)
    nums, den = _l_value(n, P, _bernoulli(n + 1), sums)
    return _new(k, _folded(k, nums), den * seq.character.den)


def _l_value(n: int, P: int, bern: list, sums: list) -> tuple:
    """The numerators of L(-n, C) at period P, from bern = B_0, ..., B_{n+1}
    as _bernoulli gives them and _bucket_sums to an order of at least n+1,
    with no admission: (nums, d * (n+1) * P), d the lcm over every pair in
    bern, where nums pairs each group's key with minus sum_e
    C(n+1, e) B_{n+1-e} d P^(n+1-e) times its e-th sum.  Keyed by power of
    zeta, L(-n, C) is sum v * zeta**power over the pairs (power, v) of
    nums, over that denominator times the sequence's."""
    d = math.lcm(*(den for _, den in bern))
    weights = [math.comb(n + 1, e) * num * (d // den) * P ** (n + 1 - e)
               for e, (num, den) in enumerate(reversed(bern))]
    return ([(key, -sum(map(mul, weights, row))) for key, row in sums],
            d * (n + 1) * P)


def gamma_coeff(char: Character, k: int, j: int, n: int) -> CycloNum:
    """Asymptotic coefficient gamma_n(zeta_k^j) of the partial theta series.

    Cauchy product of the exp(a*t/b) prefactor series with the L-value
    expansion: gamma_n = sum_r (a/b)^(n-r)/(n-r)! * (-1)^r/(b^r r!) * L(-2r-nu, C).
    It is the last value of _gammas, which reads L(-2r-nu, C) once for each
    r <= n.  The power sums, the Bernoulli numbers and the class numerators
    of those L-values are shared with every root of order k that asks for
    gamma_n (_theta_classes); this root only places and folds them.
    Refused with InvalidParam when gamma_work(char, k, n) exceeds
    MAX_L_WORK.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    admit("MAX_L_WORK", gamma_work(char, k, n), f"work of gamma_{n} at zeta_{k}")
    return next(islice(_gammas(char, k, j, n), n, None))


def _gammas(char: Character, k: int, j: int, top: int) -> Iterator[CycloNum]:
    """gamma_0, ..., gamma_top at zeta_k^j, with one L-value per order.

    Over b^n n!, gamma_n is sum_r a^(n-r) (-1)^r C(n, r) L_r, with
    L_r = L(-2r-nu, C).  Both sides are linear in the classes r of
    e(m) mod k, which a root zeta_k^j only places at its powers j*r mod k,
    so everything but that placement is done once per (char, k, top) and
    shared by every root of order k (_theta_classes): the power sums of
    each class and one Bernoulli pass up front, then, when a root first
    reads gamma_n, the class numerators of L_n (_l_value) and of gamma_n,
    the integer sum above over the lcm of the L-values' denominators.
    This root places the order-0 sums and folds them, to refuse a nonzero
    twisted mean, then places and folds each gamma_n's numerators, and
    normalizes once.  Nothing but the twisted period is admitted here: the
    caller admits gamma_work at top.
    """
    _admit_twist(char, k)
    j %= k
    a, b, nu = char.a, char.b, char.nu
    P, bern, sums, lvals, gammas = _theta_classes(char, k, top)
    at = [j * r % k for r, _ in sums]  # the power of each class r
    _refuse_nonzero_mean(char, k, j, zip(at, (row[0] for _, row in sums)))
    for n in range(top + 1):
        if gammas[n] is None:  # an equal value if two roots race to fill it
            order = 2 * n + nu
            nums, den = _l_value(order, P, bern[:order + 2], sums)
            # in lowest terms, so the sums below stay as small as they
            # were on the folded, normalized L-values of one root
            g = math.gcd(den, *(v for _, v in nums))
            lvals[n] = ([v // g for _, v in nums], den // g)
            lcm = math.lcm(*(d for _, d in lvals[:n + 1]))
            acc = [0] * len(sums)
            for r, (vals, d) in enumerate(lvals[:n + 1]):
                c = (-1) ** r * math.comb(n, r) * a ** (n - r) * (lcm // d)
                for i, v in enumerate(vals):
                    acc[i] += c * v
            gammas[n] = (acc, lcm * char.den * b ** n * math.factorial(n))
        yield _new(k, _folded(k, zip(at, gammas[n][0])), gammas[n][1])


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


# -- rows and power sums shared by the roots of one order -------------------

@functools.lru_cache(maxsize=256)
def _twist_rows(char: Character, k: int) -> tuple:
    """What every root of order k shares: P = lcm(T, b*k) and, for the
    supported m in 1..P ascending, m, e(m) mod k and chi(m) * den."""
    T, a, b = char.period, char.a, char.b
    P = math.lcm(T, b * k)
    ms = [base + r for base in range(0, P, T) for r, _ in char.terms]
    cs = [c for _, c in char.terms] * (P // T)
    if ms and not ms[0]:  # C(0) is entry m = P
        ms, cs = ms[1:] + [P], cs[1:] + cs[:1]
    return P, tuple(ms), tuple((m * m - a) // b % k for m in ms), tuple(cs)


def _power_sums(xs, cs, top: int) -> list:
    """sum c * x**e over the pairs of xs and cs, for e = 0, ..., top."""
    out = [sum(cs)]
    for _ in range(top):
        cs = list(map(mul, xs, cs))
        out.append(sum(cs))
    return out


def _bucket_sums(ms, keys, cs, top: int) -> list:
    """(key, sums) for each key among the parallel sequences ms, keys and
    cs, one row (m, key, c) per place: sums[e] is sum c * m**e over the
    rows with that key, e <= top."""
    groups = {}
    for m, key, c in zip(ms, keys, cs):
        xs, ys = groups.setdefault(key, ([], []))
        xs.append(m)
        ys.append(c)
    return [(key, _power_sums(xs, ys, top))
            for key, (xs, ys) in groups.items()]


@functools.lru_cache(maxsize=256)
def _theta_classes(char: Character, k: int, top: int) -> tuple:
    """What every root of order k shares for gamma_0, ..., gamma_top:
    (P, bern, sums, lvals, gammas).  bern is B_0, ..., B_{2top+nu+1}, and
    sums the _bucket_sums of the _twist_rows keyed by the class
    r = e(m) mod k, to that order.  lvals and gammas have one slot per
    order n, None until a root first reads gamma_n; _gammas then fills
    them with the numerators, one per class in the order of sums, and the
    denominator of L(-2n-nu, C) and of gamma_n, which do not depend on the
    root."""
    P, ms, exps, cs = _twist_rows(char, k)
    order = 2 * top + char.nu + 1
    return (P, _bernoulli(order), _bucket_sums(ms, exps, cs, order),
            [None] * (top + 1), [None] * (top + 1))


def _admit_twist(char: Character, k: int) -> None:
    """Refuse a conductor below 1, and with InvalidParam a twisted period
    lcm(T, b*k) over MAX_TWIST_PERIOD, before any row is built."""
    if k < 1:
        raise ValueError("conductor k must be positive")
    admit("MAX_TWIST_PERIOD", math.lcm(char.period, char.b * k),
          f"period of the twisted sequence of {char.label} at zeta_{k}")
