"""Slow definitional oracles shared by the test modules.

Everything here is written for clarity, not speed: dict-of-exponents
arithmetic and direct sums straight from the defining formulas.  Library
results are checked against these, never the other way around.  The last
section pins every resource guard at the edge of what it admits.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
from fractions import Fraction

import mpmath
import pytest

from qstrange import _admit
from qstrange.cli import build_parser, cmd_identity_check
from qstrange.cyclofield import ConductorMismatch, CycloNum, eval_at_root
from qstrange.dissection import (DivisibilityFalsified, DivisibilityReport,
                                 DivisibilityRow, OddModulusRequired,
                                 check_modulus, dissect, residue_set,
                                 thresholds)
from qstrange.exactpoly import (IntPoly, NotDivisible, RatPoly, _add_into,
                                cyclotomic, exact_div, mul_binomial, pochhammer,
                                pochhammer_exponents, theta_deriv)
from qstrange.fishburn import _xi_mod, verify_congruence, xi_coeffs
from qstrange.partialtheta import (Character, IntegralityViolation,
                                   MeanValueNonzero, _bernoulli, get_character,
                                   l_value, twisted_sequence)
from qstrange.qfamilies import (FamilySpec, InvalidParam, parse_family,
                                 partial_sum)
from qstrange.strangematch import c_array, match_expansion, stable_derivative


# -- polynomial helpers the library does not need --------------------------

def monomial(cls, exponent: int, coefficient=1):
    """coefficient * q**exponent, as an IntPoly or RatPoly (cls)."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return cls((0,) * exponent + (coefficient,))


def evaluate(p, x):
    """p(x) by Horner's rule, at any value supporting + and *."""
    acc = 0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def to_rat(p: IntPoly) -> RatPoly:
    """p with Fraction coefficients."""
    return RatPoly(p.coeffs)


def truncate(p, cap: int):
    """p without its terms of degree above cap, of p's type."""
    return type(p)(p.coeffs[: max(cap + 1, 0)])


def pochhammer_factors(n: int, step: int = 1) -> tuple:
    """The binomials 1 - q^e whose product is pochhammer(n, step), in order."""
    return tuple(IntPoly((1,) + (0,) * (e - 1) + (-1,))
                 for e in pochhammer_exponents(n, step))


def qbinomial(n: int, k: int, square_base: bool = False) -> IntPoly:
    """Gaussian binomial [n choose k]_q, or the base-q^2 version; zero
    outside 0 <= k <= n.  An exact division of q-factorials."""
    if k < 0 or k > n:
        return IntPoly()
    base = exact_div(pochhammer(n), pochhammer(k) * pochhammer(n - k))
    return base.dilate(2) if square_base else base


def term_poly(family: FamilySpec, n: int) -> IntPoly:
    """The coefficient polynomial f_n(q) (F-type) or g_n(q) (G-type)."""
    return family.coefficient_polys(n)[n]


# -- dict-based polynomial arithmetic ---------------------------------------

def dmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dscale(a: dict, c) -> dict:
    return {e: c * ca for e, ca in a.items() if c * ca}


def to_poly(d: dict) -> IntPoly:
    if not d:
        return IntPoly()
    top = max(d)
    return IntPoly(tuple(d.get(e, 0) for e in range(top + 1)))


def from_poly(p) -> dict:
    return {e: c for e, c in enumerate(p.coeffs) if c}


# -- definitional building blocks -------------------------------------------

def poch_def(n: int, step: int = 1) -> dict:
    """(q;q)_n or (q;q^2)_n as a raw product of binomial factors."""
    out = {0: 1}
    for j in range(1, n + 1):
        e = j if step == 1 else 2 * j - 1
        out = dmul(out, {0: 1, e: -1})
    return out


def pochhammer_factorization(n: int, step: int = 1) -> tuple[int, list[int]]:
    """Cyclotomic shape of the kernels: sign and exponent of each factor.

    step=1: (q;q)_n = (-1)^n * prod_{k=1..n} Phi_k^(floor(n/k)).
    step=2: (q;q^2)_n = (-1)^n * prod_{k=1..n} Phi_(2k-1)^e(k) where e(k)
    counts odd multiples of 2k-1 up to 2n-1.
    """
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    sign = -1 if n % 2 else 1
    if step == 1:
        exps = [n // k for k in range(1, n + 1)]
    else:
        exps = [(2 * n - 1 + m) // (2 * m) for m in (2 * k - 1 for k in range(1, n + 1))]
    return sign, exps


def kernel_poly(family: FamilySpec, n: int) -> IntPoly:
    """(q;q)_n or (q;q^2)_n according to the family's kernel kind."""
    return pochhammer(n, 1 if family.kernel == "F" else 2)


def to_int_poly_def(p: RatPoly) -> IntPoly:
    """p in Z[q] when every coefficient is integral; raises otherwise."""
    return IntPoly(p.coeffs)


def reassemble_def(d) -> IntPoly:
    """sum_i q^i A_i(q^s) from the s parts of a dissection."""
    total = IntPoly()
    for i, part in enumerate(d):
        if part:
            total = total + part.dilate(len(d)).shift(i)
    return total


def qbinom_def(n: int, k: int, base_power: int = 1) -> dict:
    """Gaussian binomial via the Pascal recurrence, optionally in base q^base_power."""
    if k < 0 or k > n:
        return {}
    row = [{0: 1}]
    for m in range(1, n + 1):
        new = [{0: 1}]
        for j in range(1, m):
            new.append(dadd(row[j - 1], dmul({base_power * j: 1}, row[j])))
        new.append({0: 1})
        row = new
    return row[k]


def hikami_f_def(m: int, alpha: int, n: int) -> dict:
    """Coefficient polynomial of the Hikami family by raw tuple enumeration.

    k_m = n and k_0 = 0; every inner index ranges with slack past its
    neighbor, relying on the out-of-range binomial being zero.
    """
    from itertools import product

    if m == 1:
        return {0: 1}
    total: dict = {}
    bound = n + m + 1
    for ks in product(range(bound + 1), repeat=m - 1):
        k = (0,) + ks + (n,)
        prod = {0: 1}
        for i in range(1, m):
            arg = k[i + 1] + (1 if i == alpha else 0)
            prod = dmul(prod, qbinom_def(arg, k[i]))
            if not prod:
                break
        if not prod:
            continue
        e = sum(k[i] ** 2 for i in range(1, m)) + sum(k[i] for i in range(alpha + 1, m))
        total = dadd(total, {ee + e: c for ee, c in prod.items()})
    return total


def gk_g_def(k: int, n: int) -> dict:
    """Coefficient polynomial of the G_k family by descending-chain enumeration."""
    total: dict = {}

    def rec(level: int, upper: int, exp: int, prod: dict):
        nonlocal total
        if level == 0:
            total = dadd(total, {e + exp: c for e, c in prod.items()})
            return
        for t in range(upper + 1):
            rec(level - 1, t, exp + 2 * t * t + 2 * t,
                dmul(prod, qbinom_def(upper, t, base_power=2)))

    rec(k - 1, n, n, {0: 1})
    return total


def ladder_def(weights, c0: int, base: int, cap=None, count: int = 1):
    """qfamilies._ladder on coefficient lists: the same column recurrence,
    one list per column and one list addition per step, with no widths
    and no bounds."""
    stacks = [[] for _ in range(count)]
    for m, w in enumerate(weights):
        val = w.coeffs
        off = base * (m + c0)
        stop = None if cap is None else cap + 1 - off
        for cols in stacks:
            cols.append(list(val[: cap + 1] if cap is not None else val))
            if stop is None or stop > 0:
                for i in range(m - 1, -1, -1):
                    _add_into(cols[i], cols[i + 1][:stop], off)
            val = cols[0]
        yield IntPoly(val)


def horner_def(family: FamilySpec, weights, cap=None) -> IntPoly:
    """qfamilies._horner on coefficient lists: Horner's rule over the
    kernel's binomial factors, one mul_binomial per factor, each step
    (the last one adds w_0) truncated at cap when it is set."""
    step = 1 if family.kernel == "F" else 2
    exps = pochhammer_exponents(len(weights) - 1, step)
    acc = []
    for n in range(len(weights) - 1, -1, -1):
        acc = _add_into(acc, weights[n].coeffs)
        if n:
            acc = mul_binomial(acc, exps[n - 1])
        if cap is not None:
            del acc[cap + 1:]
    return IntPoly(acc)


def divmod_def(a: RatPoly, d: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Quotient and remainder of a by d over Q, by long division; d must be
    nonzero."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
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


def exact_div_def(p: IntPoly, d: IntPoly):
    """p / d in Z[q] by long division over Q, or NotDivisible when the
    remainder is nonzero or the quotient is not integral."""
    quo, rem = divmod_def(to_rat(p), to_rat(d))
    if rem or any(c.denominator != 1 for c in quo.coeffs):
        return NotDivisible
    return IntPoly([int(c) for c in quo.coeffs])


def subst_def(p: IntPoly, cap: int) -> IntPoly:
    """p(1-q) truncated at cap, via direct binomial expansion of each term."""
    acc = {0: 0}
    one_minus_q = {0: 1, 1: -1}
    for e, c in enumerate(p.coeffs):
        if not c:
            continue
        term = {0: 1}
        for _ in range(e):
            term = dmul(term, one_minus_q)
            term = {x: v for x, v in term.items() if x <= cap}
        acc = dadd(acc, dscale(term, c))
    acc = {x: v for x, v in acc.items() if x <= cap}
    return to_poly(acc)


def character_def(a: int, b: int, nu: int, period: int, values: list) -> None:
    """Raise what Character(a, b, nu, period, values) must raise for one
    full period of int values, from a scan of every index in lcm(T, b),
    ascending, then the sum of the period; None when both hold."""
    for n in range(math.lcm(period, b)):
        if values[n % period] and (n * n - a) % b:
            raise IntegralityViolation(f"(({n})^2 - {a})/{b} is not an integer")
    if sum(values):
        raise MeanValueNonzero(f"character mean over one period is {sum(values)}")


def residue_set_def(char, s: int) -> frozenset:
    """S_{a,b,chi}(s) from a scan of every index in lcm(T, b*s), ascending;
    the first supported n with a fractional exponent raises, as
    char.exponent does.  The mean is not checked."""
    out = set()
    for n in range(math.lcm(char.period, char.b * s)):
        if char.value(n):
            out.add(char.exponent(n) % s)
    return frozenset(out)


def certificate_def(family: FamilySpec, char, s: int, N: int):
    """verify_theorem by the general path: dissect the partial sum into
    IntPoly parts and divide each nonzero part with exact_div by the
    pochhammer_factors binomials.  Checks run in the library's order."""
    if N < 0 or s < 1:
        raise ValueError("need N >= 0 and s >= 1")
    check_modulus(s)
    in_s = residue_set(char, s)
    if family.kernel == "G" and s % 2 == 0:
        raise OddModulusRequired(f"G-type divisibility needs odd s, got {s}")
    lam, mu = thresholds(N, s, 1)
    if family.kernel == "F":
        factors, divisor_name = pochhammer_factors(lam), f"(q;q)_{lam}"
    else:
        factors, divisor_name = pochhammer_factors(mu, 2), f"(q;q2)_{mu}"
    rows = []
    for i, part in enumerate(dissect(partial_sum(family, N), s)):
        try:
            quotient = exact_div(part, *factors) if part else IntPoly()
        except NotDivisible:
            if i not in in_s:
                raise DivisibilityFalsified(
                    f"{family.label}, s={s}, N={N}: part i={i} is outside "
                    f"S={sorted(in_s)} yet {divisor_name} does not divide it")
            rows.append(DivisibilityRow(i, True, divisor_name, "not-claimed", None))
        else:
            rows.append(DivisibilityRow(i, i in in_s, divisor_name, "divides",
                                        quotient))
    return DivisibilityReport(family.label, s, N, in_s, tuple(rows))


def is_prime_def(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- cyclotomic fields and L-values -----------------------------------------

def zeta(k: int, power: int = 1) -> CycloNum:
    """zeta_k**power, any integer power."""
    return CycloNum(k, [0] * (power % k) + [1])


def bernoulli_number(m: int) -> Fraction:
    """B_m, B_1 = -1/2, as the library's tangent-number pass gives it."""
    return Fraction(*_bernoulli(m)[m])


@functools.lru_cache(maxsize=None)
def cyclotomic_def(k: int) -> IntPoly:
    """Phi_k as (q^k - 1) divided by Phi_d for every proper divisor d of k,
    each Phi_d by the same recursion; Phi_1 = q - 1."""
    p = IntPoly((-1,) + (0,) * (k - 1) + (1,))
    for d in range(1, k):
        if k % d == 0:
            p = exact_div(p, cyclotomic_def(d))
    return p


def powers_def(k: int) -> tuple:
    """Rows zeta**e mod Phi_k, e = 0 .. k-1, each phi(k) integers long:
    each row is the one before times zeta, its top carried down by Phi_k."""
    phi = cyclotomic(k).coeffs
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(k):
        rows.append(tuple(row))
        carry = row[-1]
        row = [0] + row[:-1]
        if carry:
            row = [r - carry * c for r, c in zip(row, phi)]
    return tuple(rows)


def fold_def(k: int, coeffs: list) -> list:
    """Integer coordinates of sum coeffs[e] * zeta**e, phi(k) long: the
    sum of coeffs[e] times row e mod k of the power table."""
    rows = powers_def(k)
    out = [0] * len(rows[0])
    for e, c in enumerate(coeffs):
        out = [o + c * r for o, r in zip(out, rows[e % k])]
    return out


@functools.lru_cache(maxsize=None)
def bernoulli_numbers_def(top: int) -> tuple:
    """B_0 .. B_top with B_1 = -1/2, by the recursion
    B_m = -sum_{i<m} C(m+1, i) B_i / (m+1) in Fractions."""
    out = [Fraction(1)]
    for m in range(1, top + 1):
        acc = sum(math.comb(m + 1, i) * b for i, b in enumerate(out))
        out.append(-acc / (m + 1))
    return tuple(out)


def bernoulli_poly_def(n: int) -> RatPoly:
    """Bernoulli polynomial B_n(x) = sum_e C(n, e) B_{n-e} x^e."""
    b = bernoulli_numbers_def(n)
    return RatPoly([math.comb(n, e) * b[n - e] for e in range(n + 1)])


def cyclo_ref(k: int, coeffs) -> RatPoly:
    """Residue of sum coeffs[e] * zeta_k**e mod Phi_k by rational division."""
    rep = coeffs if isinstance(coeffs, RatPoly) else RatPoly(coeffs)
    phi = to_rat(cyclotomic(k))
    if rep.degree < phi.degree:
        return rep
    return divmod_def(rep, phi)[1]


def embed_def(x: CycloNum, prec_bits: int = 200):
    """Numeric value of x as an mpmath complex at the requested precision."""
    with mpmath.workprec(prec_bits):
        total = mpmath.mpc(0)
        for e, c in enumerate(x.num):
            if not c:
                continue
            w = mpmath.expjpi(mpmath.mpf(2 * e) / x.k)
            total += w * mpmath.mpf(c)
        return total / x.den


def lift_def(x: CycloNum, m: int) -> CycloNum:
    """x reinterpreted in the larger field Q(zeta_m); requires k | m."""
    if m % x.k:
        raise ConductorMismatch(f"{x.k} does not divide {m}")
    step = m // x.k
    spread = [0] * (step * len(x.num))
    spread[::step] = x.num
    return CycloNum(m, spread, x.den)


def l_value_def(seq, n: int) -> RatPoly:
    """L(-n, C) = (-P^n/(n+1)) * sum_{m=1}^{P} C(m) B_{n+1}(m/P), one m at a
    time in Fractions, as a reduced rational polynomial in zeta_k."""
    P = seq.period
    bp = bernoulli_poly_def(n + 1)
    total = RatPoly()
    for m in range(1, P + 1):
        c = seq.entry(m)
        if c:
            total = total + c.rep.scale(evaluate(bp, Fraction(m, P)))
    return total.scale(Fraction(-(P ** n), n + 1))


def gamma_def(char, k: int, j: int, n: int) -> CycloNum:
    """gamma_n(zeta_k^j) as the Cauchy product term by term:
    sum_r (a/b)^(n-r)/(n-r)! * (-1)^r/(b^r r!) * L(-2r-nu, C), one l_value
    per term, with Fraction prefactors and CycloNum sums."""
    seq = twisted_sequence(char, k, j)
    a, b, nu = char.a, char.b, char.nu
    total = CycloNum.rational(k, 0)
    for r in range(n + 1):
        pre = (Fraction(a, b) ** (n - r) / math.factorial(n - r)
               * Fraction((-1) ** r, b ** r * math.factorial(r)))
        total = total + l_value(seq, 2 * r + nu).scale(pre)
    return total


def expansion_def(family, k: int, j: int, ell: int, upper=None) -> CycloNum:
    """(-1)**ell / ell! * ((q d/dq)**ell S_N)(zeta_k**j), S_N the partial sum
    at N = upper, by default the stable_derivative index of order ell."""
    j %= k
    if upper is None:
        upper = stable_derivative(family, k // math.gcd(j, k), ell)
    p = theta_deriv(partial_sum(family, upper), ell)
    return eval_at_root(p, k, j).scale(
        Fraction((-1) ** ell, math.factorial(ell)))


def twisted_table_def(char, k: int, j: int) -> list:
    """C(n) = chi(n) * zeta_k**(j*(n^2-a)/b) for n over two twisted periods
    2*lcm(T, b*k), each entry built by the public CycloNum constructor from
    its monomial; a fractional exponent on the support raises ValueError."""
    P = math.lcm(char.period, char.b * k)
    table = []
    for n in range(2 * P):
        c = char.value(n)
        e = Fraction(n * n - char.a, char.b)
        if c and e.denominator != 1:
            raise ValueError(f"fractional exponent at n={n}")
        power = j * int(e) % k if c else 0
        table.append(CycloNum(k, [0] * power + [c]))
    return table


# -- estimates, as the per-kind code that preceded the shared ladder shape ---
# Copied verbatim, renamed only: the library's estimates, which read
# qfamilies._shape, must return these integers, so that no refusal moves.

def partial_sum_work_def(family: FamilySpec, upper: int, cap: int = -1) -> int:
    """Work estimate for partial_sum(family, upper), from the parameters alone.

    It is passes x degree x coefficient words, with N = upper:
    - passes: the N binomial-factor passes of the Horner sum, plus
      N(N+1)/2 column steps for each ladder level of the weights (k-1 for
      gk:k, m-1 for hikami:m);
    - degree: that of the sum, the kernel's N(N+1)/2 or N**2 plus the
      weights'; a ladder level of base b and offset c0 adds b n (n+c0) at
      the index n it is read at;
    - words: 1 + bits // 64, where bits bounds the coefficients by the sum
      of their absolute values at q = 1: each kernel factor and each ladder
      level at most doubles it, and the N+1 terms add bits(N+1).
    With cap >= 0 it also counts the 1-q substitution of the sum truncated
    at degree cap, as xi_coeffs runs it: cap + 1 more passes.
    """
    N = upper
    levels = wdeg = wbits = 0
    if family.kind == "gk":
        levels = family.params[0] - 1
        wdeg = 2 * levels * N * (N + 1) + N
    elif family.kind == "hikami":
        m, alpha = family.params
        levels = m - 1
        # the levels up to alpha are read one index further on
        wdeg = alpha * (N + 1) ** 2 + (levels - alpha) * N * (N + 1)
    elif family.kind == "inline":
        terms = family.params[: N + 1]
        wdeg = max((len(p.coeffs) for p in terms), default=0)
        wbits = max((sum(map(abs, p.coeffs)).bit_length() for p in terms),
                    default=0)
    kdeg = N * (N + 1) // 2 if family.kernel == "F" else N * N
    bits = N + levels * (N + 1) + wbits + (N + 1).bit_length()
    passes = N + levels * N * (N + 1) // 2 + cap + 1
    return passes * (kdeg + wdeg) * (1 + bits // 64)


def table_plan_def(family, depth: int):
    """(last row of the (1-x)**e table, bytes of the engine's tables).

    The bytes count that table and, for laddered families, 4 n (n+1)
    words, n = depth + 1, which bound one ladder's buffers: its column
    block of at most (n+1)**2 words, and its Toeplitz kernel and two step
    buffers of at most n**2 words each.
    """
    n = depth + 1
    top = laddered = 0
    if family.kind == "gk" and family.params[0] > 1:
        top, laddered = 2 * depth + 2, True
    elif family.kind == "gk":
        top = depth
    elif family.kind == "hikami" and family.params[0] > 1:
        top, laddered = depth + 2, True
    ladder = 4 * (n + 1) * n if laddered else 0
    return top, 8 * ((top + 1) * n + ladder)


def modular_work_def(family, depth: int) -> int:
    """Work estimate for xi mod m at this depth, from the family alone.

    With n = depth + 1, it counts n**3 for the xi accumulation and n**4 / 4
    for each ladder of gk:k>=2 (k-1 of them) or hikami:m>=2 (m-1).  That
    overcounts the engine, which computes only the residues it reads: the
    Horner accumulation makes n truncated convolutions of up to n by n
    terms, and a ladder's trimmed row blocks take about n**4 / 12
    matrix-product steps.  The count stays the admission measure, so the
    accepted depths are those of MAX_MODULAR_WORK's comment in _admit.
    """
    n = depth + 1
    ladders = 0
    if family.kind in ("gk", "hikami"):
        ladders = family.params[0] - 1
    return n ** 3 + ladders * n ** 4 // 4


# -- admission boundaries ----------------------------------------------------

def deepest_admitted(name: str, estimate, lo: int = 0) -> int:
    """Largest x >= lo whose estimate(x) is within the limit called name,
    by bisection on the estimate alone; estimate must be nondecreasing and
    admit lo."""
    limit = getattr(_admit, name)
    assert estimate(lo) <= limit
    hi = max(lo, 1)
    while estimate(hi) <= limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if estimate(mid) <= limit else (lo, mid)
    return lo


# period 1, b = 1: every period the guards compute from it is its argument
FLAT = Character(0, 1, 0, 1, {})


def _identity_check(arg: str, count: int):
    argv = ["identity-check", *arg.split(), "--count", str(count)]
    return cmd_identity_check(build_parser().parse_args(argv))


# a prime past the float64 edge at every depth
EDGE_P = 1_000_000_007

# guard: (limit, module whose admit it calls, request at input x for arg,
# (dotted module or class, attribute) of the work that must not run)
GUARDS = {
    "partial_sum": ("MAX_PARTIAL_SUM_WORK", "qstrange.qfamilies",
                    lambda arg, x: partial_sum(parse_family(arg), x),
                    [("qstrange.qfamilies", "_partial_sum_value")]),
    "xi_coeffs": ("MAX_PARTIAL_SUM_WORK", "qstrange.fishburn",
                  lambda arg, x: xi_coeffs(parse_family(arg), x),
                  [("qstrange.fishburn", "partial_sum"),
                   ("qstrange.fishburn", "subst_one_minus_q")]),
    "modular": ("MAX_MODULAR_WORK", "qstrange.fishburn",
                lambda arg, x: _xi_mod(parse_family(arg), x, 5),
                [("qstrange._modular", "xi_residues")]),
    "table": ("MAX_TABLE_BYTES", "qstrange.fishburn",
              lambda arg, x: _xi_mod(parse_family(arg), x, 5),
              [("qstrange._modular", "xi_residues")]),
    # verify_congruence past the float64 edge, its one index at depth x
    "edge_index": ("MAX_PARTIAL_SUM_WORK", "qstrange.qfamilies",
                   lambda arg, x: verify_congruence(
                       parse_family(arg), EDGE_P, 1, EDGE_P - x, x),
                   [("qstrange.qfamilies", "_partial_sum_value"),
                    ("qstrange.fishburn", "_xi_mod")]),
    "l_value": ("MAX_L_WORK", "qstrange.partialtheta",
                lambda arg, x: l_value(twisted_sequence(
                    get_character(arg), 1, 0), x),
                [("qstrange.partialtheta", "_bernoulli"),
                 ("qstrange.partialtheta", "_bucket_sums")]),
    "c_array": ("MAX_C_ARRAY_WORK", "qstrange.strangematch",
                lambda arg, x: c_array(x, 1, 5), []),
    "match": ("MAX_MATCH_INDEX", "qstrange.strangematch",
              lambda arg, x: match_expansion(parse_family(arg),
                                             get_character("chi_kz"), 1, 0, x),
              [("qstrange.strangematch", "partial_sum"),
               ("qstrange.strangematch", "_series_moments"),
               ("qstrange.partialtheta", "_theta_classes"),
               ("qstrange.partialtheta", "_bucket_sums"),
               ("qstrange.partialtheta", "_l_value")]),
    "character": ("MAX_TWIST_PERIOD", "qstrange.partialtheta",
                  lambda arg, x: Character(0, 1, 0, x, {1: 1, x - 1: -1}),
                  [("qstrange.partialtheta", "_exact_value")]),
    "twisted_sequence": ("MAX_TWIST_PERIOD", "qstrange.partialtheta",
                         lambda arg, x: twisted_sequence(FLAT, x, 0),
                         [("qstrange.partialtheta.Character", "support"),
                          ("qstrange.partialtheta", "_twist_rows")]),
    "residue_set": ("MAX_RESIDUE_SPAN", "qstrange.dissection",
                    lambda arg, x: residue_set(FLAT, x),
                    [("qstrange.partialtheta.Character", "support")]),
    "dissect": ("MAX_DISSECT_MODULUS", "qstrange.dissection",
                lambda arg, x: dissect(IntPoly([1]), x),
                [("qstrange.exactpoly.IntPoly", "_new")]),
    "identity_check": ("MAX_IDENTITY_WORK", "qstrange.cli", _identity_check,
                       [("qstrange.cli", "extraction_identity_check")]),
}

# (guard, arg, deepest admitted x): the refusal decisions to keep
BOUNDARIES = [
    ("partial_sum", "kz", 321), ("partial_sum", "gk:k=1", 271),
    ("partial_sum", "gk:k=2", 67), ("partial_sum", "gk:k=3", 50),
    ("partial_sum", "hikami:m=2,alpha=0", 80),
    ("partial_sum", "hikami:m=2,alpha=1", 80),
    ("partial_sum", "hikami:m=3,alpha=1", 59),
    ("xi_coeffs", "kz", 270), ("xi_coeffs", "gk:k=1", 231),
    ("xi_coeffs", "gk:k=2", 67), ("xi_coeffs", "gk:k=3", 49),
    ("xi_coeffs", "hikami:m=2,alpha=1", 80),
    ("xi_coeffs", "hikami:m=3,alpha=1", 59),
    ("modular", "kz", 3683), ("modular", "gk:k=1", 3683),
    ("modular", "gk:k=2", 666), ("modular", "hikami:m=2,alpha=1", 666),
    ("modular", "gk:k=3", 560), ("modular", "hikami:m=3,alpha=1", 560),
    ("table", "gk:k=1", 5791), ("table", "gk:k=2", 2363),
    ("table", "gk:k=3", 2363), ("table", "hikami:m=2,alpha=1", 2588),
    ("table", "hikami:m=3,alpha=2", 2588),
    ("l_value", "chi_kz", 574),  # period 24
    ("c_array", "i=1,s=5", 1492),
    ("match", "kz", 100),  # at k = 1 the index is the depth
    ("character", "period", 10 ** 5),
    ("twisted_sequence", "k", 10 ** 5),
    ("residue_set", "s", 10 ** 6),
    ("dissect", "s", 10 ** 5),
    # 200000 polynomials x 5 steps: the work is exactly the limit
    ("identity_check", "--s 1 --ell 0 --max-degree 1", 200000),
]


class Admitted(Exception):
    """Raised in place of the guarded work once its guard has admitted."""


def check_boundary(guard: str, arg: str, deepest: int, monkeypatch):
    """The guard admits x = deepest and refuses deepest + 1 with an
    InvalidParam naming its limit; the guarded work runs for neither."""
    name, module, request, work = GUARDS[guard]
    for target, attr in work:
        monkeypatch.setattr(pkgutil.resolve_name(target), attr,
                            _never(f"{target}.{attr}"))
    guards = importlib.import_module(module)
    real = guards.admit

    def stop_once_admitted(limit, amount, what):
        real(limit, amount, what)
        if limit == name:
            raise Admitted

    with monkeypatch.context() as m:
        m.setattr(guards, "admit", stop_once_admitted)
        with pytest.raises(Admitted):
            request(arg, deepest)
    with pytest.raises(InvalidParam, match=name):
        request(arg, deepest + 1)


def _never(what: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} was reached")
    return fail
