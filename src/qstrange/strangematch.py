"""Matching strange series against partial theta expansions at roots of unity.

At a root of unity zeta the Pochhammer kernel of a strange series picks up
zeros of growing multiplicity, so only finitely many terms survive when the
series or any fixed q-derivative of it is evaluated there.  The surviving
value lives in a cyclotomic field and can be computed exactly.  On the other
side, the companion partial theta function has an asymptotic expansion at
zeta whose coefficients are L-values of a twisted character sequence.  The
matching claim is that

    F(zeta * exp(-t)) ~ sum_l gamma_l * t**l      (t -> 0+)

holds with gamma_l = (-1)**l / l! * (q d/dq)**l F evaluated at zeta, and that
these agree with the L-value coefficients.  Both sides are computed here in
exact arithmetic and compared coefficient by coefficient.

A match through order d reads one partial sum, at the stable_derivative
index of order d, for every order l <= d.  That is exact: each term past
order l's own index has a kernel with a zero of multiplicity greater than
l at zeta, so its l-th (q d/dq) derivative is 0 there.  The series side
reads the moments sum c_e (-e)^l of that sum's coefficients, one per class
of e mod the root's order and per l <= d (_series_moments, shared by every
root and request with the same family, index, order and d); a root only
places each class at its power of zeta.  The theta side is shared the
same way, as partialtheta describes: per character, conductor and d, the
power sums of each class of exponents mod k and one Bernoulli pass, and
per character, conductor and order, the class numerators of that order's
L-value and gamma, built when a root first reads that order; a root
places them at its powers and folds.

The module also carries the derivative bookkeeping used to extract single
dissection pieces from a series: applying (q d/dq)**l to q**i * g(q**s)
produces a fixed integer combination of shifted derivatives of g, and
``c_array`` tabulates those combinations.
"""

import math
from collections.abc import Iterator
from itertools import islice, zip_longest

from ._admit import InvalidParam, admit
from ._admit import MAX_C_ARRAY_WORK, MAX_MATCH_INDEX  # re-exported
from ._memo import memo
from ._record import Record
from .cyclofield import CycloNum, _fold, _folded, _new
from .exactpoly import theta_deriv
from .partialtheta import _gammas, _power_sums, gamma_work
from .qfamilies import _partial_sum, partial_sum_work


class OddOrderRequired(ValueError):
    """A G-kernel series has no stable value at a root of even order."""


def stable_derivative(family, k: int, ell: int) -> int:
    """Least partial-sum index past which (q d/dq)**ell is exact at order-k roots.

    For an F kernel the factor (q;q)_n has a zero of multiplicity n // k at
    every primitive k-th root of unity, so terms with n >= k*(ell+1) vanish
    under ell derivatives.  For a G kernel the odd-index factors of (q;q^2)_n
    meet multiples of k only when k is odd; even k is rejected because the
    terms never die off and no finite truncation is faithful.
    """
    if k < 1:
        raise InvalidParam("root order must be positive")
    if ell < 0:
        raise InvalidParam("derivative order must be nonnegative")
    if family.kernel == "F":
        return k * (ell + 1) - 1
    if k % 2 == 0:
        raise OddOrderRequired(
            "kernel (q;q^2)_n does not vanish at roots of even order")
    return (k * (2 * ell + 1)) // 2


def expansion_coeff(family, k: int, j: int, ell: int) -> CycloNum:
    """Exact t**ell coefficient of the series at q = zeta_k**j * exp(-t).

    It reads the partial sum at the stable_derivative index of order ell:
    every later term's kernel has a zero of multiplicity above ell at the
    root, so a longer sum gives the same value.  match_expansion reads one
    such longer sum for all its orders, through the same _root_values.
    """
    if k < 1:
        raise InvalidParam("root order must be positive")
    j %= k
    n_star = stable_derivative(family, k // math.gcd(j, k), ell)
    return next(islice(_root_values(family, n_star, k, j, ell), ell, None))


def _root_values(family, index: int, k: int, j: int,
                 top: int) -> Iterator[CycloNum]:
    """(-1)**ell / ell! * ((q d/dq)**ell p)(zeta_k**j) for ell = 0..top,
    p the partial sum of family at index.

    With g = gcd(j, k), zeta_k**j is a root of order k' = k/g, and the
    class of e mod k' sits at the power g * (e * j/g mod k') of zeta_k:
    each value is the signed moments of order ell, one per class, placed
    there, folded into Q(zeta_k) and divided by ell! once.
    """
    g = math.gcd(j, k)
    order = k // g
    at = [g * (r * (j // g) % order) for r in range(order)]
    moments = _series_moments(family, index, order, top)
    for ell, column in enumerate(moments):
        yield _new(k, _folded(k, zip(at, column)), math.factorial(ell))


@memo
def _series_moments(family, index: int, k: int, top: int) -> tuple:
    """For ell = 0..top, one sum per residue r mod k: that of c_e * (-e)**ell
    over the coefficients c_e of the partial sum at index with e = r mod k,
    so the sign of (-1)**ell / ell! is paid once per entry, not per root.
    Keyed on the family and numbers, never on the sum, which is read once,
    refused as partial_sum refuses it, and not kept."""
    coeffs = _partial_sum(family, index).coeffs
    return tuple(zip(*(_power_sums(range(-r, -len(coeffs), -k), coeffs[r::k],
                                   top)
                       for r in range(k))))


class MatchReport(Record):
    """Outcome of comparing series and partial theta coefficients at one root.

    Equality compares every field.
    """

    __slots__ = ("family_label", "character_label", "k", "j",
                 "checked_through", "verdict", "first_mismatch")

    def to_json_obj(self):
        obj = {
            "family": self.family_label,
            "character": self.character_label,
            "k": self.k,
            "j": self.j,
            "checked_through": self.checked_through,
            "verdict": self.verdict,
        }
        if self.first_mismatch is not None:
            obj["first_mismatch"] = self.first_mismatch
        return obj


def match_expansion(family, char, k: int, j: int, depth: int) -> MatchReport:
    """Compare expansion coefficients through order ``depth`` at zeta_k**j.

    Both sides are exact elements of Q(zeta_k).  The report says "match" when
    every order agrees and otherwise records the first failing order; nothing
    is rounded, so a mismatch is a theorem about the inputs rather than a
    numerical artifact.  The series side reads the partial sum at the
    stable_derivative index of order ``depth`` once, for every order: the
    terms past a lower order's own index vanish under that many derivatives
    at the root, so they add exactly 0.  The theta side reads one gamma
    per order, from class numerators shared by every root of order k, and
    builds each order's L-value only when no root has read that order yet.
    Both stop at the first failing order.  Refused with
    InvalidParam before any work when the stable_derivative index at
    ``depth`` exceeds MAX_MATCH_INDEX, the partial sum to that index exceeds
    MAX_PARTIAL_SUM_WORK, or gamma_depth exceeds the L-value work limit.
    """
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    if k < 1:
        raise InvalidParam("root order must be positive")
    j %= k
    index = stable_derivative(family, k // math.gcd(j, k), depth)
    admit("MAX_MATCH_INDEX", index, f"partial-sum index for depth {depth}")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, index),
          f"partial-sum work of {family.label} at N = {index}")
    admit("MAX_L_WORK", gamma_work(char, k, depth),
          f"work of gamma_{depth} at zeta_{k}")
    lhs = _root_values(family, index, k, j, depth)
    rhs = _gammas(char, k, j, depth)
    first_bad = next((ell for ell, (x, y) in enumerate(zip(lhs, rhs))
                      if x != y), None)
    verdict = "match" if first_bad is None else "mismatch"
    return MatchReport(family.label, char.label or "custom", k, j,
                       depth, verdict, first_bad)


def c_array_work(ell: int, i: int, s: int) -> int:
    """Work estimate for c_array(ell, i, s) and for printing it: about
    ell**2 multiply-adds on entries whose bit length grows with ell times
    that of |i| + |s|, and then str() of each of the ell + 1 entries, which
    is quadratic in its 30-bit digits.  Step u multiplies the row's l1 norm
    by at most |i| + u*s, so no entry has more than ell times the bit
    length of |i| + ell*s bits; printing one of b bits makes about
    (b/30)**2 digit steps, each worth 30 of the first term's."""
    bits = ell * (abs(i) + ell * s).bit_length()
    return ((ell + 1) ** 3 * max(1, (abs(i) + abs(s)).bit_length())
            + (ell + 1) * bits ** 2 // 30)


def c_array(ell: int, i: int, s: int) -> list:
    """Coefficients C_{ell,i,j}(s) with (q d/dq)**ell [q**i g(q**s)]
    = sum_j C_{ell,i,j}(s) q**(i+j*s) g^(j)(q**s).

    Row ell is built from row ell-1 by C <- (i+j*s)*C_j + s*C_{j-1}; the
    working row keeps a j = ell+1 slot so the recursion never truncates the
    carry coming from j = ell.  Returned list has entries j = 0 .. ell.
    Refused with InvalidParam when s < 1, ell < 0 or c_array_work exceeds
    MAX_C_ARRAY_WORK.
    """
    if s < 1:
        raise InvalidParam("modulus must be positive")
    if ell < 0:
        raise InvalidParam("derivative order must be nonnegative")
    admit("MAX_C_ARRAY_WORK", c_array_work(ell, i, s), "C-array work")
    row = [1] + [0] * (ell + 1)
    for _ in range(ell):
        nxt = [0] * (ell + 2)
        for jj in range(ell + 2):
            nxt[jj] = (i + jj * s) * row[jj]
            if jj:
                nxt[jj] += s * row[jj - 1]
        row = nxt
    return row[:ell + 1]


def extraction_identity_check(p, s: int, ell: int) -> bool:
    """Verify the two identities behind dissection extraction on a sample poly.

    First the root-of-unity filter: averaging zeta_s**(-i*r) * p(zeta_s**r q)
    over r must reproduce the i-th dissection piece q**i A_i(q**s), checked
    with exact cyclotomic coefficients.  At q**e the average is p's
    coefficient c times the filter sum (1/s) sum_r zeta_s**(r*d),
    d = e - i, which depends only on gcd(d, s) and is built once for each,
    as s counts of powers of zeta_s folded once into integer coordinates
    num over s.  The piece's coefficient want must then be c * num / s, so
    c * num is compared with (want * s, 0, ..., 0).  Second the derivative
    ladder:
    applying (q d/dq)**ell to q**i A_i(q**s) must equal the c_array
    combination of plain derivatives of A_i.  Returns False on the first
    discrepancy.
    """
    from .dissection import dissect

    if s < 1:
        raise InvalidParam("modulus must be positive")
    if ell < 0:
        raise InvalidParam("derivative order must be nonnegative")
    parts = dissect(p, s)
    # r*d mod s runs over the multiples of g = gcd(d, s), each g times;
    # each filter keeps its first coordinate and whether any other is not 0
    filters = {}
    for g in {math.gcd(d, s) for d in range(s)}:
        num = _fold(s, [g * (e % g == 0) for e in range(s)])
        filters[g] = (num[0], any(num[1:]))
    for i in range(s):
        piece = parts[i].dilate(s).shift(i)
        # filter check, coefficient by coefficient in Q(zeta_s)
        pairs = zip_longest(p.coeffs, piece.coeffs, fillvalue=0)
        for e, (c, want) in enumerate(pairs):
            head, rest = filters[math.gcd(e - i, s)]
            if c * head != want * s or (c and rest):
                return False
        # derivative ladder check over Z[q]
        lhs = theta_deriv(piece, ell)
        coeffs = c_array(ell, i, s)
        deriv = parts[i]
        rhs = type(p).zero()
        for jj, cf in enumerate(coeffs):
            rhs = rhs + deriv.dilate(s).shift(i + jj * s).scale(cf)
            deriv = deriv.derivative()
        if lhs != rhs:
            return False
    return True
