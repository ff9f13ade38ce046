"""s-dissections and executable divisibility certificates.

A dissection splits p(q) into parts A_0..A_{s-1} with p = sum q^i A_i(q^s);
the parts live in the reduced variable.  For a family partial sum whose
residue i avoids the quadratic residue set S_{a,b,chi}(s), the dissection
theorems predict an exact q-Pochhammer divisor: (q;q)_lambda for F-type
kernels, (q;q^2)_mu for G-type kernels at odd s.  verify_theorem runs the
divisions and returns the certificate; a failed division where the theorem
applies is a hard error, never a report row.
"""

from __future__ import annotations

import math

from qstrange._admit import MAX_DISSECT_MODULUS, MAX_RESIDUE_SPAN, admit
from qstrange._memo import memo
from qstrange._record import Record
# verify_theorem calls no exact_div; the name stays bound here because
# perfbench's span tests rebind it in this module
from qstrange.exactpoly import (IntPoly, NotDivisible, div_binomial,
                                exact_div, pochhammer_exponents)
from qstrange.partialtheta import Character
from qstrange.qfamilies import FamilySpec, partial_sum

__all__ = [
    "DivisibilityRow",
    "DivisibilityReport",
    "OddModulusRequired",
    "DivisibilityFalsified",
    "dissect",
    "check_modulus",
    "thresholds",
    "residue_set",
    "verify_theorem",
    "MAX_RESIDUE_SPAN",
    "MAX_DISSECT_MODULUS",
]


class OddModulusRequired(ValueError):
    """G-type divisibility needs an odd dissection modulus."""


class DivisibilityFalsified(ArithmeticError):
    """A division the theorems guarantee has failed; inputs are inconsistent."""


def dissect(p: IntPoly, s: int) -> tuple:
    """The s parts A_i of p(q) = sum_i q^i A_i(q^s), new immutable IntPoly."""
    check_modulus(s)
    return tuple(IntPoly._new(p.coeffs[i::s]) for i in range(s))


def check_modulus(s: int) -> None:
    """Refuse a dissection modulus below 1 (ValueError) or above
    MAX_DISSECT_MODULUS (InvalidParam), before anything is allocated."""
    if s < 1:
        raise ValueError("modulus must be positive")
    admit("MAX_DISSECT_MODULUS", s, "dissection modulus")


def thresholds(N: int, s: int, k: int = 1) -> tuple[int, int]:
    """(lambda(N,s), mu(N,k,s)) = (floor((N+1)/s), floor(N/(s(2k-1)) + 1/2))."""
    if N < 0 or s < 1 or k < 1:
        raise ValueError("need N >= 0, s >= 1, k >= 1")
    lam = (N + 1) // s
    d = s * (2 * k - 1)
    mu = (2 * N + d) // (2 * d)
    return lam, mu


@memo(typed=True)
def residue_set(char: Character, s: int) -> frozenset:
    """S_{a,b,chi}(s): residues (n^2-a)/b mod s over the support of chi.

    One scan of the support within lcm(T, b*s) indices is exhaustive:
    both chi and the residue map are periodic with that period.  Refused
    with InvalidParam, before any scan, when that span exceeds
    MAX_RESIDUE_SPAN.  Memoized per (chi, s): the modulus and the span are
    checked once, when the entry is first built, and equal characters share
    an entry whatever their labels.  An invalid modulus is refused on every
    call.  A set mod s holds up to s residues; the memo is _memo's,
    bounded by the bytes of the sets it keeps.  Keys are typed, so
    residue_set(char, True) is not residue_set(char, 1).
    """
    if s < 1:
        raise ValueError("modulus must be positive")
    span = math.lcm(char.period, char.b * s)
    admit("MAX_RESIDUE_SPAN", span, f"indices in the residue scan mod {s}")
    return frozenset(char.exponent(n) % s for n in char.support(span))


class DivisibilityRow(Record):
    """One residue class line of a certificate; equality compares every field."""

    __slots__ = ("i", "in_s", "divisor_name", "verdict", "quotient")

    def to_json_obj(self) -> dict:
        obj = {"i": self.i, "in_S": self.in_s, "divisor": self.divisor_name,
               "verdict": self.verdict}
        if self.quotient is not None:
            obj["quotient"] = self.quotient.to_json_obj()
        return obj


class DivisibilityReport(Record):
    """Full certificate for one (family, character, s, N); equality compares every field."""

    __slots__ = ("family_label", "s", "upper", "residues", "rows")

    def to_json_obj(self) -> dict:
        return {"family": self.family_label, "s": self.s, "N": self.upper,
                "S": sorted(self.residues),
                "rows": [r.to_json_obj() for r in self.rows]}


def verify_theorem(family: FamilySpec, char: Character, s: int, N: int) -> DivisibilityReport:
    """Dissect the partial sum and certify the predicted kernel divisors.

    Rows for i outside S must divide (anything else raises
    DivisibilityFalsified); rows inside S record "divides" when the division
    happens to work and "not-claimed" when it does not.  Part i is the
    residue slice coeffs[i::s] of the partial sum, divided by div_binomial
    for each e in pochhammer_exponents(lam) (F kernels) or
    pochhammer_exponents(mu, 2) (G kernels) in turn, up to the first
    NotDivisible; only a quotient becomes an IntPoly.  A slice may end in
    zeros, which change neither a class's remainder nor the stripped
    quotient, so this gives what dissect and exact_div by
    those binomials would give.
    """
    if N < 0 or s < 1:
        raise ValueError("need N >= 0 and s >= 1")
    check_modulus(s)
    in_s = residue_set(char, s)
    if family.kernel == "G" and s % 2 == 0:
        raise OddModulusRequired(f"G-type divisibility needs odd s, got {s}")
    lam, mu = thresholds(N, s, 1)
    if family.kernel == "F":
        exponents, divisor_name = pochhammer_exponents(lam), f"(q;q)_{lam}"
    else:
        exponents, divisor_name = pochhammer_exponents(mu, 2), f"(q;q2)_{mu}"
    coeffs = partial_sum(family, N).coeffs

    def attempt(i: int) -> DivisibilityRow:
        num = coeffs[i::s]
        try:
            for e in exponents:
                num = div_binomial(num, e)
        except NotDivisible:
            if i not in in_s:
                raise DivisibilityFalsified(
                    f"{family.label}, s={s}, N={N}: part i={i} is outside "
                    f"S={sorted(in_s)} yet {divisor_name} does not divide it")
            return DivisibilityRow(i, True, divisor_name, "not-claimed", None)
        return DivisibilityRow(i, i in in_s, divisor_name, "divides",
                               IntPoly._new(num))

    rows = tuple(attempt(i) for i in range(s))
    return DivisibilityReport(family.label, s, N, in_s, rows)
