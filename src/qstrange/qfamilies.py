"""Habiro-type family constructors and exact partial sums.

A family is a kernel kind plus a rule n -> coefficient polynomial: F-type
families sum f_n(q)*(q;q)_n, G-type families sum g_n(q)*(q;q^2)_n.  The
built-in rules cover the Kontsevich-Zagier series ("kz"), the Hikami
hierarchy ("hikami:m=<m>,alpha=<a>"), and the G_k ladder ("gk:k=<k>");
inline JSON descriptors give finite user-defined families.

The built-in coefficient polynomials are nested sums of Gaussian binomials
weighted by q^(t^2+c*t).  Rather than enumerate tuples, each nesting level
is computed by a column recurrence derived from the Pascal rule

    A_c(n) = A_c(n-1) + Q^(n+c) * A_(c+1)(n-1),

where column c+1 carries the weight sequence shifted by one.  Every update
is a shift-and-add, so the whole table costs O(steps^2) polynomial
additions and no multiplications.  Tests check the ladder against direct
tuple enumeration.
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass, field
from typing import Sequence

from qstrange.exactpoly import IntPoly, mul_binomial, pochhammer, pochhammer_exponents

__all__ = [
    "FamilySpec",
    "PartialSum",
    "InvalidParam",
    "ParseError",
    "parse_family",
    "term_poly",
    "kernel_poly",
    "partial_sum",
    "partial_sum_prefix",
]


class InvalidParam(ValueError):
    """Family parameter outside its legal range."""


class ParseError(ValueError):
    """Malformed family descriptor."""


# -- the ladder --------------------------------------------------------------

def _ladder_values(weights: Sequence[IntPoly], c0: int, steps: int, base: int,
                   cap: int | None = None) -> list[IntPoly]:
    """Values A(n) = sum_t Q^(t^2 + c0*t) * w(t) * [n choose t]_Q for n = 0..steps.

    Q = q**base.  Column c (c = c0..c0+steps) holds the ladder of the weight
    sequence shifted by c-c0; its n=0 value is w(c-c0).  Updating columns in
    ascending order lets each step read the previous step's neighbor before
    it is overwritten.  With cap set, all work is truncated above that degree.
    """
    if len(weights) < steps + 1:
        raise ValueError("need weights up to index steps")
    cols = [list(weights[i].coeffs) for i in range(steps + 1)]
    if cap is not None:
        cols = [c[: cap + 1] for c in cols]
    out = [IntPoly(cols[0])]
    for n in range(1, steps + 1):
        for idx in range(steps - n + 1):
            src = cols[idx + 1]
            off = base * (n + c0 + idx)
            stop = len(src)
            if cap is not None:
                stop = min(stop, cap + 1 - off)
                if stop <= 0:
                    continue
            dst = cols[idx]
            need = off + stop
            if len(dst) < need:
                dst.extend([0] * (need - len(dst)))
            for i in range(stop):
                v = src[i]
                if v:
                    dst[off + i] += v
        out.append(IntPoly(cols[0]))
    return out


# -- coefficient-polynomial rules --------------------------------------------

def _weights_kz(params, upper: int, cap: int | None) -> list[IntPoly]:
    return [IntPoly.one()] * (upper + 1)


def _weights_hikami(params, upper: int, cap: int | None) -> list[IntPoly]:
    m, alpha = params
    # levels run with slack so the alpha-level shift (binomial argument +1)
    # never runs off the end of the previous level's value table
    vals = [IntPoly.one()] * (upper + 2 * m + 3)
    for level in range(1, m):
        c0 = 1 if level > alpha else 0
        got = _ladder_values(vals, c0, len(vals) - 1, 1, cap)
        vals = got[1:] if level == alpha else got
    return vals[: upper + 1]


def _weights_gk(params, upper: int, cap: int | None) -> list[IntPoly]:
    (k,) = params
    vals = [IntPoly.one()] * (upper + 1)
    for _ in range(k - 1):
        vals = _ladder_values(vals, 1, upper, 2, cap)
    out = []
    for n, t in enumerate(vals):
        g = t.shift(n)
        out.append(g.truncate(cap) if cap is not None else g)
    return out


def _weights_inline(params, upper: int, cap: int | None) -> list[IntPoly]:
    out = list(params[: upper + 1])
    out.extend([IntPoly()] * (upper + 1 - len(out)))
    if cap is not None:
        out = [p.truncate(cap) for p in out]
    return out


_RULES = {
    "kz": _weights_kz,
    "hikami": _weights_hikami,
    "gk": _weights_gk,
    "inline": _weights_inline,
}


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """Immutable family descriptor: kernel kind, label, coefficient rule.

    kind names the rule ("kz", "hikami", "gk", "inline") and params holds its
    arguments.  The label determines the rest, so only the label is compared.
    """

    kernel: str = field(compare=False)  # "F" or "G"
    label: str
    kind: str = field(compare=False)
    params: tuple = field(compare=False)

    def __post_init__(self):
        if self.kernel not in ("F", "G"):
            raise InvalidParam(f"unknown kernel {self.kernel!r}")

    def __repr__(self):
        return f"FamilySpec({self.label!r})"

    def __str__(self):
        return self.label

    def coefficient_polys(self, upper: int) -> list[IntPoly]:
        """f_0..f_upper (or g_0..g_upper), exact, cached per label."""
        if upper < 0:
            raise ValueError("upper must be nonnegative")
        with _LOCK:
            have = _WEIGHT_CACHE.get(self.label)
            if have is None or len(have) <= upper:
                have = _RULES[self.kind](self.params, upper, None)
                _WEIGHT_CACHE[self.label] = have
            return have[: upper + 1]


@dataclass(frozen=True, slots=True)
class PartialSum:
    """partial_sum result: family, truncation N and exact value, all compared."""

    family: FamilySpec
    upper: int
    value: IntPoly

    def __repr__(self):
        return f"PartialSum({self.family.label!r}, N={self.upper})"


# session caches; the lock covers both (coarse but contention-free in practice)
_LOCK = threading.RLock()
_WEIGHT_CACHE: dict[str, list[IntPoly]] = {}
_SUM_CACHE: dict[str, dict[int, IntPoly]] = {}


def parse_family(descriptor: str) -> FamilySpec:
    """Build a FamilySpec from "kz", "hikami:m=..,alpha=..", "gk:k=..", or inline JSON."""
    if not isinstance(descriptor, str):
        raise ParseError("descriptor must be a string")
    text = descriptor.strip()
    if text.startswith("{"):
        return _parse_inline(text)
    if text == "kz":
        return FamilySpec("F", "kz", "kz", ())
    head, _, tail = text.partition(":")
    if head == "hikami":
        args = _parse_kv(tail, ("m", "alpha"), text)
        m, alpha = args["m"], args["alpha"]
        if m < 1:
            raise InvalidParam(f"m must be >= 1, got {m}")
        if not 0 <= alpha < m:
            raise InvalidParam(f"alpha must lie in 0..{m - 1}, got {alpha}")
        return FamilySpec("F", f"hikami:m={m},alpha={alpha}", "hikami", (m, alpha))
    if head == "gk":
        args = _parse_kv(tail, ("k",), text)
        k = args["k"]
        if k < 1:
            raise InvalidParam(f"k must be >= 1, got {k}")
        return FamilySpec("G", f"gk:k={k}", "gk", (k,))
    raise ParseError(f"unknown family descriptor {descriptor!r}")


def _parse_kv(tail: str, names: tuple, full: str) -> dict:
    parts = tail.split(",") if tail else []
    if len(parts) != len(names):
        raise ParseError(f"expected {','.join(n + '=<int>' for n in names)} in {full!r}")
    out = {}
    for part, name in zip(parts, names):
        key, eq, val = part.partition("=")
        if key.strip() != name or not eq:
            raise ParseError(f"expected {name}=<int> in {full!r}")
        try:
            out[name] = int(val)
        except ValueError:
            raise ParseError(f"bad integer for {name} in {full!r}") from None
    return out


def _parse_inline(text: str) -> FamilySpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad inline family JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("inline family must be a JSON object")
    kernel = obj.get("kernel")
    if kernel not in ("F", "G"):
        raise InvalidParam(f"inline family kernel must be 'F' or 'G', got {kernel!r}")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ParseError("inline family needs a 'terms' list")
    try:
        polys = tuple(IntPoly.from_json_obj(t) for t in terms)
    except ValueError as exc:
        raise ParseError(f"bad term polynomial: {exc}") from None
    canon = {"kernel": kernel, "terms": [p.to_json_obj() for p in polys]}
    label = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return FamilySpec(kernel, label, "inline", polys)


def kernel_poly(family: FamilySpec, n: int) -> IntPoly:
    """(q;q)_n or (q;q^2)_n according to the family's kernel kind."""
    return pochhammer(n, _step(family))


def _step(family: FamilySpec) -> int:
    return 1 if family.kernel == "F" else 2


def _add_into(acc: list, coeffs: Sequence) -> list:
    """acc += coeffs, coefficientwise and in place."""
    if len(acc) < len(coeffs):
        acc.extend([0] * (len(coeffs) - len(acc)))
    acc[: len(coeffs)] = map(operator.add, acc, coeffs)
    return acc


def term_poly(family: FamilySpec, n: int) -> IntPoly:
    """The coefficient polynomial f_n(q) (F-type) or g_n(q) (G-type)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return family.coefficient_polys(n)[n]


def partial_sum(family: FamilySpec, upper: int) -> PartialSum:
    """Sum of term_poly(n)*kernel(n) for n = 0..upper, exactly.

    Built on top of the largest cached truncation below upper for the same
    family; the cache is invisible in results.  With K_n = f_1*...*f_n the
    kernel and f_j = 1 - q^e_j its binomial factors, the new terms are
    summed by Horner's rule from the top,

        sum_{n=start+1..upper} w_n*K_n
            = f_1*...*f_(start+1) * (w_(start+1) + f_(start+2)*(w_(start+2) + ...)),

    so every step is one shift-and-subtract pass (mul_binomial) and no
    dense product is formed.
    """
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    with _LOCK:
        per = _SUM_CACHE.setdefault(family.label, {})
        if upper in per:
            return PartialSum(family, upper, per[upper])
        start = max((n for n in per if n < upper), default=-1)
        weights = family.coefficient_polys(upper)
        exps = pochhammer_exponents(upper, _step(family))
        acc = []
        for n in range(upper, 0, -1):
            if n > start:
                acc = _add_into(acc, weights[n].coeffs)
            acc = mul_binomial(acc, exps[n - 1])
        if start < 0:
            value = IntPoly(_add_into(acc, weights[0].coeffs))
        else:
            value = per[start] + IntPoly(acc)
        per[upper] = value
        return PartialSum(family, upper, value)


def partial_sum_prefix(family: FamilySpec, upper: int, cap: int) -> IntPoly:
    """partial_sum(family, upper).value truncated at degree cap, computed
    entirely inside the quotient ring Z[q]/(q^(cap+1)).

    Exact for the coefficients it returns; the point is that the truncated
    run never builds the huge high-degree tails of the exact sum.  The
    same Horner scheme as partial_sum runs from the top term down, with a
    truncation after each binomial factor.
    """
    if upper < 0 or cap < 0:
        raise ValueError("upper and cap must be nonnegative")
    weights = _RULES[family.kind](family.params, upper, cap)
    exps = pochhammer_exponents(upper, _step(family))
    acc = []
    for n in range(upper, 0, -1):
        acc = mul_binomial(_add_into(acc, weights[n].coeffs), exps[n - 1])[: cap + 1]
    return IntPoly(_add_into(acc, weights[0].coeffs))
