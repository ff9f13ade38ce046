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

where column c+1 carries the weight sequence shifted by one.  Each rule is
an endless stream: weight m of a level enters as a new column and moves
every older column one step along the anti-diagonal, so the first N values
cost O(N^2) shift-and-adds in total, however the requests grow, and no
multiplications.  Tests check the ladder against direct tuple enumeration.
"""

from __future__ import annotations

import functools
import json
import operator
import threading
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence

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

def _ladder(weights: Iterable[IntPoly], c0: int, base: int,
            cap: int | None = None) -> Iterator[IntPoly]:
    """Stream A(n) = sum_t Q^(t^2 + c0*t) * w(t) * [n choose t]_Q for n = 0, 1, ...

    Q = q**base.  Column i holds the ladder of the weights shifted by i.
    When w(m) arrives, column m starts at w(m) and every column i < m takes
    one step, in descending i, by adding column i+1 (already advanced)
    shifted by Q^(m + c0); after that column 0 is A(m).  With cap set, all
    work is truncated above that degree.
    """
    cols = []
    for m, w in enumerate(weights):
        cols.append(list(w.coeffs[: cap + 1] if cap is not None else w.coeffs))
        off = base * (m + c0)
        stop = None if cap is None else cap + 1 - off
        if stop is None or stop > 0:
            for i in range(m - 1, -1, -1):
                _add_into(cols[i], cols[i + 1][:stop], off)
        yield IntPoly(cols[0])


# -- coefficient-polynomial rules --------------------------------------------

def _weights_kz(params, cap: int | None) -> Iterator[IntPoly]:
    return repeat(IntPoly.one())


def _weights_hikami(params, cap: int | None) -> Iterator[IntPoly]:
    m, alpha = params
    vals = repeat(IntPoly.one())
    for level in range(1, m):
        vals = _ladder(vals, 1 if level > alpha else 0, 1, cap)
        if level == alpha:
            vals = islice(vals, 1, None)
    return vals


def _weights_gk(params, cap: int | None) -> Iterator[IntPoly]:
    (k,) = params
    vals = repeat(IntPoly.one())
    for _ in range(k - 1):
        vals = _ladder(vals, 1, 2, cap)
    shifted = (t.shift(n) for n, t in enumerate(vals))
    return shifted if cap is None else (g.truncate(cap) for g in shifted)


def _weights_inline(params, cap: int | None) -> Iterator[IntPoly]:
    terms = params if cap is None else (p.truncate(cap) for p in params)
    return chain(terms, repeat(IntPoly()))


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
        """f_0..f_upper (or g_0..g_upper), exact, as a new list; drawn from
        the family's stream, so a request pays only for values not yet drawn."""
        if upper < 0:
            raise ValueError("upper must be nonnegative")
        with _LOCK:
            if self.label not in _STREAMS:
                _STREAMS[self.label] = (_RULES[self.kind](self.params, None), [])
            stream, have = _STREAMS[self.label]
            try:
                while len(have) <= upper:
                    have.append(next(stream))
            except BaseException:
                # a generator that raised is finished; start over next time
                del _STREAMS[self.label]
                raise
            return have[: upper + 1]


@dataclass(frozen=True, slots=True)
class PartialSum:
    """partial_sum result: family, truncation N and exact value, all compared."""

    family: FamilySpec
    upper: int
    value: IntPoly

    def __repr__(self):
        return f"PartialSum({self.family.label!r}, N={self.upper})"


# per label: the rule's stream and the prefix drawn from it so far.  The
# lock is needed because a generator cannot be advanced from two threads.
_LOCK = threading.Lock()
_STREAMS: dict[str, tuple[Iterator[IntPoly], list[IntPoly]]] = {}


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


def _add_into(acc: list, coeffs: Sequence, off: int = 0) -> list:
    """acc += q^off * coeffs, coefficientwise and in place."""
    end = off + len(coeffs)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[off:end] = map(operator.add, acc[off:end], coeffs)
    return acc


def term_poly(family: FamilySpec, n: int) -> IntPoly:
    """The coefficient polynomial f_n(q) (F-type) or g_n(q) (G-type)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return family.coefficient_polys(n)[n]


def _horner(family: FamilySpec, weights: Sequence[IntPoly],
            cap: int | None = None) -> IntPoly:
    """sum_n w_n*K_n over the given weights, K_n the family's kernel.

    Horner's rule over the kernel's binomial factors f_j = 1 - q^e_j,
    w_0 + f_1*(w_1 + f_2*(w_2 + ...)), makes every step one mul_binomial
    pass and forms no dense product; with cap set, each step is truncated.
    """
    exps = pochhammer_exponents(len(weights) - 1, _step(family))
    acc = []
    for n in range(len(weights) - 1, 0, -1):
        acc = mul_binomial(_add_into(acc, weights[n].coeffs), exps[n - 1])
        if cap is not None:
            del acc[cap + 1:]
    return IntPoly(_add_into(acc, weights[0].coeffs))


def partial_sum(family: FamilySpec, upper: int) -> PartialSum:
    """Sum of term_poly(n)*kernel(n) for n = 0..upper, exactly.

    Memoized per (family, upper); one Horner pass of O(upper) binomial
    factors, each O(degree).
    """
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    return PartialSum(family, upper, _partial_sum_value(family, upper))


@functools.lru_cache(maxsize=None)
def _partial_sum_value(family: FamilySpec, upper: int) -> IntPoly:
    return _horner(family, family.coefficient_polys(upper))


def partial_sum_prefix(family: FamilySpec, upper: int, cap: int) -> IntPoly:
    """partial_sum(family, upper).value truncated at degree cap.

    Computed inside Z[q]/(q^(cap+1)), from weights streamed with the same
    cap, so the huge high-degree tails of the exact sum are never built.
    """
    if upper < 0 or cap < 0:
        raise ValueError("upper and cap must be nonnegative")
    weights = list(islice(_RULES[family.kind](family.params, cap), upper + 1))
    return _horner(family, weights, cap)
