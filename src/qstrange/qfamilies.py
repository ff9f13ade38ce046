"""Habiro-type family constructors and exact partial sums.

A family is a kernel kind plus its weights, the coefficient polynomials:
F-type families sum f_n(q)*(q;q)_n, G-type families sum g_n(q)*(q;q^2)_n.
The built-ins are the Kontsevich-Zagier series ("kz"), the Hikami
hierarchy ("hikami:m=<m>,alpha=<a>") and the G_k ladder ("gk:k=<k>");
inline JSON descriptors give finite user-defined families.

The built-in weights are nested sums of Gaussian binomials weighted by
q^(t^2+c*t).  _shape lists their nesting levels, innermost first, as runs
(count, c0, base, drop): count > 0 equal levels (a run of none would only
copy each weight), after which the first `drop` values are dropped.  It
also says whether gk's final shift of weight n by q**n follows.  The exact
stream here, the modular replay and the work estimates all read it, the
estimates before any limit is checked, so its size does not grow with k
or m.  A level maps w to A(n) = sum_t Q^(t^2+c0*t) w(t) [n choose t]_Q,
Q = q**base.  Rather than enumerate tuples, it is computed by a column
recurrence derived from the Pascal rule

    A_c(n) = A_c(n-1) + Q^(n+c) * A_(c+1)(n-1),

where column c+1 carries the weight sequence shifted by one.  One endless
generator runs each run of levels: weight m enters each level in turn as
a new column and moves its older columns one step along the anti-diagonal,
so the first N values cost O(N^2) shift-and-adds per level however the
requests grow, and no products.  Tests check it against tuple enumeration.
"""

from __future__ import annotations

import functools
import json
import threading
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat

from qstrange._admit import MAX_PARTIAL_SUM_WORK, InvalidParam, admit
from qstrange._record import Record
from qstrange.exactpoly import (IntPoly, _add_into, mul_binomial,
                                 pochhammer_exponents)

__all__ = [
    "FamilySpec",
    "PartialSum",
    "InvalidParam",
    "ParseError",
    "parse_family",
    "term_poly",
    "partial_sum",
    "partial_sum_prefix",
    "MAX_PARTIAL_SUM_WORK",
]


class ParseError(ValueError):
    """Malformed family descriptor."""


# -- the ladder --------------------------------------------------------------

def _ladder(weights: Iterable[IntPoly], c0: int, base: int,
            cap: int | None = None, count: int = 1) -> Iterator[IntPoly]:
    """Stream A(n) = sum_t Q^(t^2 + c0*t) * w(t) * [n choose t]_Q for n = 0, 1, ...

    Q = q**base.  With count > 1, one generator runs count such levels, each
    one's A(n) the next one's w(n).  In a level, column i holds the ladder
    of the weights shifted by i.  When w(m) arrives, column m starts at w(m)
    and every column i < m takes one step, in descending i, by adding column
    i+1 (already advanced) shifted by Q^(m + c0); then column 0 is A(m), a
    list passed on.  With cap set, all work is truncated above that degree.
    """
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
        yield IntPoly._new(val)


# -- coefficient-polynomial rules --------------------------------------------

def _shape(family: FamilySpec) -> tuple[list, bool]:
    """(levels, shift) of the family's weights, as the module docstring says."""
    runs, shift = [], family.kind == "gk"
    if family.kind == "hikami":
        m, alpha = family.params
        runs = [(alpha, 0, 1, alpha > 0), (m - 1 - alpha, 1, 1, False)]
    elif shift:
        runs = [(family.params[0] - 1, 1, 2, False)]
    return [run for run in runs if run[0]], shift


def _weights(family: FamilySpec, cap: int | None) -> Iterator[IntPoly]:
    """The family's weights, each truncated at degree cap when cap is set:
    its inline terms then zeros, or all ones, through each ladder level."""
    vals = repeat(IntPoly.one())
    if family.kind == "inline":
        vals = chain(family.params, repeat(IntPoly()))
    levels, shift = _shape(family)
    for count, c0, base, drop in levels:
        vals = islice(_ladder(vals, c0, base, cap, count), drop, None)
    if shift:
        vals = (t.shift(n) for n, t in enumerate(vals))
    return vals if cap is None else (w.truncate(cap) for w in vals)


class FamilySpec(Record, compare=("label",)):
    """Immutable family descriptor: kernel kind, label, coefficient rule.

    kernel is "F" or "G"; kind names the rule ("kz", "hikami", "gk",
    "inline") and params holds its arguments.  The label determines the
    rest, so only the label is compared.
    """

    __slots__ = ("kernel", "label", "kind", "params")

    def __init__(self, kernel: str, label: str, kind: str, params: tuple):
        if kernel not in ("F", "G"):
            raise InvalidParam(f"unknown kernel {kernel!r}")
        if kind not in ("kz", "hikami", "gk", "inline"):
            raise InvalidParam(f"unknown family kind {kind!r}")
        super().__init__(kernel, label, kind, params)

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
                _STREAMS[self.label] = (_weights(self, None), [])
            stream, have = _STREAMS[self.label]
            try:
                while len(have) <= upper:
                    have.append(next(stream))
            except BaseException:
                # a generator that raised is finished; start over next time
                del _STREAMS[self.label]
                raise
            return have[: upper + 1]


class PartialSum(Record):
    """partial_sum result: family, truncation N and exact value, all compared."""

    __slots__ = ("family", "upper", "value")

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
        m, alpha = _builtin_params(head, tail, text)
        return FamilySpec("F", f"hikami:m={m},alpha={alpha}", "hikami", (m, alpha))
    if head == "gk":
        (k,) = _builtin_params(head, tail, text)
        return FamilySpec("G", f"gk:k={k}", "gk", (k,))
    raise ParseError(f"unknown family descriptor {descriptor!r}")


def _builtin_params(head: str, tail: str, full: str) -> tuple:
    """(m, alpha) for head "hikami", else (k,), read from tail and checked;
    the built-in families and characters share these parameters."""
    if head == "hikami":
        args = _parse_kv(tail, ("m", "alpha"), full)
        m, alpha = args["m"], args["alpha"]
        if m < 1:
            raise InvalidParam(f"m must be >= 1, got {m}")
        if not 0 <= alpha < m:
            raise InvalidParam(f"alpha must lie in 0..{m - 1}, got {alpha}")
        return m, alpha
    k = _parse_kv(tail, ("k",), full)["k"]
    if k < 1:
        raise InvalidParam(f"k must be >= 1, got {k}")
    return (k,)


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


def _json_loads(text: str, what: str):
    """json.loads, with input nested too deeply for the decoder refused as a
    ParseError instead of escaping as a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None


def _parse_inline(text: str) -> FamilySpec:
    try:
        obj = _json_loads(text, "inline family JSON")
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad inline family JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("inline family must be a JSON object")
    kernel = obj.get("kernel")  # checked by FamilySpec
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


def _step(family: FamilySpec) -> int:
    return 1 if family.kernel == "F" else 2


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
    return IntPoly._new(_add_into(acc, weights[0].coeffs))


def partial_sum_work(family: FamilySpec, upper: int, cap: int = -1) -> int:
    """Work estimate for partial_sum(family, upper), from the parameters alone.

    It is passes x degree x coefficient words, with N = upper:
    - passes: the N binomial-factor passes of the Horner sum, plus
      N(N+1)/2 column steps for each ladder level of the weights;
    - degree: that of the sum, the kernel's N(N+1)/2 or N**2 plus the
      weights'; a level of base b and offset c0 that is read before
      `later` drops, at index N + later, adds b (N+later) (N+later+c0),
      and the final shift by q**n adds N;
    - words: 1 + bits // 64, where bits bounds the coefficients by the sum
      of their absolute values at q = 1: each kernel factor and each ladder
      level at most doubles it, and the N+1 terms add bits(N+1).
    With cap >= 0 it also counts the 1-q substitution of the sum truncated
    at degree cap, as xi_coeffs runs it: cap + 1 more passes.  w(0) still
    passes every level, so at N = 0 it counts a pass per level and degree
    1: gk:k=80000 is refused there; 79999 takes 0.13 s on a 2-vCPU VM.
    """
    N = upper
    wdeg = wbits = 0
    if family.kind == "inline":
        terms = family.params[: N + 1]
        wdeg = max((len(p.coeffs) for p in terms), default=0)
        wbits = max((sum(map(abs, p.coeffs)).bit_length() for p in terms),
                    default=0)
    levels, shift = _shape(family)
    count = sum(c for c, *_ in levels)
    later = sum(drop for *_, drop in levels)
    wdeg += N * shift
    for c, c0, base, drop in levels:
        wdeg += c * base * (N + later) * (N + later + c0)
        later -= drop
    kdeg = N * (N + 1) // 2 if family.kernel == "F" else N * N
    bits = N + count * (N + 1) + wbits + (N + 1).bit_length()
    passes = N + count * N * (N + 1) // 2 + cap + 1
    return max(passes, count) * max(kdeg + wdeg, 1) * (1 + bits // 64)


def partial_sum(family: FamilySpec, upper: int) -> PartialSum:
    """Sum of term_poly(n)*kernel(n) for n = 0..upper, exactly.

    Memoized per (family, upper); one Horner pass of O(upper) binomial
    factors, each O(degree).  Refused with InvalidParam when
    partial_sum_work is over MAX_PARTIAL_SUM_WORK.
    """
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, upper),
          f"partial-sum work of {family.label} at N = {upper}")
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
    weights = list(islice(_weights(family, cap), upper + 1))
    return _horner(family, weights, cap)
