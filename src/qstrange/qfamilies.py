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

The ladder and the Horner sums hold each polynomial as a _packed triple
(l1 bound, slot width, one packed int of exactpoly's codec), so that a
shift-and-add is one pass in C over an int.  Each family's weights are
drawn once, from _stream, whose memo entry per family holds what the
ladders keep and grows with each draw; only coefficient_polys decodes
them to IntPoly, and a sum is decoded once.  Every memo here is one of
_memo's, bounded by the bytes its entries hold.
"""

from __future__ import annotations

import _thread
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat

from qstrange import _memo
from qstrange._admit import MAX_PARTIAL_SUM_WORK, InvalidParam, admit
from qstrange._record import Record
from qstrange.exactpoly import (WORD, IntPoly, _decode, _encode, _fitting,
                                 _parse_number, _quoted, _respace, _truncate,
                                 pochhammer_exponents)

__all__ = [
    "FamilySpec",
    "InvalidParam",
    "ParseError",
    "parse_family",
    "partial_sum",
    "partial_sum_prefix",
    "MAX_PARTIAL_SUM_WORK",
]


class ParseError(ValueError):
    """Malformed family descriptor."""


# -- the ladder --------------------------------------------------------------

def _ladder(weights: Iterable[tuple], c0: int, base: int,
            cap: int | None = None, count: int = 1,
            held: list | None = None) -> Iterator[tuple]:
    """Stream A(n) = sum_t Q^(t^2 + c0*t) * w(t) * [n choose t]_Q for n = 0, 1, ...

    Q = q**base.  With count > 1, one generator runs count such levels, each
    one's A(n) the next one's w(n).  In a level, column i holds the ladder
    of the weights shifted by i.  When w(m) arrives, column m starts at w(m)
    and every column i < m takes one step, in descending i, by adding column
    i+1 (already advanced) shifted by Q^(m + c0); then column 0 is A(m),
    passed on.  With cap set, all work is truncated above that degree.

    Weights come and go as _packed triples; every column is one packed
    int, so a step is one shift and one addition.  Its l1 bound follows the
    same recurrence on the bound of w(m), and a level's column 0 bounds all
    its columns; before a step would let the last level's column 0 reach
    the slot (or w(m) comes wider), every column moves to a doubled width.
    The levels' lists of columns and of bounds go to held, when given, so
    that a caller can size what the ladder keeps.
    """
    width = WORD
    levels = [([], []) for _ in range(count)]  # (packed columns, l1 bounds)
    if held is not None:
        held += chain.from_iterable(levels)
    for m, (norm, wide, val) in enumerate(weights):
        if cap is not None:
            val = _truncate(val, wide, cap + 1)
        for _, norms in levels:
            norms.append(norm)
            for i in range(m - 1, -1, -1):
                norms[i] += norms[i + 1]
            norm = norms[0]
        if norm >> (width - 1) or wide > width:
            new = _fitting(max(width, wide), norm)
            for cols, _ in levels:
                cols[:] = [_respace(x, width, new) for x in cols]
            width = new
        off = base * (m + c0)
        shift = off * width
        if wide < width:
            val = _respace(val, wide, width)
        for cols, _ in levels:
            cols.append(val)
            if cap is None:
                for i in range(m - 1, -1, -1):
                    cols[i] += cols[i + 1] << shift
            elif off <= cap:
                for i in range(m - 1, -1, -1):
                    cols[i] = _truncate(cols[i] + (cols[i + 1] << shift),
                                        width, cap + 1)
            val = cols[0]
        yield norm, width, val


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


def _weights(family: FamilySpec, cap: int | None,
             held: list | None = None) -> Iterator[tuple]:
    """The family's _packed weights: its inline terms then zeros, or all
    ones, through each ladder level (truncated at degree cap when cap is
    set), then gk's shift of weight n by q**n, that is by n slots.  Each
    level's columns go to held as _ladder says."""
    vals = repeat((1, WORD, 1))
    if family.kind == "inline":
        vals = chain(map(_packed, family.params), repeat((0, WORD, 0)))
    levels, shift = _shape(family)
    for count, c0, base, drop in levels:
        vals = islice(_ladder(vals, c0, base, cap, count, held), drop, None)
    if shift:
        vals = ((norm, width, x << n * width)
                for n, (norm, width, x) in enumerate(vals))
    return vals


class FamilySpec(Record, compare=("label",)):
    """Immutable family, built from its descriptor: "kz",
    "hikami:m=<m>,alpha=<a>", "gk:k=<k>" or inline JSON.

    kernel ("F" or "G"), kind ("kz", "hikami", "gk", "inline"), params
    (the rule's arguments) and label (the canonical descriptor) are all
    read from it, so the label determines the rest and only the label is
    compared: every family memo is keyed on it.
    """

    __slots__ = ("kernel", "label", "kind", "params")

    def __init__(self, descriptor: str):
        if not isinstance(descriptor, str):
            raise ParseError("descriptor must be a string")
        text = descriptor.strip()
        head, _, tail = text.partition(":")
        if text.startswith("{"):
            fields = _parse_inline(text)
        elif text == "kz":
            fields = "F", "kz", "kz", ()
        elif head == "hikami":
            m, alpha = _builtin_params(head, tail, text)
            fields = "F", f"hikami:m={m},alpha={alpha}", "hikami", (m, alpha)
        elif head == "gk":
            (k,) = _builtin_params(head, tail, text)
            fields = "G", f"gk:k={k}", "gk", (k,)
        else:
            raise ParseError(f"unknown family descriptor {_quoted(descriptor)}")
        super().__init__(*fields)

    def __repr__(self):
        return f"FamilySpec({self.label!r})"

    def __str__(self):
        return self.label

    def coefficient_polys(self, upper: int) -> list[IntPoly]:
        """f_0..f_upper (or g_0..g_upper), exact, as a new list; drawn from
        the family's stream, so a request pays only for values not yet
        drawn, and refused with InvalidParam as partial_sum(upper) is."""
        return [IntPoly._new(_decode(x, width))
                for _, width, x in _stream(self, upper)]


_STREAMS = _memo.Memo("qstrange.qfamilies._stream")


def _stream(family: FamilySpec, upper: int) -> list[tuple]:
    """The family's _packed weights 0..upper as a new list, admitted as
    partial_sum(upper) is, each drawn once by the family's _Drawer."""
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, upper),
          f"weights of {family.label} up to n = {upper}")
    entry = _STREAMS.get((family,)) or (None, None, _Drawer(family))
    return entry[2](upper)


class _Drawer:
    """Draws a family's weights from _weights and keeps them: a call
    draws up to upper and returns a copy of drawn[:upper + 1].  The memo
    entry, (drawn, held, drawer) with held the columns the ladders keep, is
    put again after each draw, counted at the bytes _memo.nbytes would
    give it: the weights' bytes are summed into `weighed` as each is drawn,
    and the held columns, which every draw moves, are counted again.  The
    lock is there because a generator cannot be advanced from two threads;
    one that raised (say, on KeyboardInterrupt) is finished, so the stream
    starts over, and its entry is put again, empty.  A cold race may build
    two drawers; both are right."""

    __slots__ = ("family", "lock", "gen", "drawn", "held", "weighed")

    def __init__(self, family: FamilySpec):
        self.family, self.lock, self.gen = family, _thread.allocate_lock(), None
        self.drawn, self.held, self.weighed = [], [], 0

    def __call__(self, upper: int) -> list[tuple]:
        drawn = self.drawn
        with self.lock:
            if len(drawn) <= upper:
                start = len(drawn)
                try:
                    self.gen = self.gen or _weights(self.family, None,
                                                    self.held)
                    drawn.extend(islice(self.gen, upper + 1 - start))
                except BaseException:
                    self.gen = None
                    drawn.clear()
                    self.held.clear()
                    self.weighed = 0
                    raise
                finally:
                    new = drawn[start:]  # none once a draw has raised
                    self.weighed += (sum(map(tuple.__sizeof__, new)) + sum(
                        map(int.__sizeof__, chain.from_iterable(new))))
                    entry = (drawn, self.held, self)
                    _STREAMS.put((self.family,), entry, (
                        sys.getsizeof(entry) + sys.getsizeof(drawn)
                        + self.weighed + _memo.nbytes(self.held)
                        + sys.getsizeof(self)))
            return drawn[: upper + 1]


def parse_family(descriptor: str) -> FamilySpec:
    """FamilySpec(descriptor), under the name the README and the CLI use."""
    return FamilySpec(descriptor)


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
        raise ParseError(f"expected {','.join(n + '=<int>' for n in names)} in {_quoted(full)}")
    out = {}
    for part, name in zip(parts, names):
        key, eq, val = part.partition("=")
        if key.strip() != name or not eq:
            raise ParseError(f"expected {name}=<int> in {_quoted(full)}")
        try:
            out[name] = _parse_number(val.strip())
        except ValueError:
            raise ParseError(f"bad integer for {name} in {_quoted(full)}") from None
    return out


def _json_loads(text: str, what: str):
    """json.loads, with input nested too deeply for the decoder refused as a
    ParseError instead of escaping as a RecursionError, and integers read
    in exactpoly's number grammar."""
    try:
        return json.loads(text, parse_int=_parse_number)
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None


def _parse_inline(text: str) -> tuple:
    """FamilySpec's fields for inline JSON; the label is its canonical form."""
    try:
        obj = _json_loads(text, "inline family JSON")
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad inline family JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("inline family must be a JSON object")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise ParseError("inline family needs a 'terms' list")
    try:
        polys = tuple(IntPoly.from_json_obj(t) for t in terms)
    except ValueError as exc:
        raise ParseError(f"bad term polynomial: {exc}") from None
    kernel = obj.get("kernel")
    if kernel not in ("F", "G"):
        raise InvalidParam(f"unknown kernel {_quoted(kernel)}")
    canon = {"kernel": kernel, "terms": [p.to_json_obj() for p in polys]}
    label = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return kernel, label, "inline", polys


def _step(family: FamilySpec) -> int:
    return 1 if family.kernel == "F" else 2


def _packed(w: IntPoly) -> tuple[int, int, int]:
    """(l1 norm, width, packed int) of a weight, at the least doubled width
    whose slots hold it: the one form in which the stream keeps weights."""
    norm = sum(map(abs, w.coeffs))
    width = _fitting(WORD, norm)
    return norm, width, _encode(w.coeffs, width)


def _horner(family: FamilySpec, weights: Sequence[tuple],
            cap: int | None = None, with_width: bool = False):
    """sum_n w_n*K_n over the given _packed weights, K_n the family's kernel,
    as an IntPoly; with with_width set, (that IntPoly, the slot width w it
    was decoded from), so that every coefficient is below 2**(w-1).

    Horner's rule over the kernel's binomial factors f_j = 1 - q^e_j,
    w_0 + f_1*(w_1 + f_2*(w_2 + ...)), on packed ints (exactpoly._encode):
    a step adds w_n and subtracts the sum shifted by e_j slots, and forms
    no dense product; with cap set, each step is truncated.

    bound bounds every coefficient: it gains |w_n|, the l1 norm, and at
    most doubles per factor.  When it reaches the slot, the sum itself is
    measured, and only a sum that fills most of the slot moves to a
    doubled width; so the width follows the sum, not its final bound.  A
    w_n packed narrower moves to that width, and one packed wider (a ladder
    hands weights out at its own width) moves the sum to its width.
    Weights much shorter than the sum (kz's 1, gk:k=1's q^n) are summed
    apart, in `short`, until that grows: each step then makes one pass
    over the long sum, not two.  Both parts are sums of some of the terms
    that bound bounds, so each stays within it.
    """
    exps = pochhammer_exponents(len(weights) - 1, _step(family))
    width, acc, short, bound = WORD, 0, 0, 0
    for n in range(len(weights) - 1, -1, -1):
        norm, wide, w = weights[n]
        bound = (bound + norm) << (n > 0)
        new = max(width, wide)
        if bound >> (width - 1):
            # measure the sum, and double the width only when it fills
            # more than three quarters of the slot
            acc, short = acc + short, 0
            bound = (max(map(abs, _decode(acc, width))) + norm) << (n > 0)
            if bound >> (width - width // 4 - 1):
                new = _fitting(max(2 * width, new), bound)
        if new > width:
            acc, short, width = _respace(acc + short, width, new), 0, new
        short += w if wide == width else _respace(w, wide, width)
        if short.bit_length() > acc.bit_length() >> 4:
            acc, short = acc + short, 0
        if n:
            shift = exps[n - 1] * width
            acc -= acc << shift
            short -= short << shift
        if cap is not None:  # w_n may reach past it, say by gk's shift
            acc = _truncate(acc, width, cap + 1)
            short = _truncate(short, width, cap + 1)
    poly = IntPoly._new(_decode(acc + short, width))
    return (poly, width) if with_width else poly


def _work_factors(family: FamilySpec, upper: int) -> tuple[int, ...]:
    """partial_sum_work's (passes, levels, degree, words), less the 1-q."""
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
    passes = N + count * N * (N + 1) // 2
    return passes, count, max(kdeg + wdeg, 1), 1 + bits // 64


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
    passes, count, degree, words = _work_factors(family, upper)
    return max(passes + cap + 1, count) * degree * words


def partial_sum(family: FamilySpec, upper: int) -> IntPoly:
    """Sum of f_n(q)*kernel(n) for n = 0..upper, exactly, f_n the n-th of
    the family's coefficient_polys.

    Memoized per (family, upper): a call returns the memo's one immutable
    IntPoly while the memo keeps it.  One Horner pass of O(upper) binomial
    factors, each a shift and a subtraction of one packed int, in
    O(degree x slot words).  Raises InvalidParam if partial_sum_work >
    MAX_PARTIAL_SUM_WORK.
    """
    _admit_sum(family, upper)
    return _partial_sum_value(family, upper)


def _partial_sum(family: FamilySpec, upper: int) -> IntPoly:
    """partial_sum(family, upper), built afresh and not kept: for a caller
    that reads a sum once, to keep something smaller."""
    _admit_sum(family, upper)
    return _horner(family, _stream(family, upper))


def _admit_sum(family: FamilySpec, upper: int) -> None:
    if upper < 0:
        raise ValueError("upper must be nonnegative")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, upper),
          f"partial-sum work of {family.label} at N = {upper}")


# what _memo.nbytes counts for an IntPoly beyond its coefficient tuple
_SHELL = _memo.nbytes(IntPoly._new(())) - ().__sizeof__()


@_memo.memo(sized=True)
def _partial_sum_value(family: FamilySpec, upper: int) -> tuple[IntPoly, int]:
    """The sum, and a bound on the bytes of its memo entry read from the
    slot width w it was decoded from, not from its ints: no coefficient is
    larger than 2**(w-1) - 1, so none takes more bytes than that one.  It
    never counts below _memo.nbytes of the sum, and for the built-in
    families at most about 1.7x it."""
    poly, width = _horner(family, _stream(family, upper), with_width=True)
    coeffs = poly.coeffs
    return poly, (_SHELL + coeffs.__sizeof__()
                  + len(coeffs) * int.__sizeof__((1 << width - 1) - 1))


def partial_sum_prefix(family: FamilySpec, upper: int, cap: int) -> IntPoly:
    """partial_sum(family, upper) truncated at degree cap.

    Computed inside Z[q]/(q^(cap+1)), from weights streamed with the same
    cap, so the huge high-degree tails of the exact sum are never built.
    Refused with InvalidParam when partial_sum_work, its degree cut at
    cap + 1, is over MAX_PARTIAL_SUM_WORK.
    """
    if upper < 0 or cap < 0:
        raise ValueError("upper and cap must be nonnegative")
    passes, count, degree, words = _work_factors(family, upper)
    admit("MAX_PARTIAL_SUM_WORK",
          max(passes, count) * min(degree, cap + 1) * words,
          f"prefix work of {family.label} at N = {upper}, cap {cap}")
    return _horner(family, list(islice(_weights(family, cap), upper + 1)), cap)
