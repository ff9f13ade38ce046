"""Property-based checks on random inputs, with fixed hypothesis settings.

derandomize=True makes every run draw the same examples, so the suite
stays reproducible; no example database is written.
"""

import copy
import functools
import json
import math
import pickle
import random
from fractions import Fraction
from itertools import islice, repeat
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (bernoulli_number, bernoulli_numbers_def, certificate_def,
                     character_def, cyclo_ref, div_binomial_def, divmod_def,
                     embed_def, exact_div_def, expansion_def, fold_def, gamma_def,
                     horner_def, is_prime_def, l_value_def, ladder_def,
                     monomial, power, reassemble_def, residue_set_def, to_rat,
                     truncate, twisted_table, twisted_table_def)
from qstrange.cyclofield import CycloNum, _fold, eval_at_root
from qstrange.dissection import (DivisibilityFalsified, DivisibilityReport,
                                 DivisibilityRow, OddModulusRequired, dissect,
                                 residue_set, verify_theorem)
from qstrange.exactpoly import (
    WORD,
    IntPoly,
    NotDivisible,
    RatPoly,
    _decode,
    _encode,
    _one_minus_q_coeff,
    _respace,
    _truncate,
    cyclotomic,
    div_binomial,
    exact_div,
    mul_binomial,
    subst_one_minus_q,
    theta_deriv,
)
import qstrange._modular as engine
from qstrange._modular import _ones_level_mod, _pw_table, _sub_ladder_mod
from qstrange.fishburn import (SHARED, CongruenceReport, ScanReport,
                               _xi_mod, verify_congruence, xi_coeffs)
from qstrange.partialtheta import (
    Character,
    CharacterInvalid,
    MeanValueNonzero,
    TwistedSeq,
    gamma_coeff,
    get_character,
    l_value,
    theta_truncated,
    twisted_sequence,
)
from qstrange.qfamilies import (MAX_PARTIAL_SUM_WORK, _horner, _ladder,
                                 _packed, parse_family, partial_sum,
                                 partial_sum_prefix, partial_sum_work)
from qstrange.strangematch import (MatchReport, OddOrderRequired,
                                   expansion_coeff, match_expansion)

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

polys = st.lists(st.integers(-30, 30), max_size=14).map(IntPoly)
nonzero_polys = polys.filter(bool)
small_divisors = st.lists(st.integers(-4, 4), min_size=1, max_size=5) \
    .map(IntPoly).filter(bool)
# +-(1 - q^e), the divisors exact_div sends to div_binomial; e can exceed
# the degree of a dividend drawn from polys
binomials = st.builds(lambda e, sign: IntPoly((sign,) + (0,) * (e - 1) + (-sign,)),
                      st.integers(1, 10), st.sampled_from((1, -1)))


def outcome(p, *divisors):
    """The quotient, or NotDivisible when there is none."""
    try:
        return exact_div(p, *divisors)
    except NotDivisible:
        return NotDivisible


@PROPERTY
@given(st.lists(st.integers(-3, 3), max_size=14))
def test_trusted_constructor_equals_public(cs):
    before = list(cs)
    assert IntPoly._new(cs) == IntPoly(cs)
    assert IntPoly._new(tuple(cs)) == IntPoly(cs)
    assert cs == before


def _results(a, b, c, e):
    """a and b through every ring, structure and calculus operation."""
    return [a + b, a - b, -a, a * b, a * c, c * a, a.scale(c), power(a, 2),
            a.shift(e), a.dilate(e + 1), truncate(a, e), truncate(a, -1),
            a.derivative(), theta_deriv(a, 2), monomial(type(a), e, c)]


@PROPERTY
@given(polys, nonzero_polys, st.integers(-5, 5), st.integers(0, 6))
def test_int_poly_results_hold_only_ints(a, b, c, e):
    results = _results(a, b, c, e) + [
        exact_div(a * b, b), subst_one_minus_q(a, e), *dissect(a, e + 1)]
    for r in results:
        assert type(r) is IntPoly
        assert all(type(x) is int for x in r.coeffs), r


rats = st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=6)),
                max_size=8).map(RatPoly)


@PROPERTY
@given(rats, rats, st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4)),
       st.integers(0, 6))
def test_rat_poly_results_hold_only_fractions(a, b, c, e):
    results = _results(a, b, c, e)
    if b:
        results += divmod_def(a, b)
    for r in results:
        assert type(r) is RatPoly
        assert all(type(x) is Fraction for x in r.coeffs), r


@PROPERTY
@given(polys, st.integers(1, 12))
def test_dissect_reassembles(p, s):
    assert reassemble_def(dissect(p, s)) == p


@PROPERTY
@given(polys, st.one_of(nonzero_polys, binomials))
def test_exact_div_inverts_mul(a, b):
    assert exact_div(a * b, b) == a


@PROPERTY
@given(polys, small_divisors, st.integers(2, 4), st.integers(1, 4),
       st.booleans(), polys)
def test_exact_div_matches_the_rational_oracle(a, e, g, h, perturb, r):
    # d = g*e is not monic, and h*a*e / d = h*a/g is integral only when g
    # divides h*a; perturbed by r, the dividend is mostly not divisible
    d = e.scale(g)
    p = (a * e).scale(h) + (r if perturb else IntPoly())
    assert outcome(p, d) == exact_div_def(p, d)


@PROPERTY
@given(polys, st.integers(1, 10), st.data())
def test_div_binomial_perturbed_in_one_class(a, e, data):
    # t = q^r T(q^e) is divisible by 1 - q^e exactly when T(1) = 0, so a
    # perturbation in the single class r is caught by that class's last sum
    r = data.draw(st.integers(0, e - 1))
    cs = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    t = [0] * (r + e * len(cs))
    t[r::e] = cs
    p = a * IntPoly((1,) + (0,) * (e - 1) + (-1,)) + IntPoly(t)
    if sum(cs):
        with pytest.raises(NotDivisible):
            div_binomial(p.coeffs, e)
    else:
        quo = div_binomial(p.coeffs, e)
        assert all(type(c) is int for c in quo) and quo[-1:] != [0]
        assert mul_binomial(quo, e) == list(p.coeffs)


# unstripped slices as verify_theorem divides them: empty, of length 1,
# all zeros, with trailing zeros, as lists and as tuples; the first
# strategy draws slices that sum to 0, so that most are divisible by 1 - q
_slices = st.lists(st.integers(-9, 9), max_size=12)
_zero_sum_slices = _slices.map(lambda cs: cs + [-sum(cs)])


@PROPERTY
@given(st.one_of(_zero_sum_slices, _slices,
                 st.lists(st.just(0), max_size=5)),
       st.integers(0, 4), st.booleans())
@example([], 0, False)
@example([0], 0, True)
@example([5], 0, False)
@example([0, 0, 0], 0, True)
@example([1, -1], 3, True)
def test_div_binomial_by_one_minus_q_matches_the_class_loop(cs, zeros, as_tuple):
    coeffs = cs + [0] * zeros
    if as_tuple:
        coeffs = tuple(coeffs)
    want = div_binomial_def(coeffs, 1)
    if want is NotDivisible:
        with pytest.raises(NotDivisible):
            div_binomial(coeffs, 1)
    else:
        got = div_binomial(coeffs, 1)
        assert type(got) is list and got == want
        assert all(type(c) is int for c in got)


@PROPERTY
@given(polys, nonzero_polys.filter(lambda b: b.degree >= 1), st.data())
def test_perturbed_dividend_raises(a, b, data):
    # a nonzero r of degree below deg b is exactly the remainder of a*b + r
    r = data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=b.degree)
                  .map(IntPoly).filter(bool))
    with pytest.raises(NotDivisible):
        exact_div(a * b + r, b)


@PROPERTY
@given(polys, st.lists(st.one_of(small_divisors, binomials), max_size=4),
       st.booleans(), polys)
def test_chain_matches_product(a, divisors, perturb, r):
    product = IntPoly.one()
    for d in divisors:
        product = product * d
    p = a * product + (r if perturb else IntPoly())
    assert outcome(p, *divisors) == outcome(p, product)


@PROPERTY
@given(st.lists(st.one_of(st.integers(-30, 30),
                          st.integers(-2 ** 200, 2 ** 200)), max_size=40)
       .map(IntPoly), st.integers(0, 45))
def test_one_coefficient_of_the_substitution(p, k):
    # k runs past the degree, where the coefficient is 0
    sub = subst_one_minus_q(p, k).coeffs
    assert _one_minus_q_coeff(p, k) == (sub[k] if k < len(sub) else 0)


inline_families = st.builds(
    lambda kernel, terms: parse_family(json.dumps(
        {"kernel": kernel, "terms": [{"coeffs": t} for t in terms]})),
    st.sampled_from("FG"),
    st.lists(st.lists(st.integers(-9, 9), max_size=5), max_size=6))


# the bound below which each road's products are exact
ROAD_BOUNDS = {"float32 ladder": 2 ** 24, "float64": 2 ** 53}


@PROPERTY
@given(st.one_of(inline_families, st.sampled_from(
           ["kz", "gk:k=1", "gk:k=2", "gk:k=3", "hikami:m=2,alpha=1",
            "hikami:m=3,alpha=0", "hikami:m=3,alpha=2"]).map(parse_family)),
       st.integers(0, 25),
       st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 4, 8, 9, 25, 27, 49,
                                  4099, 10007]),
                 st.sampled_from(sorted(ROAD_BOUNDS))))
def test_modular_engine_matches_exact(fam, depth, m):
    # a road's name stands for its edge at this depth: the largest modulus
    # m with (m-1)**2 * (depth+1) below its bound
    if m in ROAD_BOUNDS:
        m = math.isqrt((ROAD_BOUNDS[m] - 1) // (depth + 1)) + 1
    assert _xi_mod(fam, depth, m) == tuple(c % m for c in xi_coeffs(fam, depth))


SHARED_DEPTH = 60  # the deepest depth test_shared_run_matches_own_run draws
SHARED_FAMILIES = ["kz", "gk:k=1", "gk:k=2", "hikami:m=2,alpha=0",
                   "hikami:m=2,alpha=1", '{"kernel":"G","terms":[{"coeffs":'
                   '[2]},{"coeffs":[1,-1]},{"coeffs":[0,3,-2]}]}',
                   "gk:k=3", "hikami:m=3,alpha=1"]


@functools.cache
def exact_xi(label):
    """xi_coeffs of the family at the deepest depth up to SHARED_DEPTH that
    MAX_PARTIAL_SUM_WORK admits; shallower xi are its prefixes."""
    fam = parse_family(label)
    depth = max(d for d in range(SHARED_DEPTH + 1)
                if partial_sum_work(fam, d, d) <= MAX_PARTIAL_SUM_WORK)
    return xi_coeffs(fam, depth)


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(SHARED_FAMILIES), st.integers(0, SHARED_DEPTH),
       st.one_of(st.sampled_from([d for d in range(2, SHARED + 1)
                                  if SHARED % d == 0] + [25, 49, 17]),
                 st.sampled_from([(2 ** 24, 0), (2 ** 24, 1),
                                  (2 ** 53, 0), (2 ** 53, 1)])))
def test_shared_run_matches_own_run(label, depth, m):
    # a divisor of SHARED reads the run modulo SHARED unless the family has
    # a column ladder; either way the residues are those of the engine run
    # at m itself, and of the exact coefficients.  (bound, 0) is the
    # largest m with (m-1)**2 * (depth+1) below the bound, (bound, 1) the
    # least at or over it, where the engine has no road at all
    if isinstance(m, tuple):
        bound, past = m
        m = math.isqrt((bound - 1) // (depth + 1)) + 1 + past
    fam = parse_family(label)
    if (m - 1) ** 2 * (depth + 1) >= 2 ** 53:
        with pytest.raises(ValueError, match="past the float64 edge"):
            _xi_mod(fam, depth, m)
        return
    got = _xi_mod(fam, depth, m)
    assert got == engine.xi_residues(fam, depth, m)
    exact = exact_xi(label)
    if depth < len(exact):
        assert got == tuple(c % m for c in exact[: depth + 1])


@functools.cache
def edge_primes(depth):
    """The largest prime m with (m-1)**2 * (depth+1) below 2**53, whose
    float64 products are exact, and the least prime past it."""
    top = math.isqrt((2 ** 53 - 1) // (depth + 1)) + 1
    below = next(m for m in range(top, 1, -1) if is_prime_def(m))
    return below, next(m for m in range(top + 1, 2 * top) if is_prime_def(m))


@PROPERTY
@given(st.one_of(inline_families, st.sampled_from(
           ["kz", "gk:k=1", "gk:k=2", "gk:k=3", "hikami:m=2,alpha=0",
            "hikami:m=3,alpha=1"]).map(parse_family)),
       st.integers(0, 25).flatmap(
           lambda depth: st.tuples(st.just(depth), st.integers(0, depth))),
       st.sampled_from([0, 1]))
def test_congruence_matches_exact_across_the_float_edge(fam, depth_first,
                                                        past):
    # below the edge the engine answers and the exact read cross-checks
    # it; past it the exact read alone answers.  Both agree with xi_coeffs
    depth, first = depth_first
    p = edge_primes(depth)[past]
    rep = verify_congruence(fam, p, 1, p - first, depth)
    xi = [c % p for c in xi_coeffs(fam, depth)]
    indices = range(first, depth + 1, p)
    witness = next((i for i in indices if xi[i]), None)
    assert (rep.verdict, rep.witness, rep.indices_checked) == (
        "pass" if witness is None else "fail", witness, len(indices))
    assert rep.residue == (None if witness is None else xi[witness])


def unpacked(triples):
    """The IntPolys of a stream of _packed triples."""
    return (IntPoly(_decode(x, width)) for _, width, x in triples)


@PROPERTY
@given(st.integers(0, 20).flatmap(lambda depth: st.tuples(
           st.just(depth),
           st.lists(polys, min_size=1, max_size=depth + 2))),
       st.sampled_from([0, 1]), st.sampled_from([1, 2]),
       st.sampled_from([2, 3, 5, 7, 4, 8, 9, 25, 27, 4099, 10007]),
       st.sampled_from([1, 2, 3, engine._BLOCK_ROWS]), st.integers(1, 3))
def test_modular_ladder_matches_exact(depth_weights, c0, base, m, block,
                                      count):
    # blocks of 1-3 rows make every step span several of them; moduli of
    # 4099 and more are over the float32 bound at every depth.  count
    # levels share one set-up
    depth, weights = depth_weights
    steps = len(weights) - 1
    width = depth + 2 - c0

    def residues(p, size):
        sub = subst_one_minus_q(p, max(size - 1, 0)).coeffs[:size]
        return np.array([c % m for c in sub] + [0] * (size - len(sub)),
                        dtype=np.int64)

    pw = _pw_table(depth, m, base)
    with mock.patch.object(engine, "_BLOCK_ROWS", block):
        got = _sub_ladder_mod([residues(w, width) for w in weights], c0,
                              steps, pw, depth, m, count)
    exact = islice(unpacked(_ladder(map(_packed, weights), c0, base, None,
                                    count)), steps + 1)
    assert len(got) == steps + 1
    for n, (a, want) in enumerate(zip(got, exact)):
        assert a.tolist() == residues(want, max(0, width - n)).tolist()


ONES_DEPTH = 80  # the deepest depth test_ones_level_matches_exact draws


@functools.cache
def ones_ladder_sub(c0, base):
    """The exact ladder level fed by ones, output n substituted q -> 1-x
    through the precision width-n that ONES_DEPTH reads from it."""
    width = ONES_DEPTH + 2 - c0
    outs = islice(unpacked(_ladder(repeat((1, WORD, 1)), c0, base)), width)
    return [subst_one_minus_q(a, width - 1 - n).coeffs
            for n, a in enumerate(outs)]


@PROPERTY
@given(st.integers(0, ONES_DEPTH), st.integers(-2, 2),
       st.sampled_from([0, 1]), st.sampled_from([1, 2]),
       st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 25, 49]),
                 st.sampled_from([(2 ** 24, 0), (2 ** 24, 1), (2 ** 53, 0)])))
def test_ones_level_matches_exact(depth, extra, c0, base, m):
    # (bound, 0) is the largest modulus m with (m-1)**2 * (depth+1) below
    # the bound at this depth, and (bound, 1) the least one at or over it.
    # A family's first level runs width-1 steps; extra runs fewer or more
    if isinstance(m, tuple):
        bound, past = m
        m = math.isqrt((bound - 1) // (depth + 1)) + 1 + past
    width = depth + 2 - c0
    steps = max(width - 1 + extra, 0)
    got = _ones_level_mod(c0, base, steps, depth, m)
    assert len(got) == steps + 1
    exact = ones_ladder_sub(c0, base)
    for n, a in enumerate(got):
        size = max(0, width - n)
        want = [c % m for c in exact[n][:size]] if size else []
        assert a.tolist() == want + [0] * (size - len(want))


# coefficients small, or within a few units of +-2**63 and +-2**127, the
# edges of packed slots of one and two words
edge_ints = st.one_of(
    st.integers(-30, 30),
    st.builds(lambda sign, edge, d: sign * (edge + d), st.sampled_from((1, -1)),
              st.sampled_from((2 ** 63, 2 ** 127)), st.integers(-3, 3)))
edge_polys = st.lists(edge_ints, max_size=8).map(IntPoly)
caps = st.one_of(st.none(), st.integers(0, 12))


@PROPERTY
@given(st.lists(st.one_of(polys, edge_polys), min_size=1, max_size=8),
       st.integers(0, 2), st.integers(1, 2), st.integers(1, 3), caps)
def test_packed_ladder_matches_the_oracle(weights, c0, base, count, cap):
    got = unpacked(_ladder(map(_packed, weights), c0, base, cap, count))
    assert list(got) == list(ladder_def(weights, c0, base, cap, count))


@PROPERTY
@given(st.sampled_from("FG"), st.lists(edge_polys, min_size=1, max_size=8),
       caps)
def test_packed_horner_matches_the_oracle(kernel, weights, cap):
    fam = parse_family(json.dumps({"kernel": kernel, "terms": []}))
    got = _horner(fam, list(map(_packed, weights)), cap)
    assert got == horner_def(fam, weights, cap)


@PROPERTY
@given(st.sampled_from("FG"), st.lists(edge_polys, min_size=1, max_size=8),
       caps)
def test_horner_takes_weights_wider_than_its_sum(kernel, terms, cap):
    # an inline family whose term norms fall, packed as a ladder hands
    # weights out: each at the widest width so far, so the sum, which
    # starts from the last and narrowest term, meets weights wider than it
    terms.sort(key=lambda p: -sum(map(abs, p.coeffs)))
    fam = parse_family(json.dumps(
        {"kernel": kernel, "terms": [p.to_json_obj() for p in terms]}))
    wide = max(width for _, width, _ in map(_packed, terms))
    weights = [(norm, wide, _respace(x, width, wide))
               for norm, width, x in map(_packed, terms)]
    got = _horner(fam, weights, cap)
    assert got == horner_def(fam, terms, cap)
    if cap is None:
        assert got == partial_sum(fam, len(terms) - 1)


@PROPERTY
@given(st.sampled_from("FG"), st.lists(edge_polys, max_size=6),
       st.integers(0, 8), st.integers(0, 12))
def test_prefix_matches_the_oracle(kernel, terms, upper, cap):
    fam = parse_family(json.dumps(
        {"kernel": kernel, "terms": [p.to_json_obj() for p in terms]}))
    weights = (terms + [IntPoly()] * (upper + 1))[: upper + 1]
    want = horner_def(fam, [truncate(w, cap) for w in weights], cap)
    assert partial_sum_prefix(fam, upper, cap) == want


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.lists(
           st.one_of(st.integers(-5, 5),
                     st.sampled_from((1, -1)).map(
                         lambda sign: sign * (2 ** (WORD * k - 1) - 1)),
                     st.integers(-2 ** (WORD * k - 1) + 1,
                                 2 ** (WORD * k - 1) - 1)),
           max_size=10))),
       st.integers(0, 2), st.integers(0, 11))
def test_codec_round_trips(words_coeffs, more, cut):
    # slots of 1, 2 and 3 words hold +-(2**(width-1) - 1); re-encoding at
    # 1, 2 or 4 times the width and truncating keep the coefficients
    words, coeffs = words_coeffs
    width = WORD * words
    x = _encode(coeffs, width)
    assert x == sum(c << (width * i) for i, c in enumerate(coeffs))
    assert IntPoly(_decode(x, width)) == IntPoly(coeffs)
    wide = _respace(x, width, width << more)
    assert IntPoly(_decode(wide, width << more)) == IntPoly(coeffs)
    assert IntPoly(_decode(_truncate(x, width, cut), width)) == \
        IntPoly(coeffs[:cut])


@st.composite
def characters(draw):
    """Character parameters (a, b, nu, T, values) with b <= 8, period
    T <= 12 or T = b, 2b, 3b, a = x^2 + b y, x <= 5, y <= 3, and one full
    period of int values.

    The values are +-v pairs, so the mean is zero, except in the draws
    that add 1 at one residue.  Most draws are admissible:
    their support lies on the residues mod T all of whose lifts n in
    lcm(T, b) make (n^2 - a)/b an integer.
    """
    b = draw(st.integers(1, 8))
    T = draw(st.one_of(st.integers(1, 12), st.integers(1, 3).map(b.__mul__)))
    a = draw(st.integers(0, 5)) ** 2 + b * draw(st.integers(0, 3))
    span = math.lcm(T, b)
    good = [r for r in range(T)
            if all((n * n - a) % b == 0 for n in range(r, span, T))]
    pool = good if good and draw(st.integers(0, 2)) else list(range(T))
    values = [0] * T
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool),
                      st.integers(1, 3))
    for r1, r2, v in draw(st.lists(pairs, min_size=1, max_size=4)):
        values[r1] += v
        values[r2] -= v
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.sampled_from(pool))] += 1
    return a, b, draw(st.integers(0, 1)), T, values


def checked(f, *args):
    """f's result, or the type and message of the CharacterInvalid or
    OddOrderRequired it raises."""
    try:
        return f(*args)
    except (CharacterInvalid, OddOrderRequired) as exc:
        return type(exc), str(exc)


# the drawn characters that the constructor admits
valid_characters = characters().map(lambda params: checked(Character, *params)) \
    .filter(lambda char: isinstance(char, Character))


@PROPERTY
@given(characters(), st.integers(1, 12))
def test_support_scans_match_full_scan(params, s):
    # the constructor raises what the full-scan oracle raises, class and
    # message, or builds a character that no consumer refuses
    want = checked(character_def, *params)
    char = checked(Character, *params)
    if want is not None:
        assert char == want
        return
    assert isinstance(char, Character)
    assert residue_set(char, s) == residue_set_def(char, s)
    assert twisted_sequence(char, 1, 0).period == math.lcm(char.period, char.b)
    if char.nu == 0:
        try:
            theta_truncated(char, 12)
        except ValueError as exc:  # only a negative exponent may be refused
            assert not isinstance(exc, CharacterInvalid)
            assert "negative exponent" in str(exc)


def certified(*args, verify=verify_theorem):
    """verify's report, or the type and message of the refusal or
    falsification it raises."""
    try:
        return verify(*args)
    except (CharacterInvalid, DivisibilityFalsified, OddModulusRequired) as exc:
        return type(exc), str(exc)


certified_def = functools.partial(certified, verify=certificate_def)


@PROPERTY
@given(valid_characters, st.lists(st.integers(1, 12), min_size=1, max_size=4),
       st.sampled_from(["kz", "gk:k=1"]), st.integers(0, 10))
def test_memoized_certificates_match_cold_calls(clear_memos, char, moduli,
                                                family, N):
    # residue_set is memoized per (chi, s): warm calls in any order, and an
    # equal character under another label, give what a cold call gives
    fam = parse_family(family)
    twin = Character(char.a, char.b, char.nu, char.period, char.values, "twin")
    cold = {}
    for s in moduli:
        clear_memos()
        cold[s] = checked(residue_set, char, s), certified(fam, char, s, N)
    for s in moduli + moduli[::-1]:
        for c in (char, twin):
            assert (checked(residue_set, c, s), certified(fam, c, s, N)) == cold[s]


# built-in families, or inline ones whose terms are mostly zeros, so that
# some residue slices end in zeros and some parts are empty
certificate_families = st.one_of(
    st.sampled_from(["kz", "gk:k=1", "gk:k=2", "gk:k=3",
                     "hikami:m=2,alpha=0", "hikami:m=2,alpha=1"]),
    st.builds(lambda kernel, terms: json.dumps(
                  {"kernel": kernel, "terms": [{"coeffs": t} for t in terms]}),
              st.sampled_from("FG"),
              st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), max_size=6),
                       max_size=4)),
).map(parse_family)


BUILTIN_CHARACTERS = ("chi_kz", "chi6", "chi_gk:k=2", "chi_gk:k=3",
                      "chi_hikami:m=2,alpha=0", "chi_hikami:m=2,alpha=1")


@PROPERTY
@given(certificate_families,
       st.one_of(valid_characters,
                 st.sampled_from(BUILTIN_CHARACTERS).map(get_character)),
       st.integers(1, 12), st.integers(0, 14))
def test_certificates_match_the_general_division(family, char, s, N):
    # verify_theorem divides residue slices by div_binomial directly; the
    # oracle dissects into IntPoly parts and divides with exact_div
    assert certified(family, char, s, N) == certified_def(family, char, s, N)


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@PROPERTY
@given(valid_characters, fractions.filter(bool), st.integers(1, 12),
       st.integers(0, 12))
def test_twisted_sequence_matches_two_period_oracle(char, scale, k, j):
    # the oracle tabulates two periods: the second window equals the first.
    # The sequence is refused exactly when the sum of that window, the
    # twisted mean, is not zero; else it is the record of its four fields,
    # at j mod k and period P, with the oracle's entries and the L-values
    # of the definition.  Scaling keeps integrality and a zero mean, and
    # gives the values unequal denominators
    char = Character(char.a, char.b, char.nu, char.period,
                     [v * scale for v in char.values])
    P = math.lcm(char.period, char.b * k)
    table = twisted_table_def(char, k, j)
    assert table[P:] == table[:P]
    got = checked(twisted_sequence, char, k, j)
    if sum(table[:P], CycloNum.rational(k, 0)):
        assert got == (MeanValueNonzero, f"twisted mean of {char.label} at "
                                         f"zeta_{k}^{j % k} is nonzero")
        return
    want = TwistedSeq(char, k, j, P)
    assert got == want and hash(got) == hash(want)
    assert (got.j, got.period) == (j % k, P)
    assert twisted_table(got) == tuple(table[:P])
    for n in range(4):
        value = l_value(got, n)
        assert value.rep == l_value_def(got, n) and stored_form_ok(value)


@PROPERTY
@given(valid_characters, fractions.filter(bool), st.booleans())
def test_equal_characters_hash_equal(char, scale, zeros_listed):
    # the hash reads only the nonzero values: one full period and the
    # {residue: value} form, with or without its zeros and under other
    # labels, are equal characters with equal hashes
    values = [v * scale for v in char.values]
    full = Character(char.a, char.b, char.nu, char.period, values, "full")
    entries = {str(r): str(v) for r, v in enumerate(values)
               if v or zeros_listed}
    sparse = Character(char.a, char.b, char.nu, char.period, entries, "dict")
    assert sparse == full and hash(sparse) == hash(full)
    assert pickle.loads(pickle.dumps(sparse)) == full
    assert hash(pickle.loads(pickle.dumps(sparse))) == hash(full)


def cyclo_tuples(size):
    """size elements of one random field Q(zeta_k), k <= 16."""
    return st.integers(1, 16).flatmap(lambda k: st.tuples(*(
        st.lists(fractions, max_size=k + 2).map(lambda cs: CycloNum(k, cs))
        for _ in range(size))))


@PROPERTY
@given(cyclo_tuples(3))
def test_cyclonum_ring_laws(abc):
    a, b, c = abc
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0 and a - b == a + (-b)


EMBED_TOL = mpmath.mpf(2) ** -120


@PROPERTY
@given(cyclo_tuples(2))
def test_embed_is_ring_map(ab):
    a, b = ab
    # at 53 bits the differences below would round to false failures
    with mpmath.workprec(200):
        assert abs(embed_def(a + b) - (embed_def(a) + embed_def(b))) < EMBED_TOL
        assert abs(embed_def(a * b) - embed_def(a) * embed_def(b)) < EMBED_TOL


def stored_form_ok(x: CycloNum) -> bool:
    """At most phi(k) integer coordinates, no trailing zero, den > 0, lowest terms."""
    return (all(type(c) is int for c in x.num) and type(x.den) is int
            and len(x.num) <= cyclotomic(x.k).degree
            and (not x.num or x.num[-1] != 0)
            and x.den > 0 and math.gcd(x.den, *x.num) == 1)


@PROPERTY
@given(st.integers(1, 15).flatmap(lambda k: st.tuples(
           st.just(k),
           st.lists(fractions, max_size=2 * k),
           st.lists(fractions, max_size=2 * k),
           fractions)))
def test_cyclonum_matches_reference(case):
    k, xs, ys, c = case
    a, b = CycloNum(k, xs), CycloNum(k, ys)
    ra, rb = cyclo_ref(k, xs), cyclo_ref(k, ys)
    assert a.rep == ra and b.rep == rb
    for got, want in ((a + b, ra + rb), (a * b, ra * rb), (a.scale(c), ra.scale(c))):
        assert got.rep == cyclo_ref(k, want)
        assert stored_form_ok(got)


@PROPERTY
@given(st.integers(1, 16), fractions, st.integers(-40, 40),
       st.lists(fractions, max_size=20),
       st.lists(st.integers(-9, 9), max_size=40))
def test_trusted_cyclonum_paths_equal_public(k, x, power, cs, ps):
    at_root = [0] * k
    for e, c in enumerate(ps):
        at_root[e * power % k] += c
    for got, want in ((CycloNum.rational(k, x), CycloNum(k, [x])),
                      (CycloNum(k, cs).scale(x),
                       CycloNum(k, [c * x for c in cs])),
                      (eval_at_root(IntPoly(ps), k, power),
                       CycloNum(k, at_root))):
        assert (got.k, got.num, got.den) == (want.k, want.num, want.den)
        assert stored_form_ok(got)


@PROPERTY
@given(st.integers(1, 400).flatmap(lambda k: st.tuples(
           st.just(k), st.integers(0, 3 * k), st.integers(0, 2 ** 32))))
@example((400, 1200, 1)).via("the longest input at the largest k")
@example((385, 1155, 2)).via("Phi_385, with coefficients from -3 to 2")
@example((1, 3, 3)).via("Phi_1 = q - 1")
@example((1994, 1994, 4)).via("Phi_2p, p = 997: p terms, p + 1 to remove")
@example((1018, 3054, 5)).via("Phi_2p, p = 509, three periods")
@example((1202, 700, 6)).via("Phi_2p, p = 601, shorter than k")
@example((1147, 1147, 7)).via("Phi_31*37, two primes near sqrt(k)")
@example((1155, 1155, 8)).via("Phi_3*5*7*11, sixteen binomials")
@example((1024, 2048, 9)).via("a prime power, reduced directly")
def test_fold_matches_power_table(case):
    # _fold reduces by the nonzero coefficients of Phi_k, or through the
    # quotient's power series when that is cheaper; the oracle adds rows of
    # the table of zeta**e mod Phi_k, e < k, that _fold replaced
    k, size, seed = case
    rng = random.Random(seed)
    coeffs = [rng.choice((0, rng.randint(-10 ** 6, 10 ** 6)))
              for _ in range(size)]
    got, want = _fold(k, list(coeffs)), fold_def(k, coeffs)
    assert len(got) <= len(want)
    assert got + [0] * (len(want) - len(got)) == want


@PROPERTY
@given(st.integers(0, 300))
def test_bernoulli_number_matches_recursion(m):
    # tangent numbers in the library, the Fraction recursion in the oracle
    assert bernoulli_number(m) == bernoulli_numbers_def(300)[m]


@st.composite
def twisted_seqs(draw):
    """Twisted sequences of random characters with a = 0, b = 1, period <= 12.

    An odd character (chi(-n) = -chi(n)) has zero twisted mean at every
    root; an even part with zero mean is added and kept only when the
    twisted mean stays zero.  Half the draws double the period through the
    TwistedSeq constructor.
    """
    T = draw(st.integers(1, 12))
    odd = [Fraction(0)] * T
    for n in range(1, (T + 1) // 2):
        odd[n] = draw(fractions)
        odd[T - n] = -odd[n]
    raw = draw(st.lists(fractions, min_size=T, max_size=T))
    even = [raw[n] + raw[-n % T] for n in range(T)]
    even[0] -= sum(even)
    k = draw(st.integers(1, 12))
    j = draw(st.integers(0, 10))
    nu = draw(st.integers(0, 1))
    try:
        seq = twisted_sequence(
            Character(0, 1, nu, T, [o + e for o, e in zip(odd, even)]), k, j)
    except MeanValueNonzero:
        seq = twisted_sequence(Character(0, 1, nu, T, odd), k, j)
    if draw(st.booleans()):
        seq = TwistedSeq(seq.character, seq.k, seq.j, 2 * seq.period)
    return seq


@PROPERTY
@given(twisted_seqs(), st.integers(0, 10))
def test_l_value_matches_definition(seq, n):
    got = l_value(seq, n)
    assert got.rep == l_value_def(seq, n)
    assert stored_form_ok(got)


@settings(PROPERTY, max_examples=60)
@given(st.one_of(valid_characters, st.sampled_from(
           ["chi_kz", "chi6", "chi_gk:k=2", "chi_hikami:m=2,alpha=1"])
       .map(get_character)),
       st.sampled_from(["kz", "gk:k=1", "gk:k=2", "hikami:m=2,alpha=1"]),
       st.integers(1, 6), st.integers(-12, 12), st.integers(0, 4))
def test_match_equals_the_oracles(char, family, k, j, depth):
    # the series side reads one partial sum at the deepest index and the
    # theta side one L-value per order; every order must still equal its
    # definition, and the report must name the first order that differs.
    # Most pairings mismatch, so first_mismatch is compared too.
    fam = parse_family(family)
    orders = range(depth + 1)
    lhs = [checked(expansion_def, fam, k, j, ell) for ell in orders]
    rhs = [checked(gamma_def, char, k, j, ell) for ell in orders]
    assert [checked(expansion_coeff, fam, k, j, ell) for ell in orders] == lhs
    assert [checked(gamma_coeff, char, k, j, ell) for ell in orders] == rhs
    refused = next((x for x in (lhs[0], rhs[0]) if isinstance(x, tuple)),
                   None)
    got = checked(match_expansion, fam, char, k, j, depth)
    if refused is not None:
        assert got == refused
        return
    bad = next((ell for ell in orders if lhs[ell] != rhs[ell]), None)
    assert (got.verdict, got.first_mismatch, got.j) == \
        ("match" if bad is None else "mismatch", bad, j % k)


@settings(PROPERTY, max_examples=60)
@given(st.one_of(valid_characters, st.sampled_from(
           ["chi_kz", "chi6", "chi_gk:k=2", "chi_hikami:m=2,alpha=1"])
       .map(get_character)),
       st.sampled_from(["kz", "gk:k=1", "hikami:m=2,alpha=1"]),
       st.integers(1, 5), st.integers(0, 3), st.data())
def test_shared_work_equals_cold_calls(clear_memos, char, family, k, depth,
                                       data):
    # twisted rows are shared per (chi, k) and series moments per (family,
    # index, order, top): every j of one order, in a drawn order and with
    # drawn memo clears in between, must give what a cold call gives and
    # what the oracles give
    fam = parse_family(family)
    top = 2 * depth + char.nu + 1
    calls = [(kind, j, n) for j in range(k) for kind, ns in (
        ("match", [depth]), ("expansion", range(depth + 1)),
        ("gamma", range(depth + 1)), ("lvalue", range(top + 1)))
        for n in ns]

    def call(kind, j, n):
        if kind == "match":
            return checked(match_expansion, fam, char, k, j, n)
        if kind == "expansion":
            return checked(expansion_coeff, fam, k, j, n)
        if kind == "gamma":
            return checked(gamma_coeff, char, k, j, n)
        return checked(lambda: l_value(twisted_sequence(char, k, j), n))

    warm = {}
    for c in data.draw(st.permutations(calls)):
        if data.draw(st.booleans()):
            clear_memos()
        warm[c] = call(*c)
    for c in calls:
        clear_memos()
        assert call(*c) == warm[c]
    for j in range(k):
        lhs = [checked(expansion_def, fam, k, j, ell) for ell in range(depth + 1)]
        rhs = [checked(gamma_def, char, k, j, n) for n in range(depth + 1)]
        assert [warm["expansion", j, ell] for ell in range(depth + 1)] == lhs
        assert [warm["gamma", j, n] for n in range(depth + 1)] == rhs
        for n in range(top + 1):
            got = warm["lvalue", j, n]
            if not isinstance(got, tuple):
                seq = twisted_sequence(char, k, j)
                assert got.rep == l_value_def(seq, n)
        got = warm["match", j, depth]
        refused = next((x for x in (lhs[0], rhs[0]) if isinstance(x, tuple)),
                       None)
        if refused is not None:
            assert got == refused
            continue
        bad = next((ell for ell in range(depth + 1) if lhs[ell] != rhs[ell]),
                   None)
        assert (got.verdict, got.first_mismatch) == \
            ("match" if bad is None else "mismatch", bad)


# -- records ------------------------------------------------------------------

# small domains, so that drawn pairs are often equal
tiny_ints = st.lists(st.integers(-1, 1), max_size=3).map(IntPoly)
tiny_rats = st.lists(st.sampled_from([0, 1, Fraction(-1, 2)]), max_size=3).map(RatPoly)
# one field, since elements of two fields compare only when both are rational
tiny_cyclo = st.lists(st.sampled_from([0, 1, Fraction(-1, 2)]), max_size=4) \
    .map(lambda cs: CycloNum(3, cs))
tiny_rows = st.builds(DivisibilityRow, st.integers(0, 1), st.booleans(),
                      st.just("(q;q)_4"), st.sampled_from(["divides", "not-claimed"]),
                      st.one_of(st.none(), tiny_ints))
tiny_reports = st.one_of(
    st.builds(DivisibilityReport, st.just("kz"), st.sampled_from([3, 5]),
              st.integers(0, 1), st.sampled_from([frozenset(), frozenset({0, 2})]),
              st.lists(tiny_rows, max_size=2).map(tuple)),
    st.builds(CongruenceReport, st.just("kz"), st.just(5), st.just(1),
              st.integers(0, 1), st.just(30), st.just(6),
              st.sampled_from(["pass", "fail"]), st.sampled_from([None, 4]),
              st.sampled_from([None, 1])),
    st.builds(ScanReport, st.just("kz"), st.just(5), st.integers(1, 2),
              st.just(30), st.sampled_from([(), (1,), (1, 4)])),
    st.builds(MatchReport, st.just("kz"), st.just("chi_kz"), st.just(2),
              st.integers(0, 1), st.just(3), st.sampled_from(["match", "mismatch"]),
              st.sampled_from([None, 2])))
TINY = (tiny_ints, tiny_rats, tiny_cyclo, tiny_rows, tiny_reports)

# every field of these types is compared
COMPARED = {
    IntPoly: ("coeffs",),
    RatPoly: ("coeffs",),
    CycloNum: ("k", "num", "den"),
    DivisibilityRow: ("i", "in_s", "divisor_name", "verdict", "quotient"),
    DivisibilityReport: ("family_label", "s", "upper", "residues", "rows"),
    CongruenceReport: ("family_label", "p", "r", "beta", "depth",
                       "indices_checked", "verdict", "witness", "residue"),
    ScanReport: ("family_label", "p", "r", "depth", "passing_beta"),
    MatchReport: ("family_label", "character_label", "k", "j",
                  "checked_through", "verdict", "first_mismatch"),
}


def compared(x) -> tuple:
    return tuple(getattr(x, name) for name in COMPARED[type(x)])


def leaf_types(v):
    """v with each leaf replaced by its type, through records and containers."""
    if type(v) in COMPARED:
        return type(v), tuple(map(leaf_types, compared(v)))
    if isinstance(v, (tuple, frozenset)):
        return type(v), type(v)(map(leaf_types, v))
    return type(v)


@PROPERTY
@given(st.one_of(*(st.tuples(s, s) for s in TINY)))
def test_records_compare_and_hash_by_their_fields(pair):
    a, b = pair
    assert (a == b) == (compared(a) == compared(b))
    assert (a != b) == (compared(a) != compared(b))
    for x in pair:
        if isinstance(x, CycloNum) and x.is_rational():
            assert hash(x) == hash(x.as_fraction())  # it equals its Fraction
        else:
            assert hash(x) == hash(compared(x))


@PROPERTY
@given(tiny_ints)
def test_int_and_rat_polys_are_never_equal(p):
    assert p != to_rat(p) and to_rat(p) != p


@PROPERTY
@given(st.one_of(*TINY))
def test_records_round_trip_and_stay_frozen(x):
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x) and clone == x and hash(clone) == hash(x)
        assert leaf_types(clone) == leaf_types(x)
    for name in COMPARED[type(x)] + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
