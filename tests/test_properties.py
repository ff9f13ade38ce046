"""Property-based checks on random inputs, with fixed hypothesis settings.

derandomize=True makes every run draw the same examples, so the suite
stays reproducible; no example database is written.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qstrange.dissection import dissect
from qstrange.exactpoly import IntPoly, NotDivisible, exact_div

PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

polys = st.lists(st.integers(-30, 30), max_size=14).map(IntPoly)
nonzero_polys = polys.filter(bool)
small_divisors = st.lists(st.integers(-4, 4), min_size=1, max_size=5) \
    .map(IntPoly).filter(bool)


def outcome(p, *divisors):
    """The quotient, or NotDivisible when there is none."""
    try:
        return exact_div(p, *divisors)
    except NotDivisible:
        return NotDivisible


@PROPERTY
@given(polys, st.integers(1, 12))
def test_dissect_reassembles(p, s):
    assert dissect(p, s).reassemble() == p


@PROPERTY
@given(polys, nonzero_polys)
def test_exact_div_inverts_mul(a, b):
    assert exact_div(a * b, b) == a


@PROPERTY
@given(polys, nonzero_polys.filter(lambda b: b.degree >= 1), st.data())
def test_perturbed_dividend_raises(a, b, data):
    # a nonzero r of degree below deg b is exactly the remainder of a*b + r
    r = data.draw(st.lists(st.integers(-30, 30), min_size=1, max_size=b.degree)
                  .map(IntPoly).filter(bool))
    with pytest.raises(NotDivisible):
        exact_div(a * b + r, b)


@PROPERTY
@given(polys, st.lists(small_divisors, max_size=4), st.booleans(), polys)
def test_chain_matches_product(a, divisors, perturb, r):
    product = IntPoly.one()
    for d in divisors:
        product = product * d
    p = a * product + (r if perturb else IntPoly())
    assert outcome(p, *divisors) == outcome(p, product)
