"""Acceptance gate: twelve headline checks with fixed budgets.

Each criterion is one test; it asserts the exact values and that the wall
clock stayed inside the stated budget, then prints a single PASS line
(visible with -s or in captured output).  Run the whole gate with

    pytest tests/test_acceptance.py -v
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qstrange.dissection import dissect, residue_set, thresholds, verify_theorem
from qstrange.exactpoly import IntPoly, NotDivisible, exact_div, pochhammer
from qstrange.fishburn import verify_congruence, xi_coeffs
from qstrange.partialtheta import (
    Character,
    TwistedSeq,
    get_character,
    l_value,
    theta_truncated,
    twisted_sequence,
)
from qstrange.qfamilies import parse_family, partial_sum, partial_sum_prefix
from qstrange.strangematch import extraction_identity_check, match_expansion


@contextmanager
def budget(name: str, seconds: float):
    t0 = time.monotonic()
    yield
    dt = time.monotonic() - t0
    assert dt < seconds, f"{name}: {dt:.2f}s exceeded the {seconds}s budget"
    print(f"PASS {name} ({dt:.2f}s)")


def test_01_fishburn_prefix():
    with budget("criterion 1 (Fishburn prefix)", 1.0):
        assert list(xi_coeffs(parse_family("kz"), 5)) == \
            [1, 1, 2, 5, 15, 53]


def test_02_gk_prefixes():
    with budget("criterion 2 (first-order and second-order prefixes)", 5.0):
        assert list(xi_coeffs(parse_family("gk:k=1"), 5)) == \
            [1, 1, 2, 6, 25, 135]
        assert list(xi_coeffs(parse_family("gk:k=2"), 5)) == \
            [1, 2, 6, 28, 189, 1680]


def test_03_dissection_example():
    with budget("criterion 3 (worked 5-dissection)", 1.0):
        d = dissect(partial_sum(parse_family("gk:k=1"), 8), 5)
        poch22 = pochhammer(2, 2)
        cof2 = IntPoly((1, 0, 1, -1, 2, -1, 2, 0, 1)).shift(2)
        cof4 = -(IntPoly((1, -1, 1)) * IntPoly((1, 1, 1, 0, 1, 0, 1))).shift(1)
        assert exact_div(d[2], poch22) == cof2
        assert exact_div(d[4], poch22) == cof4
        for i in (0, 1, 3):
            with pytest.raises(NotDivisible):
                exact_div(d[i], poch22)


def test_04_hikami_example():
    with budget("criterion 4 (fifth-family 3-dissection)", 10.0):
        q3 = pochhammer(3)
        d0 = dissect(partial_sum(parse_family("hikami:m=2,alpha=0"), 8), 3)
        d1 = dissect(partial_sum(parse_family("hikami:m=2,alpha=1"), 8), 3)
        exact_div(d0[2], q3)
        exact_div(d1[1], q3)
        for d, i in ((d0, 0), (d0, 1), (d1, 0), (d1, 2)):
            with pytest.raises(NotDivisible):
                exact_div(d[i], q3)


def test_05_residue_sets():
    with budget("criterion 5 (residue sets)", 1.0):
        assert residue_set(get_character("chi6"), 5) == frozenset({0, 1, 3})
        assert residue_set(get_character("chi_hikami:m=2,alpha=0"), 3) == \
            frozenset({0, 1})
        assert residue_set(get_character("chi_hikami:m=2,alpha=1"), 3) == \
            frozenset({0, 2})


def test_06_kz_divisibility_sweep():
    with budget("criterion 6 (F-kernel divisibility sweep)", 120.0):
        fam = parse_family("kz")
        char = get_character("chi_kz")
        claimed = 0
        for s in range(1, 8):
            for n in range(31):
                rep = verify_theorem(fam, char, s, n)
                claimed += sum(1 for row in rep.rows
                               if not row.in_s and row.verdict == "divides")
        assert claimed > 0


def test_07_gk_divisibility_sweep():
    with budget("criterion 7 (G-kernel divisibility sweep)", 300.0):
        claimed = 0
        for k in (1, 2, 3):
            fam = parse_family(f"gk:k={k}")
            char = get_character(f"chi_gk:k={k}")
            for s in (1, 3, 5, 7, 9):
                for n in range(31):
                    rep = verify_theorem(fam, char, s, n)
                    claimed += sum(1 for row in rep.rows
                                   if not row.in_s and row.verdict == "divides")
        assert claimed > 0


def test_08_expansion_matching():
    cases = []
    for k in (1, 2, 3, 4, 6):
        for j in range(k):
            cases.append(("kz", "chi_kz", k, j, 4))
    for k in (1, 2, 3):
        for order in (1, 3, 5):
            for j in range(order):
                cases.append((f"gk:k={k}", f"chi_gk:k={k}", order, j, 3))
    for m in (1, 2):
        for alpha in range(m):
            fam = f"hikami:m={m},alpha={alpha}"
            char = f"chi_hikami:m={m},alpha={alpha}"
            for order in (1, 3):
                for j in range(order):
                    cases.append((fam, char, order, j, 2))
    with budget("criterion 8 (expansion matching)", 120.0):
        for fam_text, char_name, k, j, depth in cases:
            rep = match_expansion(parse_family(fam_text),
                                  get_character(char_name), k, j, depth)
            assert rep.verdict == "match", \
                f"{fam_text} vs {char_name} at k={k}, j={j}: {rep.first_mismatch}"


def test_09_theta_equals_series():
    with budget("criterion 9 (partial theta prefix identity)", 30.0):
        for k in (1, 2, 3):
            theta = theta_truncated(get_character(f"chi_gk:k={k}"), 60)
            prefix = partial_sum_prefix(parse_family(f"gk:k={k}"), 60, 60)
            for e in range(61):
                assert theta[e] == Fraction(prefix[e]), (k, e)


def test_10_l_values():
    with budget("criterion 10 (L-values and period doubling)", 10.0):
        alternating = Character(0, 1, 0, 2, {0: -1, 1: 1})
        seq = twisted_sequence(alternating, 1, 0)
        assert l_value(seq, 0).as_fraction() == Fraction(1, 2)
        names = ["chi_kz", "chi6", "chi_gk:k=1", "chi_gk:k=2", "chi_gk:k=3",
                 "chi_hikami:m=1,alpha=0", "chi_hikami:m=2,alpha=0",
                 "chi_hikami:m=2,alpha=1"]
        for name in names:
            base = twisted_sequence(get_character(name), 1, 0)
            doubled = TwistedSeq(base.character, base.k, base.j,
                                 2 * base.period, base.table * 2)
            for n in range(7):
                assert l_value(doubled, n) == l_value(base, n), (name, n)


def test_11_congruences():
    plan = [
        ("kz", 5, 1, 1, 200),     # xi(5n+4) == 0 mod 5
        ("kz", 5, 1, 2, 200),     # xi(5n+3) == 0 mod 5
        ("kz", 7, 1, 1, 200),     # xi(7n+6) == 0 mod 7
        ("gk:k=1", 5, 2, 1, 100),
        ("gk:k=1", 7, 2, 1, 196),
        ("gk:k=1", 13, 1, 1, 676),
        ("gk:k=1", 13, 1, 2, 676),
        ("gk:k=1", 13, 1, 3, 676),
        ("gk:k=1", 13, 1, 4, 676),
        ("gk:k=2", 7, 1, 1, 300),
        ("gk:k=2", 11, 1, 1, 300),
    ]
    with budget("criterion 11 (prime-power congruences)", 300.0):
        for fam_text, p, r, beta, depth in plan:
            rep = verify_congruence(parse_family(fam_text), p, r, beta, depth)
            assert rep.verdict == "pass", (fam_text, p, r, beta, rep.witness)


def test_12_extraction_battery():
    import random
    rng = random.Random(20260819)
    with budget("criterion 12 (extraction identity battery)", 60.0):
        for _ in range(100):
            deg = rng.randint(0, 24)
            poly = IntPoly(tuple(rng.randint(-9, 9) for _ in range(deg + 1)))
            s = rng.randint(1, 4)
            for ell in range(4):
                assert extraction_identity_check(poly, s, ell)
