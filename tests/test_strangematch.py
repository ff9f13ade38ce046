import math
import random
from fractions import Fraction

import pytest

from helpers import expansion_def, gamma_def, lift_def, zeta
from qstrange.cyclofield import CycloNum, eval_at_root
from qstrange.exactpoly import IntPoly, theta_deriv
from qstrange.partialtheta import (Character, CharacterInvalid, gamma_coeff,
                                   get_character)
from qstrange.qfamilies import InvalidParam, parse_family, partial_sum
from qstrange.strangematch import (
    OddOrderRequired,
    c_array,
    expansion_coeff,
    extraction_identity_check,
    match_expansion,
    stable_derivative,
)

KZ = parse_family("kz")
GK1 = parse_family("gk:k=1")


class TestStableDerivative:
    @pytest.mark.parametrize("k,ell,want", [
        (1, 0, 0), (2, 0, 1), (1, 3, 3), (3, 1, 5), (6, 4, 29),
    ])
    def test_f_kernel(self, k, ell, want):
        assert stable_derivative(KZ, k, ell) == want
        assert stable_derivative(parse_family("hikami:m=2,alpha=1"), k, ell) == want

    @pytest.mark.parametrize("k,ell,want", [
        (1, 0, 0), (3, 0, 1), (3, 1, 4), (5, 3, 17), (1, 2, 2),
    ])
    def test_g_kernel(self, k, ell, want):
        assert stable_derivative(GK1, k, ell) == want

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_g_even_order_rejected(self, k):
        with pytest.raises(OddOrderRequired):
            stable_derivative(GK1, k, 0)
        # F kernels vanish at every root of unity
        stable_derivative(KZ, k, 0)

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            stable_derivative(KZ, 0, 1)
        with pytest.raises(InvalidParam):
            stable_derivative(KZ, 3, -1)


class TestExpansionCoeff:
    def test_frozen_values(self):
        assert expansion_coeff(KZ, 1, 0, 0) == CycloNum.rational(1, 1)
        assert expansion_coeff(KZ, 1, 0, 1) == CycloNum.rational(1, 1)
        assert expansion_coeff(KZ, 1, 0, 2) == CycloNum.rational(1, Fraction(3, 2))
        assert expansion_coeff(KZ, 2, 1, 0) == CycloNum.rational(2, 3)
        assert expansion_coeff(GK1, 1, 0, 0) == CycloNum.rational(1, 1)

    def test_stabilization_witnesses(self):
        cases = [(KZ, 3, 1, 2), (KZ, 3, 2, 1), (GK1, 3, 1, 1),
                 (parse_family("hikami:m=2,alpha=1"), 3, 1, 1)]
        for fam, k, j, ell in cases:
            n_star = stable_derivative(fam, k, ell)
            want = expansion_coeff(fam, k, j, ell)
            for extra in (0, 1, 4):
                assert expansion_def(fam, k, j, ell, n_star + extra) == want

    def test_order_comes_from_gcd(self):
        # zeta_6^2 is a primitive cube root; both routes must agree
        a = expansion_coeff(GK1, 6, 2, 1)
        b = expansion_coeff(GK1, 3, 1, 1)
        assert lift_def(a, 6) == a and lift_def(b, 6) == a
        # zeta_6^3 = -1 has even order, no stable value for a G kernel
        with pytest.raises(OddOrderRequired):
            expansion_coeff(GK1, 6, 3, 0)
        # but j = 0 is the trivial root regardless of k
        assert expansion_coeff(GK1, 6, 0, 0).as_fraction() == 1

    def test_t_series_coefficients(self):
        # coefficient of t^m in p(zeta * exp(-t)), written out term by term,
        # equals the theta-derivative route used by expansion_coeff
        rng = random.Random(2024)
        for _ in range(25):
            p = IntPoly(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 18))))
            k = rng.randint(1, 8)
            j = rng.randint(0, k - 1)
            m = rng.randint(0, 4)
            acc = CycloNum.rational(k, 0)
            for e, c in enumerate(p.coeffs):
                if c:
                    w = Fraction(c * (-e) ** m, math.factorial(m))
                    acc = acc + zeta(k, e * j).scale(w)
            via_theta = eval_at_root(theta_deriv(p, m), k, j).scale(
                Fraction((-1) ** m, math.factorial(m)))
            assert acc == via_theta


class TestMatchExpansion:
    def test_kz_matches(self):
        for k in (1, 2, 3):
            for j in range(k):
                rep = match_expansion(KZ, get_character("chi_kz"), k, j, 2)
                assert rep.verdict == "match", (k, j)
                assert rep.first_mismatch is None

    def test_gk_matches(self):
        chi6 = get_character("chi6")
        for k in (1, 3):
            for j in range(k):
                assert match_expansion(GK1, chi6, k, j, 2).verdict == "match"
        for kk in (2, 3):
            fam = parse_family(f"gk:k={kk}")
            char = get_character(f"chi_gk:k={kk}")
            assert match_expansion(fam, char, 1, 0, 1).verdict == "match"

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_hikami_matches(self, alpha):
        fam = parse_family(f"hikami:m=2,alpha={alpha}")
        char = get_character(f"chi_hikami:m=2,alpha={alpha}")
        for k in (1, 3):
            for j in range(k):
                assert match_expansion(fam, char, k, j, 1).verdict == "match"

    def test_wrong_pairing_detected(self):
        # the Kontsevich-Zagier series against the odd-kernel character: the
        # expansions at q = 1 agree through t^2 and split at t^3
        rep = match_expansion(KZ, get_character("chi6"), 1, 0, 4)
        assert rep.verdict == "mismatch"
        assert rep.first_mismatch == 3
        rep2 = match_expansion(GK1, get_character("chi_kz"), 1, 0, 4)
        assert rep2.verdict == "mismatch" and rep2.first_mismatch == 3

    def test_one_sum_and_one_l_value_per_order(self, monkeypatch,
                                               clear_memos):
        # one partial sum, at the deepest stable index, and L(-2r-nu) once
        # per order r: not once per (order, r) pair, which is
        # (depth+1)(depth+2)/2 calls; a mismatch stops the L-values there.
        # Each case starts cold, and a repeated request builds nothing
        import qstrange.partialtheta as pt
        import qstrange.qfamilies as qf

        calls = {"_horner": 0, "_l_value": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(qf, "_horner")
        counted(pt, "_l_value")
        for char, k, depth, stop in (("chi_kz", 3, 0, 0), ("chi_kz", 3, 4, 4),
                                     ("chi6", 1, 4, 3)):
            clear_memos()
            calls.update(_horner=0, _l_value=0)
            rep = match_expansion(KZ, get_character(char), k, 1, depth)
            assert rep.first_mismatch == (None if stop == depth else stop)
            assert calls == {"_horner": 1, "_l_value": stop + 1}
            assert match_expansion(KZ, get_character(char), k, 1, depth) == rep
            assert calls == {"_horner": 1, "_l_value": stop + 1}

    def test_one_bernoulli_pass_per_request(self, monkeypatch):
        # B_0..B_{2 depth + nu + 1} once, sliced for each order, not one
        # tangent-number pass per L-value
        import qstrange.partialtheta as pt

        tops = []
        real = pt._bernoulli
        monkeypatch.setattr(pt, "_bernoulli",
                            lambda top: tops.append(top) or real(top))
        want = gamma_def(get_character("chi_kz"), 2, 1, 3)
        tops.clear()
        assert gamma_coeff(get_character("chi_kz"), 2, 1, 3) == want
        assert tops == [8]
        tops.clear()
        assert match_expansion(KZ, get_character("chi_kz"), 2, 1, 4).verdict == "match"
        assert tops == [10]

    def test_j_reduced_mod_k(self):
        a = match_expansion(KZ, get_character("chi_kz"), 3, 5, 1)
        assert a.j == 2 and a.verdict == "match"

    def test_json_shape(self):
        rep = match_expansion(KZ, get_character("chi_kz"), 2, 1, 2)
        assert rep.to_json_obj() == {
            "family": "kz", "character": "chi_kz", "k": 2, "j": 1,
            "checked_through": 2, "verdict": "match",
        }
        bad = match_expansion(KZ, get_character("chi6"), 1, 0, 3)
        obj = bad.to_json_obj()
        assert obj["verdict"] == "mismatch" and obj["first_mismatch"] == 3

    def test_bad_inputs(self):
        with pytest.raises(InvalidParam):
            match_expansion(KZ, get_character("chi_kz"), 0, 0, 1)
        with pytest.raises(InvalidParam):
            match_expansion(KZ, get_character("chi_kz"), 2, 0, -1)
        with pytest.raises(CharacterInvalid):
            match_expansion(KZ, Character(0, 1, 0, 1, {0: 1}), 1, 0, 0)

    def test_report_immutable(self):
        rep = match_expansion(KZ, get_character("chi_kz"), 1, 0, 0)
        with pytest.raises(AttributeError):
            rep.verdict = "match"


class TestCArray:
    def test_frozen(self):
        assert c_array(0, 7, 3) == [1]
        assert c_array(1, 2, 5) == [2, 5]
        assert c_array(2, 1, 5) == [1, 35, 25]

    def test_boundaries(self):
        for ell in range(6):
            for i in (0, 1, 4):
                for s in (1, 3, 5):
                    row = c_array(ell, i, s)
                    assert len(row) == ell + 1
                    assert row[0] == i ** ell
                    assert row[ell] == s ** ell

    def test_recursion(self):
        for ell in range(1, 6):
            prev = c_array(ell - 1, 3, 7) + [0]
            cur = c_array(ell, 3, 7)
            for jj in range(ell + 1):
                back = s_term = 7 * prev[jj - 1] if jj else 0
                assert cur[jj] == (3 + jj * 7) * prev[jj] + back

    def test_bad_ell(self):
        with pytest.raises(InvalidParam):
            c_array(-1, 1, 5)

    @pytest.mark.parametrize("s", [0, -3])
    def test_bad_modulus(self, s):
        with pytest.raises(InvalidParam, match="modulus must be positive"):
            c_array(2, 1, s)


class TestExtractionIdentity:
    def test_random_battery(self):
        rng = random.Random(5151)
        for _ in range(20):
            p = IntPoly(tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 30))))
            s = rng.randint(1, 4)
            ell = rng.randint(0, 3)
            assert extraction_identity_check(p, s, ell)

    def test_on_partial_sum(self):
        p = partial_sum(GK1, 6)
        assert extraction_identity_check(p, 3, 2)

    def test_zero_poly(self):
        assert extraction_identity_check(IntPoly(), 3, 1)

    def test_detects_wrong_coefficients(self, monkeypatch):
        import qstrange.strangematch as sm
        monkeypatch.setattr(sm, "c_array", lambda ell, i, s: [0] * (ell + 1))
        assert not extraction_identity_check(IntPoly((1, 2, 3)), 2, 1)

    def test_detects_wrong_dissection(self, monkeypatch):
        # a wrong part still passes the derivative ladder, which holds for
        # any part; only the filter check compares against the dissection
        import qstrange.dissection as ds

        real = ds.dissect

        def wrong(p, s):
            parts = list(real(p, s))
            parts[1] = parts[1] + IntPoly((5, 0, 1))
            return tuple(parts)

        p = IntPoly(tuple(range(1, 12)))
        assert extraction_identity_check(p, 3, 2)
        monkeypatch.setattr(ds, "dissect", wrong)
        assert not extraction_identity_check(p, 3, 2)

    @pytest.mark.parametrize("s,g,at", [(3, 1, 0), (3, 1, 1), (3, 3, 0),
                                        (3, 3, 1), (4, 2, 1), (4, 4, 0)])
    def test_detects_wrong_filter_sum(self, monkeypatch, s, g, at):
        # one filter sum, for gcd(e - i, s) = g, off by one in its first
        # coordinate or in one that must be 0, fails the filter check
        import qstrange.strangematch as sm

        real = sm._fold

        def wrong(k, coeffs):
            out = list(real(k, coeffs))
            if k == s and coeffs == [g * (e % g == 0) for e in range(s)]:
                out[at] += 1
            return out

        p = IntPoly(tuple(range(1, 12)))
        assert extraction_identity_check(p, s, 2)
        monkeypatch.setattr(sm, "_fold", wrong)
        assert not extraction_identity_check(p, s, 2)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParam):
            extraction_identity_check(IntPoly((1,)), 0, 1)
        with pytest.raises(InvalidParam):
            extraction_identity_check(IntPoly((1,)), 2, -1)
