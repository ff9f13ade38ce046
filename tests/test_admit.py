"""Resource limits: each guard's boundary, the refusal message, and the
README's table of limits."""

import functools
import importlib
import math
import operator
import pathlib
import re

import pytest

from qstrange import _admit
from qstrange.cli import identity_check_work
from qstrange.fishburn import _table_bytes, modular_work
from qstrange.partialtheta import gamma_work, get_character, l_value_work
from qstrange.qfamilies import InvalidParam, parse_family, partial_sum_work
from qstrange.strangematch import c_array_work

import helpers
from helpers import BOUNDARIES, GUARDS, check_boundary, deepest_admitted

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CHI_KZ = get_character("chi_kz")


# the partial_sum and xi_coeffs rows run in test_qfamilies and test_fishburn
@pytest.mark.parametrize(
    "guard,arg,deepest",
    [row for row in BOUNDARIES if row[0] not in ("partial_sum", "xi_coeffs")],
    ids=lambda v: str(v))
def test_guard_admits_its_deepest_input_and_refuses_the_next(
        guard, arg, deepest, monkeypatch):
    check_boundary(guard, arg, deepest, monkeypatch)


def test_every_limit_has_a_boundary_row():
    limits = {name for name in vars(_admit) if name.startswith("MAX_")}
    assert len(limits) == 10
    assert {GUARDS[guard][0] for guard, _, _ in BOUNDARIES} == limits


def test_refusal_names_the_limit():
    _admit.admit("MAX_MATCH_INDEX", 100, "index")
    with pytest.raises(InvalidParam) as exc:
        _admit.admit("MAX_MATCH_INDEX", 101, "index")
    assert str(exc.value) == "index: 101 is over MAX_MATCH_INDEX = 100"


def test_invalid_param_is_shared():
    import qstrange
    import qstrange.qfamilies

    assert qstrange.InvalidParam is qstrange.qfamilies.InvalidParam \
        is _admit.InvalidParam


# -- the README's table of limits ---------------------------------------------

def _families(label: str) -> list:
    """The families a README label stands for: hikami:m=<m> is every alpha."""
    if label.startswith("hikami:") and "alpha" not in label:
        m = int(label.split("=")[1])
        return [parse_family(f"{label},alpha={a}") for a in range(m)]
    return [parse_family(label)]


def _per_family(work):
    return lambda label: [functools.partial(work, f) for f in _families(label)]


def _named(estimates: dict):
    return lambda label: [estimates[label]] if label in estimates else []


# README rows in order: (module.constant, label -> its estimates of x)
README_ROWS = [
    ("qfamilies.MAX_PARTIAL_SUM_WORK", _per_family(partial_sum_work)),
    ("qfamilies.MAX_PARTIAL_SUM_WORK",
     _per_family(lambda f, n: partial_sum_work(f, n, n))),
    ("fishburn.MAX_TABLE_BYTES", _per_family(_table_bytes)),
    ("fishburn.MAX_MODULAR_WORK", _per_family(modular_work)),
    ("partialtheta.MAX_L_WORK", _named({
        "lvalue --char chi_kz --n": lambda n: l_value_work(n, 24),
        "gamma --char chi_kz --n": lambda n: gamma_work(CHI_KZ, 1, n)})),
    ("partialtheta.MAX_TWIST_PERIOD", _named({
        "lvalue --char chi_kz --k": lambda k: math.lcm(12, 24 * k)})),
    ("strangematch.MAX_MATCH_INDEX", _named({
        "match --family kz --k 1 --depth": lambda depth: depth})),
    ("strangematch.MAX_C_ARRAY_WORK", _named({
        "carray --i 1 --s 5 --ell": lambda ell: c_array_work(ell, 1, 5)})),
    ("cli.MAX_IDENTITY_WORK", _named({
        "identity-check --s 3 --ell 2 --count 100 --max-degree":
            lambda d: identity_check_work(100, d, 3, 2)})),
    ("dissection.MAX_RESIDUE_SPAN", _named({
        "residues --char chi_kz --s": lambda s: math.lcm(12, 24 * s)})),
    ("dissection.MAX_DISSECT_MODULUS", _named({"dissect --s": lambda s: s})),
]


def _readme_rows() -> list:
    """(constant cell, value cell, deepest cell) of each table row naming a MAX_."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and re.fullmatch(r"`\w+\.MAX_\w+`", cells[0]):
            rows.append((cells[0].strip("`"), cells[2], cells[3]))
    return rows


def _value(text: str) -> int:
    """"100", "10^8", "5 x 10^10" or "2^28 (256 MiB)" as an integer."""
    m = re.fullmatch(r"(?:(\d+) x )?(\d+)(?:\^(\d+))?(?: \(.*\))?", text)
    assert m, text
    return int(m[1] or 1) * int(m[2]) ** int(m[3] or 1)


def test_readme_table_lists_every_limit_in_order():
    assert [row[0] for row in _readme_rows()] == [c for c, _ in README_ROWS]


@pytest.mark.parametrize("index", range(len(README_ROWS)))
def test_readme_table_matches_the_limits(index):
    constant, value, deepest = _readme_rows()[index]
    module, name = constant.split(".")
    assert getattr(importlib.import_module(f"qstrange.{module}"), name) \
        == getattr(_admit, name) == _value(value)
    entries = re.findall(r"`([^`]+)` (\d+)", deepest)
    assert entries, deepest
    for label, number in entries:
        estimates = README_ROWS[index][1](label)
        assert estimates, label
        for estimate in estimates:
            assert deepest_admitted(name, estimate) == int(number), label


# -- the estimates against their per-kind oracles ----------------------------

ORACLE_FAMILIES = [
    "kz", *(f"gk:k={k}" for k in range(1, 7)),
    *(f"hikami:m={m},alpha={a}" for m in range(1, 7) for a in range(m)),
    '{"kernel":"F","terms":[{"coeffs":["1"]},{"coeffs":["0","2"]},'
    '{"coeffs":["-1","0","1"]}]}',
    '{"kernel":"G","terms":[{"coeffs":["2"]},{"coeffs":["1","-1"]},'
    '{"coeffs":["0","0","0","-98765432109876543210987654321"]}]}',
]


def _estimate_points() -> list:
    """N or depth 0..80, and every README deepest input of the partial-sum,
    table and modular limits, with the next one up."""
    edges = {int(x) for constant, _, deepest in _readme_rows()
             if constant.split(".")[1] in ("MAX_PARTIAL_SUM_WORK",
                                           "MAX_TABLE_BYTES",
                                           "MAX_MODULAR_WORK")
             for x in re.findall(r"` (\d+)", deepest)}
    assert len(edges) > 10
    return sorted(set(range(81)) | edges | {x + 1 for x in edges})


@pytest.mark.parametrize("label", ORACLE_FAMILIES)
def test_estimates_match_the_per_kind_oracles(label):
    # the floors pinned in test_estimate_floors only ever add work, at N = 0
    # and, for a family with ladder levels, below depth 175
    fam = parse_family(label)
    laddered = fam.kind in ("gk", "hikami") and fam.params[0] > 1
    for x in _estimate_points():
        partial = operator.ge if x == 0 else operator.eq
        modular = operator.ge if laddered and x < 175 else operator.eq
        assert partial(partial_sum_work(fam, x),
                       helpers.partial_sum_work_def(fam, x))
        assert partial(partial_sum_work(fam, x, x),
                       helpers.partial_sum_work_def(fam, x, x))
        assert modular(modular_work(fam, x), helpers.modular_work_def(fam, x))


# (family, partial_sum_work at N = 0 without and with the 1-q substitution,
# its ladder levels): N = 0 counts a pass per ladder level and degree 1
FLOORS = [
    ("kz", 0, 1, 0),
    ("gk:k=1", 0, 1, 0),
    ("gk:k=3", 2, 2, 2),
    ("hikami:m=2,alpha=0", 1, 1, 1),
    # the levels up to alpha are read at index 1, so the degree is alpha
    ("hikami:m=4,alpha=2", 6, 6, 3),
]

# modular_work of one ladder level by depth: (3*10**5 + 6000 n) n, n =
# depth + 1, up to depth 174, and n**4 / 4 from 175 on
LEVEL_WORK = {0: 306_000, 5: 2_016_000, 20: 8_946_000, 52: 32_754_000,
              174: 236_250_000, 175: 176 ** 4 // 4}


@pytest.mark.parametrize("label,work,work_sub,levels", FLOORS,
                         ids=[row[0] for row in FLOORS])
def test_estimate_floors(label, work, work_sub, levels):
    fam = parse_family(label)
    assert partial_sum_work(fam, 0) == work
    assert partial_sum_work(fam, 0, 0) == work_sub
    for depth, per_level in LEVEL_WORK.items():
        assert modular_work(fam, depth) == (depth + 1) ** 3 + levels * per_level


@pytest.mark.parametrize("name,estimate,deepest", [
    ("MAX_PARTIAL_SUM_WORK",
     lambda k: partial_sum_work(parse_family(f"gk:k={k}"), 0), 79999),
    ("MAX_PARTIAL_SUM_WORK",
     lambda m: partial_sum_work(parse_family(f"hikami:m={m},alpha=0"), 0, 0),
     79999),
    ("MAX_MODULAR_WORK",
     lambda k: modular_work(parse_family(f"gk:k={k}"), 5), 24802),
    ("MAX_MODULAR_WORK",
     lambda k: modular_work(parse_family(f"gk:k={k}"), 52), 1527),
    ("MAX_MODULAR_WORK",
     lambda m: modular_work(parse_family(f"hikami:m={m},alpha=3"), 0),
     163399),
], ids=["partial_sum gk N=0", "xi_coeffs hikami N=0", "modular gk depth 5",
        "modular gk depth 52", "modular hikami depth 0"])
def test_largest_ladders_admitted_at_small_inputs(name, estimate, deepest):
    # the calibrations in partial_sum_work's and modular_work's docstrings
    assert deepest_admitted(name, estimate, 4) == deepest


@pytest.mark.parametrize("label", [
    "gk:k=1000000000000",
    "hikami:m=1000000000000,alpha=0",
    "hikami:m=1000000000000,alpha=999999999",
])
def test_huge_ladders_are_refused_at_once(label, capsys):
    # the shape is a few runs of levels, so estimating costs the same for
    # any k or m, and the refusal comes before any level is built
    from qstrange.cli import run
    from qstrange.fishburn import _xi_mod
    from qstrange.qfamilies import _shape, partial_sum

    fam = parse_family(label)
    assert len(_shape(fam)[0]) <= 2
    assert partial_sum_work(fam, 1) == helpers.partial_sum_work_def(fam, 1)
    # depth 1 is under the level floor, which only adds work
    assert modular_work(fam, 1) >= helpers.modular_work_def(fam, 1)
    with pytest.raises(InvalidParam):
        partial_sum(fam, 1)
    with pytest.raises(InvalidParam):
        _xi_mod(fam, 1, 2)
    assert run(["fishburn", "--family", label, "--depth", "1"]) == 2
    assert run(["scan", "--family", label, "--p", "2", "--depth", "5"]) == 2
    assert "is over MAX_" in capsys.readouterr().err
