"""Resource limits: each guard's boundary, the refusal message, and the
README's table of limits."""

import functools
import importlib
import math
import pathlib
import re

import pytest

from qstrange import _admit
from qstrange.cli import identity_check_work
from qstrange.fishburn import _table_plan, modular_work
from qstrange.partialtheta import gamma_work, get_character, l_value_work
from qstrange.qfamilies import InvalidParam, parse_family, partial_sum_work
from qstrange.strangematch import c_array_work

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
    ("fishburn.MAX_TABLE_BYTES", _per_family(lambda f, n: _table_plan(f, n)[1])),
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
