"""End-to-end checks of the command line surface.

Everything goes through cli.run() with an argv list; stdout is captured via
capsys so the JSON contract can be checked byte for byte.
"""

import json

import pytest

from qstrange.cli import build_parser, run
from qstrange.partialtheta import get_character


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------- basics

def test_parser_lists_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    names = set(sub.choices)
    assert names == {"dissect", "verify", "residues", "match", "lvalue",
                     "gamma", "fishburn", "scan", "carray", "identity-check"}


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["fishburn", "--help"]) == 0
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = invoke(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = invoke(capsys, "fishburn", "--family", "kz",
                            "--depth", "3", "--bogus")
    assert code == 2
    # verify and scan run single-threaded and take no --jobs flag
    code, out, err = invoke(capsys, "verify", "--family", "kz", "--char",
                            "chi_kz", "--s", "5", "--N", "10", "--jobs", "2")
    assert code == 2


# ---------------------------------------------------------------- fishburn

def test_fishburn_table(capsys):
    code, out, err = invoke(capsys, "fishburn", "--family", "kz",
                            "--depth", "5")
    assert code == 0
    assert out.strip() == "[1, 1, 2, 5, 15, 53]"


def test_fishburn_json(capsys):
    code, obj = invoke_json(capsys, "fishburn", "--family", "gk:k=1",
                            "--depth", "5")
    assert code == 0
    assert obj["schema"] == "qstrange/1"
    assert obj["command"] == "fishburn"
    assert obj["coeffs"] == [1, 1, 2, 6, 25, 135]
    assert obj["family"] == "gk:k=1"


def test_json_is_byte_identical(capsys):
    _, out1, _ = invoke(capsys, "fishburn", "--family", "kz",
                        "--depth", "8", "--format", "json")
    _, out2, _ = invoke(capsys, "fishburn", "--family", "kz",
                        "--depth", "8", "--format", "json")
    assert out1 == out2
    # compact separators, sorted keys
    assert ": " not in out1 and out1.index('"coeffs"') < out1.index('"depth"')


# ---------------------------------------------------------------- dissect

def test_dissect_part_count_and_json(capsys):
    code, obj = invoke_json(capsys, "dissect", "--family", "gk:k=1",
                            "--s", "5", "--N", "8")
    assert code == 0
    assert [part["i"] for part in obj["parts"]] == [0, 1, 2, 3, 4]
    # reassembly sanity on the JSON itself: part i only holds exponents == i (5)
    from qstrange.exactpoly import IntPoly
    from qstrange.qfamilies import parse_family, partial_sum
    total = IntPoly.zero()
    for part in obj["parts"]:
        piece = IntPoly.from_json_obj(part["poly"]).dilate(5).shift(part["i"])
        total = total + piece
    assert total == partial_sum(parse_family("gk:k=1"), 8).value


def test_dissect_table_lines(capsys):
    code, out, err = invoke(capsys, "dissect", "--family", "kz",
                            "--s", "3", "--N", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("i=0: ")


# ---------------------------------------------------------------- verify

def test_verify_example_certificate(capsys):
    code, obj = invoke_json(capsys, "verify", "--family", "gk:k=1",
                            "--char", "chi6", "--s", "5", "--N", "8")
    assert code == 0
    assert obj["S"] == [0, 1, 3]
    by_i = {row["i"]: row for row in obj["rows"]}
    assert by_i[2]["verdict"] == "divides"
    assert by_i[4]["verdict"] == "divides"
    assert by_i[2]["divisor"] == "(q;q2)_2"
    for i in (0, 1, 3):
        assert by_i[i]["verdict"] == "not-claimed"
        assert by_i[i]["in_S"] is True


def test_verify_table_output(capsys):
    code, out, err = invoke(capsys, "verify", "--family", "gk:k=1",
                            "--char", "chi6", "--s", "5", "--N", "8")
    assert code == 0
    assert "S={0, 1, 3}" in out
    assert "i=2: divides (q;q2)_2" in out
    assert "i=0: not-claimed" in out


def test_verify_even_s_for_g_kernel_is_usage_error(capsys):
    code, out, err = invoke(capsys, "verify", "--family", "gk:k=1",
                            "--char", "chi6", "--s", "4", "--N", "8")
    assert code == 2
    assert "error:" in err


def test_verify_falsified_exits_one(capsys, tmp_path):
    # trivial family 1, contrived character whose S misses residue 0
    charfile = tmp_path / "bad.json"
    charfile.write_text(json.dumps({
        "a": 3, "b": 2, "nu": 0, "period": 4,
        "values": {"1": "1", "3": "-1"},
    }))
    fam = json.dumps({"kernel": "F", "terms": [{"coeffs": ["1"]}]})
    code, out, err = invoke(capsys, "verify", "--family", fam,
                            "--char", str(charfile), "--s", "2", "--N", "3")
    assert code == 1
    assert "FALSIFIED" in out


def test_verify_falsified_json_shape(capsys, tmp_path):
    charfile = tmp_path / "bad.json"
    charfile.write_text(json.dumps({
        "a": 3, "b": 2, "nu": 0, "period": 4,
        "values": {"1": "1", "3": "-1"},
    }))
    fam = json.dumps({"kernel": "F", "terms": [{"coeffs": ["1"]}]})
    code, out, err = invoke(capsys, "verify", "--family", fam,
                            "--char", str(charfile), "--s", "2", "--N", "3",
                            "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "falsified"
    assert obj["schema"] == "qstrange/1"


# ---------------------------------------------------------------- residues

def test_residues_builtin(capsys):
    code, out, err = invoke(capsys, "residues", "--char", "chi6", "--s", "5")
    assert code == 0
    assert out.strip() == "S = {0, 1, 3}"


def test_residues_from_character_file(capsys, tmp_path):
    charfile = tmp_path / "chi6.json"
    charfile.write_text(json.dumps(get_character("chi6").to_json_obj()))
    code, obj = invoke_json(capsys, "residues", "--char", str(charfile),
                            "--s", "5")
    assert code == 0
    assert obj["residues"] == [0, 1, 3]
    assert obj["character"] == "custom"


def test_builtin_character_name_wins_over_file(capsys, tmp_path, monkeypatch):
    # a decoy file named like a built-in, holding a different character
    (tmp_path / "chi6").write_text(
        json.dumps(get_character("chi_kz").to_json_obj()))
    monkeypatch.chdir(tmp_path)
    code, obj = invoke_json(capsys, "residues", "--char", "chi6", "--s", "5")
    assert code == 0
    assert obj["residues"] == [0, 1, 3]
    assert obj["character"] == "chi6"


def test_residues_hikami_pair(capsys):
    code, obj = invoke_json(capsys, "residues", "--char",
                            "chi_hikami:m=2,alpha=0", "--s", "3")
    assert code == 0
    assert obj["residues"] == [0, 1]
    code, obj = invoke_json(capsys, "residues", "--char",
                            "chi_hikami:m=2,alpha=1", "--s", "3")
    assert obj["residues"] == [0, 2]


def test_unknown_character_is_usage_error(capsys):
    code, out, err = invoke(capsys, "residues", "--char", "chi_nope",
                            "--s", "5")
    assert code == 2
    assert "chi_nope" in err


def test_missing_character_file_is_usage_error(capsys):
    code, out, err = invoke(capsys, "residues", "--char", "nosuch.json",
                            "--s", "5")
    assert code == 2


def test_malformed_character_file_is_usage_error(capsys, tmp_path):
    charfile = tmp_path / "broken.json"
    charfile.write_text("{not json")
    code, out, err = invoke(capsys, "residues", "--char", str(charfile),
                            "--s", "5")
    assert code == 2


@pytest.mark.parametrize("field,value", [
    ("a", 1.9), ("a", 1.0), ("nu", True), ("period", "6"), ("b", None),
    ("values", {"1": 1.0, "2": 1, "4": -1, "5": -1}),
    ("values", [0, 1, 1, 0, -1, -1.0]),
    ("values", {"1": True, "2": 1, "4": -1, "5": -1}),
    ("values", 5),
])
def test_inexact_character_field_is_usage_error(capsys, tmp_path, field,
                                                 value):
    # rounding would answer for a nearby character (a=1.9 read as a=1)
    obj = get_character("chi6").to_json_obj()
    obj[field] = value
    charfile = tmp_path / "inexact.json"
    charfile.write_text(json.dumps(obj))
    code, out, err = invoke(capsys, "residues", "--char", str(charfile),
                            "--s", "5")
    assert (code, out) == (2, "")
    assert "error:" in err


def test_character_file_integer_values(capsys, tmp_path):
    obj = get_character("chi6").to_json_obj()
    obj["values"] = [0, 1, 1, 0, -1, -1]
    charfile = tmp_path / "ints.json"
    charfile.write_text(json.dumps(obj))
    code, obj = invoke_json(capsys, "residues", "--char", str(charfile),
                            "--s", "5")
    assert code == 0
    assert obj["residues"] == [0, 1, 3]


# ---------------------------------------------------------------- match

def test_match_pass_exits_zero(capsys):
    code, obj = invoke_json(capsys, "match", "--family", "kz",
                            "--char", "chi_kz", "--k", "2", "--j", "1",
                            "--depth", "2")
    assert code == 0
    assert obj["verdict"] == "match"
    assert obj["checked_through"] == 2
    assert "first_mismatch" not in obj


def test_match_mismatch_exits_one(capsys):
    # kz against chi6 agrees through order 2 and splits at order 3,
    # so the mismatch control needs depth >= 3
    code, obj = invoke_json(capsys, "match", "--family", "kz",
                            "--char", "chi6", "--k", "1", "--depth", "4")
    assert code == 1
    assert obj["verdict"] == "mismatch"
    assert obj["first_mismatch"] == 3


def test_match_shallow_agreement_is_reported_honestly(capsys):
    # through depth 2 the same wrong pairing is indistinguishable
    code, obj = invoke_json(capsys, "match", "--family", "kz",
                            "--char", "chi6", "--k", "1", "--depth", "2")
    assert code == 0
    assert obj["verdict"] == "match"


def test_match_even_order_g_kernel_is_usage_error(capsys):
    code, out, err = invoke(capsys, "match", "--family", "gk:k=1",
                            "--char", "chi6", "--k", "6", "--j", "3",
                            "--depth", "1")
    assert code == 2


# ---------------------------------------------------------------- lvalue / gamma

def test_lvalue_untwisted(capsys):
    code, obj = invoke_json(capsys, "lvalue", "--char", "chi_kz", "--n", "1")
    assert code == 0
    assert obj["value"] == {"conductor": 1, "coeffs": ["1"]}
    assert obj["k"] == 1 and obj["j"] == 0


def test_lvalue_alternating_character_file(capsys, tmp_path):
    charfile = tmp_path / "alt.json"
    charfile.write_text(json.dumps({
        "a": 0, "b": 1, "nu": 0, "period": 2,
        "values": {"0": "-1", "1": "1"},
    }))
    code, out, err = invoke(capsys, "lvalue", "--char", str(charfile),
                            "--n", "0")
    assert code == 0
    assert out.strip() == "L(-0, C) = 1/2"


def test_gamma_matches_library(capsys):
    from fractions import Fraction
    from qstrange.partialtheta import gamma_coeff
    want = gamma_coeff(get_character("chi_kz"), 2, 1, 1)
    code, obj = invoke_json(capsys, "gamma", "--char", "chi_kz",
                            "--k", "2", "--j", "1", "--n", "1")
    assert code == 0
    assert obj["value"]["conductor"] == want.k
    assert obj["value"]["coeffs"] == [str(c) for c in want.rep.coeffs]


def test_gamma_j_reduced_mod_k(capsys):
    code, obj = invoke_json(capsys, "gamma", "--char", "chi_kz",
                            "--k", "2", "--j", "3", "--n", "0")
    assert code == 0
    assert obj["j"] == 1


# ---------------------------------------------------------------- scan

def test_scan_finds_classical_classes(capsys):
    code, obj = invoke_json(capsys, "scan", "--family", "kz", "--p", "5",
                            "--depth", "200")
    assert code == 0
    assert obj["passing_beta"] == [1, 2]
    assert obj["status"] == "empirical"


def test_scan_single_class_pass(capsys):
    code, obj = invoke_json(capsys, "scan", "--family", "kz", "--p", "5",
                            "--beta", "1", "--depth", "104")
    assert code == 0
    assert obj["verdict"] == "pass"
    assert obj["residue_class"] == 4


def test_scan_single_class_fail(capsys):
    code, obj = invoke_json(capsys, "scan", "--family", "kz", "--p", "5",
                            "--beta", "3", "--depth", "50")
    assert code == 1
    assert obj["verdict"] == "fail"
    assert "witness" in obj


def test_scan_table_lines(capsys):
    code, out, err = invoke(capsys, "scan", "--family", "gk:k=1", "--p", "7",
                            "--depth", "140")
    assert code == 0
    assert "passing beta mod 7: 1" in out


def test_scan_composite_p_is_usage_error(capsys):
    code, out, err = invoke(capsys, "scan", "--family", "kz", "--p", "6",
                            "--depth", "100")
    assert code == 2


# ---------------------------------------------------------------- carray

def test_carray_row(capsys):
    code, obj = invoke_json(capsys, "carray", "--ell", "2", "--i", "1",
                            "--s", "5")
    assert code == 0
    assert obj["coeffs"] == [1, 35, 25]


# ---------------------------------------------------------------- identity-check

def test_identity_check_random_battery(capsys):
    code, obj = invoke_json(capsys, "identity-check", "--s", "3", "--ell", "2",
                            "--count", "6", "--seed", "7", "--max-degree", "15")
    assert code == 0
    assert obj["ok"] is True
    assert obj["checked"] == 6


def test_identity_check_single_poly(capsys):
    poly = json.dumps({"coeffs": ["1", "-2", "0", "3", "5"]})
    code, obj = invoke_json(capsys, "identity-check", "--s", "2", "--ell", "3",
                            "--poly", poly)
    assert code == 0
    assert obj["checked"] == 1


def test_identity_check_bad_poly_json_is_usage_error(capsys):
    code, out, err = invoke(capsys, "identity-check", "--s", "2", "--ell", "1",
                            "--poly", "{oops")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("fishburn", "--family", '{"kernel":"F","terms":[{"coeffs":"12"}]}',
     "--depth", "3"),
    ("fishburn", "--family",
     '{"kernel":"F","terms":[{"coeffs":[true,false,2]}]}', "--depth", "3"),
    ("identity-check", "--s", "2", "--ell", "1", "--poly", '{"coeffs":"123"}'),
])
def test_misshapen_poly_json_is_usage_error(capsys, argv):
    # a coeffs string was read digit by digit and true as 1, with exit 0
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "coeffs" in err or "True" in err
