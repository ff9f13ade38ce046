"""End-to-end checks of the command line surface.

Everything goes through cli.run() with an argv list; stdout is captured via
capsys so the JSON contract can be checked byte for byte.  The console
entry, console_main, ends the process, so it runs only in fresh
interpreters, never in this one.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import contracts
from qstrange.cli import COMMANDS, build_parser, run
from qstrange.partialtheta import get_character

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# The pinned outcome of each CLI call (the README's calls, deep admitted
# calls, digests of large outputs and refusals) is a row of the registry
# tests/data/contracts.json, which tests/contracts.py checks: in process in
# tests/test_contracts.py and tests/test_readme_calls.py, and here through
# the console entry.


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ---------------------------------------------------------------- basics

def _subcommands(parser):
    return list(parser._subparsers._group_actions[0].choices)


def test_parser_lists_all_subcommands():
    assert _subcommands(build_parser()) == [
        "dissect", "verify", "residues", "match", "lvalue", "gamma",
        "fishburn", "scan", "carray", "identity-check"]
    assert _subcommands(build_parser("-h")) == _subcommands(build_parser())


def test_named_subcommand_builds_only_its_own_parser():
    full = build_parser()
    for name, *_ in COMMANDS:
        parser = build_parser(name)
        assert _subcommands(parser) == [name]
        # unrecognized arguments print this usage, with every subcommand
        assert parser.format_usage() == full.format_usage()


def _usage_argvs():
    """Usage errors and help requests of every subcommand and of the top
    level; every required option given as 1 parses, so each argv stops in
    the parser."""
    for name, _, _, options in COMMANDS:
        required = [x for flag, kw in options.items() if kw.get("required")
                    for x in (flag, "1")]
        first_int = next(flag for flag, kw in options.items()
                         if "type" in kw)
        yield [name]  # every required option missing
        yield [name, *required[2:]]  # the first one missing
        yield [name, *required, "--bogus", "1"]  # unknown option
        yield [name, *required, "extra"]  # extra positional
        yield [name, *required, "--format", "xml"]  # bad --format choice
        yield [name, *required, first_int, "x"]  # not an integer
        yield [name, "--help"]
        yield [name, *required, "-h"]
    yield from ([], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--s", "1"],
                ["Scan"], ["sca"], ["--format", "json"], ["--bogus"],
                ["--", "scan"])


def _printed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse(argv)
    return code, out.getvalue(), err.getvalue()


def _full_parse(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    raise AssertionError(f"{argv} parses")


@pytest.mark.parametrize("columns", ["80", "200"])
def test_usage_errors_match_the_full_parser(monkeypatch, columns):
    # run() builds only the named subcommand's parser; every usage error
    # and help text, wrapped at either width, is what the parser of all
    # ten prints, with the same exit code
    monkeypatch.setenv("COLUMNS", columns)
    for argv in _usage_argvs():
        want = _printed(_full_parse, argv)
        assert want[0] in (0, 2), argv
        assert _printed(run, argv) == want, argv


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["fishburn", "--help"]) == 0
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = invoke(capsys)
    assert code == 2
    # argparse names the command by its dest, not by a list of choices
    assert err.endswith("error: the following arguments are required: "
                        "command\n")
    code, out, err = invoke(capsys, "nosuch")
    assert code == 2
    assert "error: argument command: invalid choice: 'nosuch'" in err


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
    assert total == partial_sum(parse_family("gk:k=1"), 8)


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


# int() and Fraction() took some of these, and which by Python version;
# the last, past CPython's default digit limit, whatever the limit is set to
OFF_GRAMMAR = ["1_0", " 7", "1 / 2", "\u0663",
               pytest.param("1" * 4301, id="4301-digits")]
# how an error line quotes a value: whole, unless it is over 60 characters
SHOWN = {"1" * 4301: "'" + "1" * 60 + "'... (4301 characters)"}


@pytest.mark.parametrize("value", OFF_GRAMMAR)
def test_character_value_off_the_grammar_is_usage_error(capsys, tmp_path,
                                                        value):
    # chi6 with its values scaled by 10 is valid: only "1_0" reads as 10
    charfile = tmp_path / "f.json"
    charfile.write_text(json.dumps({"a": 1, "b": 3, "nu": 0, "period": 6,
                                    "values": {"1": value, "5": "-10"}}))
    code, out, err = invoke(capsys, "residues", "--char", str(charfile),
                            "--s", "5")
    assert (code, out) == (2, "")
    shown = SHOWN.get(value, repr(value))
    assert err == f"error: character value {shown} is not an exact rational\n"


@pytest.mark.parametrize("value", OFF_GRAMMAR)
def test_inline_coefficient_off_the_grammar_is_usage_error(capsys, value):
    family = json.dumps({"kernel": "F", "terms": [{"coeffs": [value]}]})
    code, out, err = invoke(capsys, "dissect", "--family", family, "--s", "2",
                            "--N", "0")
    assert (code, out) == (2, "")
    assert err == (f"error: bad term polynomial: {SHOWN.get(value, repr(value))}"
                   " is not an exact integer\n")


@pytest.mark.parametrize("argv", [
    ("dissect", "--family", "gk:k=1_0", "--s", "2", "--N", "0"),
    ("residues", "--char", "chi_gk:k=\u0662", "--s", "5"),
])
def test_descriptor_integer_off_the_grammar_is_usage_error(capsys, argv):
    # int() read these as k = 10 and k = 2
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad integer for k in {argv[2]!r}\n"


@pytest.mark.parametrize("flag, value", [("--s", "\u0665"), ("--s", "5_0"),
                                         ("--N", " 0")])
def test_option_integer_off_the_grammar_is_usage_error(capsys, flag, value):
    # argparse's type=int read these as 5, 50 and 0
    argv = {"--s": "5", "--N": "8", flag: value}
    code, out, err = invoke(capsys, "dissect", "--family", "gk:k=1",
                            *(x for item in argv.items() for x in item))
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid int value: "
                        f"{value!r}\n")


LONG = "9" * 5000


@pytest.mark.parametrize("argv, files, message", [
    pytest.param(("carray", "--i", LONG, "--s", "5", "--ell", "2"), {},
                 "argument --i: invalid int value: '" + "9" * 60
                 + "'... (5000 characters)", id="option-integer"),
    pytest.param(("dissect", "--family", "gk:k=" + LONG, "--s", "2", "--N", "0"),
                 {}, "bad integer for k in 'gk:k=" + "9" * 55
                 + "'... (5005 characters)", id="descriptor-integer"),
    pytest.param(("dissect", "--family", "x" * 5000, "--s", "2", "--N", "0"),
                 {}, "unknown family descriptor '" + "x" * 60
                 + "'... (5000 characters)", id="descriptor"),
    pytest.param(("residues", "--char", "y" * 5000, "--s", "5"), {},
                 "unknown character name '" + "y" * 60
                 + "'... (5000 characters)", id="character-name"),
    pytest.param(("residues", "--char", "c.json", "--s", "5"),
                 {"c.json": {"a": 1, "b": 3, "nu": 0, "period": 6,
                             "values": {LONG: "1", "5": "-1"}}},
                 "residue '" + "9" * 60 + "'... (5000 characters) is not an "
                 "integer", id="residue-key"),
    pytest.param(("residues", "--char", "c.json", "--s", "5"),
                 {"c.json": {"a": "z" * 5000, "b": 3, "nu": 0, "period": 6}},
                 "character field 'a' must be an integer, got '" + "z" * 60
                 + "'... (5000 characters)", id="character-field"),
    # argparse's own lines: 5314, 5201 and 5184 bytes of stderr before
    pytest.param(("x" * 5000,), {}, "argument command: invalid choice: '"
                 + "x" * 60 + "'... (5000 characters)", id="subcommand"),
    pytest.param(("dissect", "--format", "x" * 5000, "--family", "kz",
                  "--s", "2", "--N", "0"), {},
                 "argument --format: invalid choice: '" + "x" * 60
                 + "'... (5000 characters)", id="choice"),
    pytest.param(("dissect", "--family", "kz", "--s", "2", "--N", "0",
                  "--" + "x" * 4998), {},
                 "unrecognized arguments: '--" + "x" * 58
                 + "'... (5000 characters)", id="unknown-option"),
])
def test_long_input_is_cut_short_in_the_error_line(capsys, tmp_path,
                                                   monkeypatch, argv, files,
                                                   message):
    # each echoed its input whole: over 5000 bytes of stderr
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    line = err.splitlines()[-1]
    assert line.endswith("error: " + message)
    assert len(line.encode()) < 200


def test_option_integer_keeps_its_sign(capsys):
    code, obj = invoke_json(capsys, "lvalue", "--char", "chi6", "--k", "+3",
                            "--j", "-1", "--n", "0")
    assert code == 0 and (obj["k"], obj["j"]) == (3, 2)


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


def test_scan_depth_over_table_limit_is_usage_error(capsys, monkeypatch):
    import qstrange._modular as engine

    def never(*args):
        raise AssertionError("the (1-x)**e table was built")

    monkeypatch.setattr(engine, "_pw_table", never)
    code, out, err = invoke(capsys, "scan", "--family", "gk:k=2", "--p", "7",
                            "--depth", "1000000")
    assert code == 2
    assert out == ""
    assert "MiB" in err


def test_engine_mismatch_exits_one(capsys, monkeypatch):
    import qstrange.fishburn as fb

    monkeypatch.setattr(fb, "_xi_mod", lambda fam, d, m: (1,) * (d + 1))
    code, out, err = invoke(capsys, "scan", "--family", "kz", "--p", "5",
                            "--beta", "1", "--depth", "20")
    assert code == 1
    assert out == ""
    assert err == "error: modular engine disagrees with exact coefficients\n"


@pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError])
def test_arithmetic_bug_is_not_a_verdict(capsys, monkeypatch, exc):
    # only the library's own verdicts exit 1; a bug shows its traceback
    import qstrange.cli as cli

    def crash(*args):
        raise exc("bug")

    monkeypatch.setattr(cli, "scan_congruences", crash)
    with pytest.raises(exc):
        run(["scan", "--family", "kz", "--p", "5", "--depth", "20"])
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- carray

def test_carray_row(capsys):
    code, obj = invoke_json(capsys, "carray", "--ell", "2", "--i", "1",
                            "--s", "5")
    assert code == 0
    assert obj["coeffs"] == [1, 35, 25]


@pytest.mark.parametrize("s", ["0", "-3"])
def test_carray_nonpositive_modulus_is_usage_error(capsys, s):
    # printed a C-array with exit 0, where identity-check refuses the same s
    code, out, err = invoke(capsys, "carray", "--ell", "2", "--i", "1", "--s", s)
    assert code == 2
    assert out == ""
    assert "error: modulus must be positive" in err


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
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --poly JSON: Expecting property name")


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_identity_check_poly_off_the_grammar_is_usage_error(capsys, value):
    poly = json.dumps({"coeffs": [value]})
    code, out, err = invoke(capsys, "identity-check", "--s", "2", "--ell", "1",
                            "--poly", poly)
    assert (code, out) == (2, "")
    # the message names the option, as an inline family's names its terms
    assert err == f"error: bad --poly polynomial: {value!r} is not an exact integer\n"


@pytest.mark.parametrize("flag, value", [("--count", "-5"), ("--max-degree", "-2")])
def test_identity_check_negative_size_is_usage_error(capsys, flag, value):
    # --count -5 printed "ok: checked 0 polynomials" with exit 0
    code, out, err = invoke(capsys, "identity-check", "--s", "3", "--ell", "1",
                            flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


# ---------------------------------------------------------------- work guards

def _never(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} was reached")
    return fail


def test_lvalue_over_work_limit_is_usage_error(capsys, monkeypatch):
    import qstrange.partialtheta as pt

    monkeypatch.setattr(pt, "_bernoulli", _never("_bernoulli"))
    code, out, err = invoke(capsys, "lvalue", "--char", "chi_kz", "--n", "3000")
    assert code == 2
    assert out == ""
    assert "MAX_L_WORK" in err


def test_match_over_index_limit_is_usage_error(capsys, monkeypatch):
    import qstrange.partialtheta as pt
    import qstrange.qfamilies as qf
    import qstrange.strangematch as sm

    monkeypatch.setattr(qf, "_horner", _never("the partial sum"))
    monkeypatch.setattr(sm, "_series_moments", _never("_series_moments"))
    monkeypatch.setattr(pt, "_bucket_sums", _never("_bucket_sums"))
    monkeypatch.setattr(pt, "_l_value", _never("_l_value"))
    code, out, err = invoke(capsys, "match", "--family", "kz", "--char", "chi_kz",
                            "--k", "2", "--j", "1", "--depth", "400")
    assert code == 2
    assert out == ""
    assert "MAX_MATCH_INDEX" in err


def _identity_check_refused(capsys, monkeypatch, *argv):
    import random

    import qstrange.cli as cli

    # cmd_identity_check imports random when it draws, so patch the module
    monkeypatch.setattr(random, "Random", _never("Random"))
    monkeypatch.setattr(cli, "extraction_identity_check",
                        _never("extraction_identity_check"))
    code, out, err = invoke(capsys, "identity-check", *argv)
    assert code == 2
    assert out == ""
    assert "MAX_IDENTITY_WORK" in err


def test_identity_check_over_work_limit_is_usage_error(capsys, monkeypatch):
    _identity_check_refused(capsys, monkeypatch, "--s", "3", "--ell", "2",
                            "--count", "100000000")


@pytest.mark.parametrize("flag, value", [
    ("--s", "0"), ("--s", "-1"), ("--ell", "-1"), ("--ell", "-3")])
def test_identity_check_bad_s_or_ell_is_refused_before_the_draw(
        capsys, monkeypatch, flag, value):
    # the work estimate was 0 or negative here, so --ell -3 drew 100
    # polynomials of degree up to 10**6 (21 s, 721 MB) before the refusal
    import random

    monkeypatch.setattr(random, "Random", _never("Random"))
    options = {"--s": "1", "--ell": "0", flag: value}
    code, out, err = invoke(capsys, "identity-check", *(
        x for pair in options.items() for x in pair), "--max-degree", "1000000")
    assert (code, out) == (2, "")
    assert err == ("error: modulus must be positive\n" if flag == "--s" else
                   "error: derivative order must be nonnegative\n")


def test_identity_check_ell_over_work_limit_is_usage_error(capsys, monkeypatch):
    # the O(ell**2) c_array work of every piece
    _identity_check_refused(capsys, monkeypatch, "--s", "1", "--ell", "200000",
                            "--count", "1", "--max-degree", "1")


def test_residues_over_span_limit_is_usage_error(capsys, monkeypatch):
    from qstrange.partialtheta import Character

    get_character("chi6")  # built, its support scanned, before the spy
    monkeypatch.setattr(Character, "support", _never("the residue scan"))
    code, out, err = invoke(capsys, "residues", "--char", "chi6",
                            "--s", "100000000000")
    assert code == 2
    assert out == ""
    assert "MAX_RESIDUE_SPAN" in err


@pytest.mark.parametrize("module, argv", [
    ("qstrange.cli", ("dissect", "--family", "kz", "--s", "200000", "--N", "1")),
    ("qstrange.dissection", ("verify", "--family", "kz", "--char", "chi_kz",
                             "--s", "200000", "--N", "1")),
])
def test_dissect_modulus_over_limit_is_usage_error(capsys, monkeypatch,
                                                   module, argv):
    import importlib

    monkeypatch.setattr(importlib.import_module(module), "partial_sum",
                        _never("partial_sum"))
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "MAX_DISSECT_MODULUS" in err


def test_verify_checks_residue_span_before_partial_sum(capsys, monkeypatch):
    import qstrange.dissection as ds

    monkeypatch.setattr(ds, "partial_sum", _never("partial_sum"))
    code, out, err = invoke(capsys, "verify", "--family", "kz", "--char",
                            "chi_kz", "--s", "99999", "--N", "1")
    assert code == 2
    assert out == ""
    assert "MAX_RESIDUE_SPAN" in err


@pytest.mark.parametrize("argv, needle", [
    (("--p", "1000000000000000003", "--depth", "10"), "at least 3 indices"),
    (("--p", "3", "--r", "100000000", "--depth", "10"), "no index is left"),
    (("--p", "3", "--r", "100000000", "--beta", "2", "--depth", "10"),
     "no index is left"),
    # the least strong pseudoprime to every base 2..41
    (("--p", "3317044064679887385961981", "--beta", "1", "--depth", "10"),
     "PRIME_TEST_LIMIT"),
])
def test_scan_parameters_are_checked_before_any_work(capsys, monkeypatch,
                                                     argv, needle):
    import qstrange.fishburn as fb

    monkeypatch.setattr(fb, "_is_prime", _never("the primality test"))
    monkeypatch.setattr(fb, "_xi_mod", _never("_xi_mod"))
    code, out, err = invoke(capsys, "scan", "--family", "kz", *argv)
    assert code == 2
    assert out == ""
    assert needle in err


def test_scan_single_class_mod_a_large_prime_answers(capsys):
    # trial division up to sqrt(p) hung here before the class was checked
    code, out, err = invoke(capsys, "scan", "--family", "kz", "--p",
                            "1000000000000000003", "--beta",
                            "1000000000000000002", "--depth", "10")
    assert (code, err) == (1, "")
    assert out == "fail: xi(1) = 1 mod 1000000000000000003\n"


# past the float64 edge at every depth the work limit admits: the one
# index, 1, is read from the partial sum at N = 1, also past the depths
# xi_coeffs admits (270 for kz)
EDGE_SCAN = ("scan", "--family", "kz", "--p", "1000000007", "--beta",
             "1000000006", "--depth")


@pytest.mark.parametrize("depth", ["270", "271", "3683"])
def test_scan_past_the_float_edge_reads_one_index(capsys, depth):
    code, obj = invoke_json(capsys, *EDGE_SCAN, depth)
    assert code == 1
    assert obj == {"command": "scan", "schema": "qstrange/1", "family": "kz",
                   "p": 1000000007, "r": 1, "beta": 1000000006,
                   "residue_class": 1, "depth": int(depth),
                   "indices_checked": 1, "verdict": "fail",
                   "status": "empirical", "witness": 1, "residue": 1}


def test_scan_past_the_float_edge_admits_the_depth_first(capsys, monkeypatch):
    import qstrange.qfamilies as qf

    monkeypatch.setattr(qf, "_partial_sum_value", _never("the partial sum"))
    code, out, err = invoke(capsys, *EDGE_SCAN, "3684")
    assert (code, out) == (2, "")
    assert "MAX_MODULAR_WORK" in err


BIG_CHARACTER = {"a": 0, "b": 1, "nu": 0, "period": 3000000,
                 "values": {"1": "1", "2999999": "-1"}}


@pytest.mark.parametrize("char, k", [("big.json", "1"), ("chi_kz", "100000")])
def test_twisted_period_over_limit_is_usage_error(capsys, monkeypatch, tmp_path,
                                                  char, k):
    import qstrange.partialtheta as pt

    (tmp_path / "big.json").write_text(json.dumps(BIG_CHARACTER))
    monkeypatch.chdir(tmp_path)
    get_character("chi_kz")  # built, its support scanned, before the spy
    monkeypatch.setattr(pt.Character, "support", _never("the support scan"))
    monkeypatch.setattr(pt, "_twist_rows", _never("_twist_rows"))
    code, out, err = invoke(capsys, "lvalue", "--char", char, "--k", k,
                            "--n", "1")
    assert code == 2
    assert out == ""
    assert "MAX_TWIST_PERIOD" in err


def _fresh_python(*args, timeout=120):
    """Run python with args in a fresh interpreter importing this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def _imported(importtime_stderr):
    return {line.rsplit("|", 1)[-1].strip()
            for line in importtime_stderr.splitlines()
            if line.startswith("import time:")}


def test_numpy_is_imported_only_by_the_modular_engine():
    code, _, err = _fresh_python("-X", "importtime", "-c", "import qstrange")
    assert code == 0
    assert "qstrange" in _imported(err) and "numpy" not in _imported(err)
    code, out, err = _fresh_python("-X", "importtime", "-m", "qstrange.cli",
                                   "lvalue", "--char", "chi_kz", "--n", "1")
    assert (code, out) == (0, "L(-1, C) = 1\n")
    assert "numpy" not in _imported(err)
    # past the float64 edge, scan --beta reads its one index exactly
    code, out, err = _fresh_python("-X", "importtime", "-m", "qstrange.cli",
                                   *EDGE_SCAN, "270")
    assert (code, out) == (1, "fail: xi(1) = 1 mod 1000000007\n")
    assert "numpy" not in _imported(err)
    code, out, err = _fresh_python("-X", "importtime", "-m", "qstrange.cli",
                                   "scan", "--family", "kz", "--p", "5",
                                   "--beta", "1", "--depth", "104")
    assert code == 0 and out.startswith("pass:")
    assert "numpy" in _imported(err)


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # -S: some installs' site modules import typing themselves
    code, _, err = _fresh_python("-S", "-X", "importtime", "-c",
                                 "import qstrange.cli")
    assert code == 0
    assert "qstrange.cli" in _imported(err)
    assert not ({"dataclasses", "inspect", "typing", "random", "threading"}
                & _imported(err))


# ---------------------------------------------------------------- console entry

def _console_env():
    # stdout stays block-buffered, as for a user, so console_main's flush
    # before its os._exit writes the output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return env


@pytest.mark.parametrize("row", contracts.readme_rows(), ids=contracts.row_id)
def test_readme_call_through_the_console_entry(row, tmp_path):
    why = contracts.check(row, tmp_path, [sys.executable, "-m", "qstrange.cli"],
                          _console_env())
    assert why is None, why


def test_usage_error_through_the_console_entry():
    argv = ["scan", "--family", "kz", "--p", "5", "--depth", "9", "extra"]
    proc = subprocess.run([sys.executable, "-m", "qstrange.cli", *argv],
                          env=_console_env(), capture_output=True, text=True,
                          timeout=120, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == _printed(run, argv)


def _stdout_closed(how, *args):
    """Exit code and stderr of python args whose stdout is a pipe with no
    reader ("pipe"), or a closed descriptor, so that sys.stdout is None
    ("fd")."""
    if how == "fd":
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", sys.executable,
                               *args], env=_console_env(),
                              capture_output=True, timeout=120, check=False)
        return proc.returncode, proc.stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *args], env=_console_env(),
                              stdout=write, stderr=subprocess.PIPE,
                              timeout=120, check=False)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("how, argv, code", [
    # the output waits in the buffer: the exit's flush fails
    ("pipe", ["carray", "--ell", "2", "--i", "1", "--s", "5"], 120),
    # more than a buffer: print fails in the handler, a usage error
    ("pipe", ["dissect", "--family", "kz", "--s", "1", "--N", "60"], 2),
    # print writes nothing, and there is nothing to flush
    ("fd", ["carray", "--ell", "2", "--i", "1", "--s", "5"], 0),
])
def test_closed_stdout_exits_as_sys_exit_does(how, argv, code):
    # sys.exit(run()) was the console entry before the hard exit
    want = _stdout_closed(how, "-c", "import sys; from qstrange.cli import "
                                     "run; sys.exit(run(sys.argv[1:]))", *argv)
    assert want[0] == code
    assert _stdout_closed(how, "-m", "qstrange.cli", *argv) == want


def test_exception_out_of_run_prints_its_traceback():
    script = """
import qstrange.cli as cli

def boom(text):
    raise RuntimeError("forced out of run")

cli.parse_family = boom
cli.console_main()
"""
    code, out, err = _fresh_python("-c", script, "fishburn", "--family", "kz",
                                   "--depth", "3")
    assert (code, out) == (1, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: forced out of run\n")


@pytest.mark.parametrize("caller, want", [(None, "1"), ("4", "4")])
def test_console_entry_runs_one_blas_thread(monkeypatch, caller, want):
    # four scans side by side took 7.8-24.1 s on 2 vCPUs with OpenBLAS's
    # default threads, against 0.6 s on one thread each; a caller's own
    # setting stays
    import qstrange.cli as cli

    # setenv first, so that the variable is restored after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller or "")
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    seen = []
    monkeypatch.setattr(cli, "run", lambda: seen.append(
        os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
    monkeypatch.setattr(os, "_exit", seen.append)
    cli.console_main()
    assert seen == [want, 0]


# each was killed by a 10 s timeout before the partial-sum work limit
OVER_PARTIAL_SUM_WORK = [
    ("fishburn", "--family", "gk:k=2", "--depth", "300"),
    ("scan", "--family", "gk:k=2", "--p", "5500003", "--beta", "5499703",
     "--depth", "300"),
    ("dissect", "--family", "kz", "--s", "3", "--N", "2000"),
    ("verify", "--family", "gk:k=3", "--char", "chi_gk:k=3", "--s", "5",
     "--N", "3000"),
]


@pytest.mark.parametrize("argv", OVER_PARTIAL_SUM_WORK,
                         ids=lambda argv: argv[0])
def test_partial_sum_over_work_limit_is_usage_error(capsys, monkeypatch, argv):
    import qstrange.qfamilies as qf

    def never(*args):
        raise AssertionError("the partial sum was computed")

    monkeypatch.setattr(qf, "_partial_sum_value", never)
    monkeypatch.setattr(qf.FamilySpec, "coefficient_polys", never)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "MAX_PARTIAL_SUM_WORK" in err


# each built a ladder of every level before the floors on a level's work:
# 10**8 column stacks at N = 0, or minutes of modular replay at depth 5
HUGE_LADDERS = [
    (("fishburn", "--family", "gk:k=100000000", "--depth", "0"),
     "MAX_PARTIAL_SUM_WORK"),
    (("dissect", "--family", "gk:k=100000000", "--s", "1", "--N", "0"),
     "MAX_PARTIAL_SUM_WORK"),
    (("scan", "--family", "gk:k=2000000", "--p", "2", "--depth", "5"),
     "MAX_MODULAR_WORK"),
    (("scan", "--family", "hikami:m=2000000,alpha=3", "--p", "2", "--depth",
      "5"), "MAX_MODULAR_WORK"),
]


@pytest.mark.parametrize("argv,limit", HUGE_LADDERS,
                         ids=["fishburn", "dissect", "scan-gk", "scan-hikami"])
def test_huge_ladders_at_small_inputs_are_refused(capsys, monkeypatch, argv,
                                                  limit):
    import qstrange._modular as engine
    import qstrange.qfamilies as qf

    monkeypatch.setattr(qf, "_weights", _never("the family's weights"))
    monkeypatch.setattr(engine, "xi_residues", _never("the modular engine"))
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and limit in err


def test_tens_of_thousands_of_ladder_levels_run_in_one_generator():
    # a generator per level overflowed the C stack here and killed the
    # interpreter with SIGSEGV
    code, out, err = _fresh_python("-m", "qstrange.cli", "fishburn",
                                   "--family", "gk:k=50000", "--depth", "0")
    assert (code, out) == (0, "[1]\n"), err


def test_oversized_probes_are_refused_without_numpy(tmp_path):
    """Each call hung before it was refused; none may reach the modular
    engine, whose import is made to fail, and each is refused at once."""
    (tmp_path / "big.json").write_text(json.dumps(BIG_CHARACTER))
    probes = [
        ["scan", "--family", "kz", "--p", "5", "--depth", "100000"],
        ["carray", "--ell", "3000000", "--i", "1", "--s", "5"],
        ["identity-check", "--s", "1", "--ell", "200000", "--count", "1",
         "--max-degree", "1"],
        ["residues", "--char", "chi6", "--s", "100000000000"],
        ["lvalue", "--char", str(tmp_path / "big.json"), "--n", "1"],
        ["dissect", "--family", "kz", "--s", "1000000", "--N", "1"],
        ["verify", "--family", "kz", "--char", "chi_kz", "--s", "200000",
         "--N", "1"],
        ["scan", "--family", "kz", "--p", "1000000000000000003",
         "--depth", "10"],
        ["scan", "--family", "kz", "--p", "3", "--r", "100000000",
         "--depth", "10"],
    ] + [list(argv) for argv in OVER_PARTIAL_SUM_WORK]
    script = f"""
import json, sys, time
sys.modules["qstrange._modular"] = None  # importing the engine now fails
from qstrange.cli import run
results = []
for argv in {probes!r}:
    t0 = time.perf_counter()
    code = run(argv)
    results.append((code, time.perf_counter() - t0))
print(json.dumps([results, "numpy" in sys.modules]))
"""
    code, out, err = _fresh_python("-c", script)
    assert code == 0, err
    results, numpy_loaded = json.loads(out)
    assert [c for c, _ in results] == [2] * len(probes), err
    assert max(t for _, t in results) < 1.0
    assert not numpy_loaded
    assert err.count("error:") == len(probes)


def test_work_guards_admit_criteria_and_bench_items(capsys):
    """Criteria 5, 8, 10, 11 and 12, the in-process perfbench items and every
    cli-cold call."""
    import importlib.util

    from qstrange.dissection import residue_set
    from qstrange.fishburn import scan_congruences, verify_congruence
    from qstrange.partialtheta import TwistedSeq, l_value, twisted_sequence
    from qstrange.qfamilies import (MAX_PARTIAL_SUM_WORK, parse_family,
                                    partial_sum_work)
    from qstrange.strangematch import match_expansion

    path = SRC.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    # root-match runs the criterion 8 grid
    for fam, char, k, j, depth in workloads._match_grid():
        match_expansion(parse_family(fam), get_character(char), k, j, depth)
    for name in ("chi_kz", "chi6", "chi_gk:k=1", "chi_gk:k=2", "chi_gk:k=3",
                 "chi_hikami:m=1,alpha=0", "chi_hikami:m=2,alpha=0",
                 "chi_hikami:m=2,alpha=1"):
        base = twisted_sequence(get_character(name), 1, 0)
        doubled = TwistedSeq(base.character, base.k, base.j, 2 * base.period)
        for n in range(7):
            l_value(doubled, n)
    # criterion 5 and the residue sets of exact-sweep's certificates
    for name, s in (("chi6", 5), ("chi_hikami:m=2,alpha=0", 3),
                    ("chi_hikami:m=2,alpha=1", 3)):
        residue_set(get_character(name), s)
    for _, char, ss in workloads.SWEEP_FAMILIES:
        for s in ss:
            residue_set(get_character(char), s)
    # exact-sweep and criteria 6 and 7 sum to N = 22 and N = 30
    for fam, _, _ in workloads.SWEEP_FAMILIES:
        assert partial_sum_work(parse_family(fam), 30) <= MAX_PARTIAL_SUM_WORK
    # modular-scan runs the criterion 11 classes and four scans
    for fam, p, r, beta, depth in workloads.CONGRUENCES:
        verify_congruence(parse_family(fam), p, r, beta, depth)
    for fam, p, r, depth in workloads.SCANS:
        scan_congruences(parse_family(fam), p, r, depth)
    # criterion 12 as one CLI battery: 100 polynomials, degree <= 24, s <= 4
    calls = [("identity-check", "--s", "4", "--ell", "3", "--count", "100",
              "--max-degree", "24")]
    calls += [tuple(call.split()) for call in workloads.CLI_CALLS]
    assert len(calls) == 17
    for argv in calls:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv


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


DEEP = "[" * 20000


@pytest.mark.parametrize("argv", [
    ("identity-check", "--s", "2", "--ell", "1", "--poly", DEEP),
    ("fishburn", "--family", '{"kernel":"F","terms":' + DEEP + "}",
     "--depth", "3"),
    ("lvalue", "--char", "deep.json", "--n", "1"),
])
def test_deeply_nested_json_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # the JSON decoder's RecursionError ended in a traceback and exit 1
    (tmp_path / "deep.json").write_text(
        '{"a":0,"b":1,"nu":0,"period":2,"values":' + DEEP + "}")
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err
