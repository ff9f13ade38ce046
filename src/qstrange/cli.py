"""Command line front end: one batch subcommand per library capability.

Default output is a short human-readable table; --format json switches to a
versioned machine contract ("schema": "qstrange/1") printed with sorted keys
and no whitespace, so identical invocations are byte identical.  Exit codes:
0 success or pass, 1 mathematical mismatch (EngineMismatch included) or
falsified divisibility, 2 usage error.

A call builds the parser of its own subcommand only.  The console entry
(console_main) ends the process without interpreter teardown once its
output is flushed, so it runs no atexit handlers; run() returns the exit
code and is unchanged for callers in process.
"""

import argparse
import json
import os
import sys

from ._admit import InvalidParam, admit
from ._admit import MAX_IDENTITY_WORK  # re-exported
from .dissection import (
    DivisibilityFalsified,
    check_modulus,
    dissect,
    residue_set,
    verify_theorem,
)
from .exactpoly import IntPoly, _parse_number, _quoted
from .fishburn import (EngineMismatch, scan_congruences, verify_congruence,
                       xi_coeffs)
from .partialtheta import (
    character_from_json_obj,
    gamma_coeff,
    get_character,
    l_value,
    twisted_sequence,
)
from .qfamilies import ParseError, _json_loads, parse_family, partial_sum
from .strangematch import (
    c_array,
    extraction_identity_check,
    match_expansion,
)

SCHEMA = "qstrange/1"


def _load_character(text: str):
    """Built-in character name, or else a path to a Character JSON file.

    Built-in names are tried first, so a file that happens to carry a
    built-in name (say ./chi6) cannot shadow that character.
    """
    try:
        return get_character(text)
    except ParseError:
        if not os.path.exists(text):
            raise
    with open(text, "r", encoding="utf-8") as fh:
        obj = _json_loads(fh.read(), f"character file {text}")
    return character_from_json_obj(obj)


def _cyclo_json(x) -> dict:
    return {"conductor": x.k, "coeffs": [str(c) for c in x.rep.coeffs]}


def _cyclo_text(x) -> str:
    return str(x.as_fraction()) if x.is_rational() else str(x)


def _emit(args, payload: dict, lines: list):
    if args.format == "json":
        obj = {"schema": SCHEMA, "command": args.command}
        obj.update(payload)
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def cmd_dissect(args) -> int:
    fam = parse_family(args.family)
    check_modulus(args.s)  # before the partial sum is built
    parts = dissect(partial_sum(fam, args.N), args.s)
    payload = {"family": fam.label, "s": args.s, "N": args.N,
               "parts": [{"i": i, "poly": p.to_json_obj()}
                         for i, p in enumerate(parts)]}
    _emit(args, payload, [f"i={i}: {p}" for i, p in enumerate(parts)])
    return 0


def cmd_verify(args) -> int:
    fam = parse_family(args.family)
    char = _load_character(args.char)
    rep = verify_theorem(fam, char, args.s, args.N)
    lines = [f"family {rep.family_label}, s={rep.s}, N={rep.upper}, "
             f"S={{{', '.join(map(str, sorted(rep.residues)))}}}"]
    for row in rep.rows:
        tag = "divides " + row.divisor_name if row.verdict == "divides" \
            else row.verdict
        lines.append(f"i={row.i}: {tag}")
    _emit(args, rep.to_json_obj(), lines)
    return 0


def cmd_residues(args) -> int:
    char = _load_character(args.char)
    rs = sorted(residue_set(char, args.s))
    payload = {"character": char.label or "custom", "s": args.s,
               "residues": rs}
    _emit(args, payload, [f"S = {{{', '.join(map(str, rs))}}}"])
    return 0


def cmd_match(args) -> int:
    fam = parse_family(args.family)
    char = _load_character(args.char)
    rep = match_expansion(fam, char, args.k, args.j, args.depth)
    if rep.verdict == "match":
        line = (f"match: {rep.family_label} ~ {rep.character_label} at "
                f"k={rep.k}, j={rep.j} through order {rep.checked_through}")
    else:
        line = (f"mismatch: {rep.family_label} vs {rep.character_label} at "
                f"k={rep.k}, j={rep.j}, first failure at order "
                f"{rep.first_mismatch}")
    _emit(args, rep.to_json_obj(), [line])
    return 0 if rep.verdict == "match" else 1


def cmd_lvalue(args) -> int:
    char = _load_character(args.char)
    seq = twisted_sequence(char, args.k, args.j)
    val = l_value(seq, args.n)
    payload = {"character": char.label or "custom", "k": args.k,
               "j": args.j % args.k, "n": args.n, "value": _cyclo_json(val)}
    _emit(args, payload, [f"L(-{args.n}, C) = {_cyclo_text(val)}"])
    return 0


def cmd_gamma(args) -> int:
    char = _load_character(args.char)
    val = gamma_coeff(char, args.k, args.j, args.n)
    payload = {"character": char.label or "custom", "k": args.k,
               "j": args.j % args.k, "n": args.n, "value": _cyclo_json(val)}
    _emit(args, payload, [f"gamma_{args.n} = {_cyclo_text(val)}"])
    return 0


def cmd_fishburn(args) -> int:
    fam = parse_family(args.family)
    coeffs = list(xi_coeffs(fam, args.depth))
    payload = {"family": fam.label, "depth": args.depth, "coeffs": coeffs}
    _emit(args, payload, [str(coeffs)])
    return 0


def cmd_scan(args) -> int:
    fam = parse_family(args.family)
    if args.beta is not None:
        rep = verify_congruence(fam, args.p, args.r, args.beta, args.depth)
        mod = args.p ** args.r
        if rep.verdict == "pass":
            line = (f"pass: xi({mod}n-{rep.beta}) == 0 mod {mod} for all "
                    f"{rep.indices_checked} indices through {rep.depth} "
                    f"(empirical)")
        else:
            line = (f"fail: xi({rep.witness}) = {rep.residue} mod {mod}")
        _emit(args, rep.to_json_obj(), [line])
        return 0 if rep.verdict == "pass" else 1
    rep = scan_congruences(fam, args.p, args.r, args.depth)
    beta_txt = ", ".join(map(str, rep.passing_beta)) or "none"
    line = (f"passing beta mod {args.p ** args.r}: {beta_txt} "
            f"(empirical at depth {rep.depth})")
    _emit(args, rep.to_json_obj(), [line])
    return 0


def cmd_carray(args) -> int:
    row = c_array(args.ell, args.i, args.s)
    payload = {"ell": args.ell, "i": args.i, "s": args.s, "coeffs": row}
    _emit(args, payload, [f"C(ell={args.ell}, i={args.i}, s={args.s}) = {row}"])
    return 0


def identity_check_work(count: int, max_degree: int, s: int, ell: int) -> int:
    """Work estimate for identity-check: for each of the s pieces of every
    polynomial, the root-of-unity filter makes s cyclotomic steps per
    coefficient, c_array about (ell+1)**2 steps, and the derivative ladder
    ell+1 passes over the coefficients."""
    return count * s * ((max_degree + 1) * s + (ell + 1) * (ell + max_degree + 2))


def cmd_identity_check(args) -> int:
    if args.count < 1:
        raise InvalidParam(f"--count must be positive, got {args.count}")
    if args.max_degree < 0:
        raise InvalidParam(f"--max-degree must be nonnegative, got {args.max_degree}")
    # extraction_identity_check refuses these too, but only after the
    # draw: identity_check_work is 0 or negative for them, so admits any size
    if args.s < 1:
        raise InvalidParam("modulus must be positive")
    if args.ell < 0:
        raise InvalidParam("derivative order must be nonnegative")
    if args.poly is not None:
        try:
            obj = _json_loads(args.poly, "--poly JSON")
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad --poly JSON: {exc}") from None
        try:
            polys = [IntPoly.from_json_obj(obj)]
        except ValueError as exc:
            raise ParseError(f"bad --poly polynomial: {exc}") from None
        work = identity_check_work(1, polys[0].degree, args.s, args.ell)
    else:
        work = identity_check_work(args.count, args.max_degree, args.s,
                                   args.ell)
    admit("MAX_IDENTITY_WORK", work, "identity-check work")
    if args.poly is None:
        import random  # only this subcommand draws random polynomials

        rng = random.Random(args.seed)
        polys = [IntPoly(tuple(rng.randint(-9, 9)
                               for _ in range(rng.randint(0, args.max_degree))))
                 for _ in range(args.count)]
    ok = all(extraction_identity_check(p, args.s, args.ell) for p in polys)
    payload = {"s": args.s, "ell": args.ell, "checked": len(polys), "ok": ok}
    word = "ok" if ok else "FAILED"
    _emit(args, payload,
          [f"{word}: checked {len(polys)} polynomials (s={args.s}, ell={args.ell})"])
    return 0 if ok else 1


def _integer(text: str) -> int:
    """An option's integer, in exactpoly's grammar (int() takes "1_0")."""
    try:
        return _parse_number(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")


_REQ_STR = {"required": True}
_REQ_INT = {"type": _integer, "required": True}


def _opt_int(default):
    return {"type": _integer, "default": default}


# One row per subcommand: its name, help text, handler, and the options it
# takes after --format, each flag with its add_argument keywords.
COMMANDS = (
    ("dissect", "s-dissection of an exact partial sum", cmd_dissect,
     {"--family": _REQ_STR, "--s": _REQ_INT, "--N": _REQ_INT}),
    ("verify", "divisibility certificate for one (family, s, N)", cmd_verify,
     {"--family": _REQ_STR,
      "--char": {"required": True,
                 "help": "built-in character name or Character JSON file"},
      "--s": _REQ_INT, "--N": _REQ_INT}),
    ("residues", "residue set S of a character modulo s", cmd_residues,
     {"--char": _REQ_STR, "--s": _REQ_INT}),
    ("match", "compare series and partial theta expansions at a root",
     cmd_match,
     {"--family": _REQ_STR, "--char": _REQ_STR, "--k": _REQ_INT,
      "--j": _opt_int(0), "--depth": _REQ_INT}),
    ("lvalue", "L(-n, C) for a twisted character sequence", cmd_lvalue,
     {"--char": _REQ_STR, "--k": _opt_int(1), "--j": _opt_int(0),
      "--n": _REQ_INT}),
    ("gamma", "partial theta expansion coefficient gamma_n", cmd_gamma,
     {"--char": _REQ_STR, "--k": _opt_int(1), "--j": _opt_int(0),
      "--n": _REQ_INT}),
    ("fishburn", "coefficients of family(1-q)", cmd_fishburn,
     {"--family": _REQ_STR, "--depth": _REQ_INT}),
    ("scan", "prime-power congruence scan (or one class with --beta)",
     cmd_scan,
     {"--family": _REQ_STR, "--p": _REQ_INT, "--r": _opt_int(1),
      "--beta": _opt_int(None), "--depth": _REQ_INT}),
    ("carray", "derivative-extraction coefficients C(ell, i, .)(s)",
     cmd_carray, {"--ell": _REQ_INT, "--i": _REQ_INT, "--s": _REQ_INT}),
    ("identity-check", "self-check of the dissection extraction identities",
     cmd_identity_check,
     {"--s": _REQ_INT, "--ell": _REQ_INT,
      "--poly": {"default": None,
                 "help": 'one polynomial as JSON {"coeffs": [...]}'},
      "--count": _opt_int(100), "--seed": _opt_int(0),
      "--max-degree": _opt_int(40)}),
)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose invalid-choice and unrecognized-arguments
    errors shorten an input over 60 characters with exactpoly._quoted (the
    usage line lists the choices); shorter inputs keep argparse's lines."""

    def _check_value(self, action, value):
        if len(str(value)) > 60 and value not in (action.choices or (value,)):
            raise argparse.ArgumentError(action, f"invalid choice: {_quoted(value)}")
        super()._check_value(action, value)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(
                arg if len(arg) <= 60 else _quoted(arg) for arg in extra))
        return args


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of command alone when it names
    one: a call parses its argv with build_parser(argv[0]) and so builds
    one subparser, not ten.  Parsing gives the same result, output and exit
    code either way, usage errors and help included."""
    parser = _Parser(
        prog="qstrange",
        description="Exact arithmetic for strange q-series: dissections, "
                    "divisibility certificates, root-of-unity expansions, "
                    "and Fishburn-type congruences.")
    rows = [row for row in COMMANDS if row[0] == command] or COMMANDS
    # unrecognized arguments print the top-level usage, which lists every
    # subcommand; the full parser keeps the default, because a metavar
    # would also rename the command in its "required" and "invalid choice"
    # errors
    metavar = ("{" + ",".join(row[0] for row in COMMANDS) + "}"
               if len(rows) == 1 else None)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name, text, handler, options in rows:
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "table"),
                       default="table", help="output format (default table)")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    """One CLI call on argv (default sys.argv[1:]); returns its exit code
    and never ends the process.

    The call runs with the interpreter's limit on int-string conversion
    (CPython 3.10.7+ and 3.11+) lifted, so that its exit code and output
    do not depend on that setting: every guard bounds the integers its
    request prints, and exactpoly's number grammar bounds those read.  The
    caller's limit is restored on return.  The limit is the process's, so
    calls from several threads at once would share one setting: make one
    call at a time."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _run(argv)
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(old)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except DivisibilityFalsified as exc:
        _emit(args, {"verdict": "falsified", "detail": str(exc)},
              [f"FALSIFIED: {exc}"])
        return 1
    # ParseError, InvalidParam, CharacterInvalid, OddModulusRequired,
    # OddOrderRequired and json.JSONDecodeError all subclass ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    """The `qstrange` script and `python -m qstrange.cli`: run() on
    sys.argv, then, once stdout and stderr are flushed, os._exit with its
    code.  That skips the interpreter's teardown, which only frees memory
    the process is about to give back, and runs no atexit handlers (the
    package registers none).  A flush that raises OSError, say into a
    closed pipe, leaves the exit to sys.exit, whose teardown reports it and
    exits 120; an exception that escapes run() prints its traceback and
    exits 1.  It sets OPENBLAS_NUM_THREADS=1 before numpy is imported,
    unless the caller set it: more threads do not speed one call up, and
    calls that share the CPUs slow each other down many times over."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
