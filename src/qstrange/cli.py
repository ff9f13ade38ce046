"""Command line front end: one batch subcommand per library capability.

Default output is a short human-readable table; --format json switches to a
versioned machine contract ("schema": "qstrange/1") printed with sorted keys
and no whitespace, so identical invocations are byte identical.  Exit codes:
0 success or pass, 1 mathematical mismatch (EngineMismatch included) or
falsified divisibility, 2 usage error.
"""

import argparse
import json
import os
import random
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
from .exactpoly import IntPoly
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
    d = dissect(partial_sum(fam, args.N).value, args.s)
    payload = {
        "family": fam.label, "s": args.s, "N": args.N,
        "parts": [{"i": i, "poly": p.to_json_obj()}
                  for i, p in enumerate(d.parts)],
    }
    lines = [f"i={i}: {p}" for i, p in enumerate(d.parts)]
    _emit(args, payload, lines)
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
    seq = xi_coeffs(fam, args.depth)
    _emit(args, seq.to_json_obj(), [str(list(seq.coeffs))])
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
    if args.poly is not None:
        polys = [IntPoly.from_json_obj(_json_loads(args.poly, "--poly JSON"))]
        work = identity_check_work(1, polys[0].degree, args.s, args.ell)
    else:
        work = identity_check_work(args.count, args.max_degree, args.s,
                                   args.ell)
    admit("MAX_IDENTITY_WORK", work, "identity-check work")
    if args.poly is None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstrange",
        description="Exact arithmetic for strange q-series: dissections, "
                    "divisibility certificates, root-of-unity expansions, "
                    "and Fishburn-type congruences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, handler):
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "table"), default="table",
                       help="output format (default table)")
        return p

    p = add("dissect", "s-dissection of an exact partial sum", cmd_dissect)
    p.add_argument("--family", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add("verify", "divisibility certificate for one (family, s, N)",
            cmd_verify)
    p.add_argument("--family", required=True)
    p.add_argument("--char", required=True,
                   help="built-in character name or Character JSON file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = add("residues", "residue set S of a character modulo s", cmd_residues)
    p.add_argument("--char", required=True)
    p.add_argument("--s", type=int, required=True)

    p = add("match", "compare series and partial theta expansions at a root",
            cmd_match)
    p.add_argument("--family", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--depth", type=int, required=True)

    p = add("lvalue", "L(-n, C) for a twisted character sequence", cmd_lvalue)
    p.add_argument("--char", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--n", type=int, required=True)

    p = add("gamma", "partial theta expansion coefficient gamma_n", cmd_gamma)
    p.add_argument("--char", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--n", type=int, required=True)

    p = add("fishburn", "coefficients of family(1-q)", cmd_fishburn)
    p.add_argument("--family", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = add("scan", "prime-power congruence scan (or one class with --beta)",
            cmd_scan)
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--beta", type=int, default=None)
    p.add_argument("--depth", type=int, required=True)

    p = add("carray", "derivative-extraction coefficients C(ell, i, .)(s)",
            cmd_carray)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = add("identity-check", "self-check of the dissection extraction identities",
            cmd_identity_check)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--poly", default=None,
                   help='one polynomial as JSON {"coeffs": [...]}')
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=40)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
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
    sys.exit(run())


if __name__ == "__main__":
    console_main()
