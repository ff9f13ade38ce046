"""The four workloads: item grids, seeded order, execution and result checks.

Every workload is a fixed grid of items.  The seed only orders the grid, so
each run does the same work and any seed can be checked against the
expected results, which are keyed by item id.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

WORKLOADS = ("exact-sweep", "root-match", "modular-scan", "cli-cold")

# exact-sweep: the criterion 6/7 certificate sweep over odd s, cut at N = 22
# so that one repetition takes about two seconds.
SWEEP_FAMILIES = (
    ("kz", "chi_kz", (1, 3, 5, 7)),
    ("gk:k=1", "chi_gk:k=1", (1, 3, 5, 7, 9)),
    ("gk:k=2", "chi_gk:k=2", (1, 3, 5, 7, 9)),
    ("gk:k=3", "chi_gk:k=3", (1, 3, 5, 7, 9)),
)
SWEEP_MAX_N = 22


def _match_grid():
    """The 55 family/character pairings and roots of criterion 8."""
    cases = [("kz", "chi_kz", k, j, 4) for k in (1, 2, 3, 4, 6)
             for j in range(k)]
    cases += [(f"gk:k={k}", f"chi_gk:k={k}", order, j, 3)
              for k in (1, 2, 3) for order in (1, 3, 5) for j in range(order)]
    cases += [(f"hikami:m={m},alpha={a}", f"chi_hikami:m={m},alpha={a}",
               order, j, 2)
              for m in (1, 2) for a in range(m) for order in (1, 3)
              for j in range(order)]
    return cases


# modular-scan: the criterion 11 congruence classes, then full scans.
CONGRUENCES = (
    ("kz", 5, 1, 1, 200), ("kz", 5, 1, 2, 200), ("kz", 7, 1, 1, 200),
    ("gk:k=1", 5, 2, 1, 100), ("gk:k=1", 7, 2, 1, 196),
    ("gk:k=1", 13, 1, 1, 676), ("gk:k=1", 13, 1, 2, 676),
    ("gk:k=1", 13, 1, 3, 676), ("gk:k=1", 13, 1, 4, 676),
    ("gk:k=2", 7, 1, 1, 300), ("gk:k=2", 11, 1, 1, 300),
)
SCANS = (
    ("kz", 5, 1, 104), ("kz", 7, 1, 104),
    ("gk:k=1", 13, 1, 676), ("hikami:m=2,alpha=1", 5, 1, 100),
)

FISHBURN_CALL = "fishburn --family kz --depth 5"
FISHBURN_PREFIX = [1, 1, 2, 5, 15, 53]

# cli-cold: the README's subcommands plus a few variants of the same size.
CLI_CALLS = (
    "dissect --family gk:k=1 --s 5 --N 8",
    "verify --family gk:k=1 --char chi6 --s 5 --N 8",
    "residues --char chi6 --s 5",
    "match --family kz --char chi_kz --k 2 --j 1 --depth 4",
    "lvalue --char chi_kz --n 1",
    "gamma --char chi_kz --k 2 --j 1 --n 1",
    FISHBURN_CALL,
    "scan --family gk:k=1 --p 13 --depth 676",
    "scan --family kz --p 5 --beta 1 --depth 104",
    "carray --ell 2 --i 1 --s 5",
    "identity-check --s 3 --ell 2 --count 100 --seed 7",
    "dissect --family gk:k=2 --s 3 --N 6",
    "verify --family kz --char chi_kz --s 3 --N 10",
    "match --family gk:k=1 --char chi_gk:k=1 --k 3 --j 1 --depth 3",
    "lvalue --char chi6 --n 3",
    "gamma --char chi_gk:k=2 --k 3 --j 2 --n 2",
)


class Item:
    """One unit of work: an id, what to call, and the paper-known verdict."""

    def __init__(self, item_id, kind, args, verdict=None):
        self.id = item_id
        self.kind = kind
        self.args = args
        self.verdict = verdict


def plan(workload, seed):
    """The workload's items in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "exact-sweep":
        families = list(SWEEP_FAMILIES)
        rng.shuffle(families)
        # ascending s, then ascending N, so session caches grow as in a sweep
        return [Item(f"{fam}|{char}|s={s}|N={n}", "verify", (fam, char, s, n))
                for fam, char, ss in families for s in ss
                for n in range(SWEEP_MAX_N + 1)]
    if workload == "root-match":
        items = [Item(f"{fam}|{char}|k={k}|j={j}|depth={d}", "match",
                      (fam, char, k, j, d), "match")
                 for fam, char, k, j, d in _match_grid()]
    elif workload == "modular-scan":
        items = [Item(f"congruence|{fam}|p={p}|r={r}|beta={b}|depth={d}",
                      "congruence", (fam, p, r, b, d), "pass")
                 for fam, p, r, b, d in CONGRUENCES]
        items += [Item(f"scan|{fam}|p={p}|r={r}|depth={d}", "scan",
                       (fam, p, r, d))
                  for fam, p, r, d in SCANS]
    elif workload == "cli-cold":
        items = [Item(call, "cli", tuple(call.split()) + ("--format", "json"))
                 for call in CLI_CALLS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def child_env(root):
    """Environment for every interpreter the benchmark starts.

    QSTRANGE_THREADS is dropped so no thread pool is used, and bytecode
    writing is allowed so that compiled modules stay warm between calls.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("QSTRANGE_THREADS", "PYTHONDONTWRITEBYTECODE",
                        "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cli_command(args, traced):
    """argv for one CLI call in a fresh interpreter."""
    if traced:
        probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "cli_probe.py")
        return [sys.executable, probe] + list(args)
    return [sys.executable, "-m", "qstrange.cli"] + list(args)


def execute(item, env=None, traced=False):
    """Run one item and return its raw result.

    In-process items return the library's report object; CLI items return
    (exit code, stdout bytes, stderr bytes) of a fresh interpreter.
    """
    if item.kind == "cli":
        proc = subprocess.run(cli_command(item.args, traced), env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              check=False)
        return proc.returncode, proc.stdout, proc.stderr
    import qstrange as q

    if item.kind == "verify":
        fam, char, s, n = item.args
        return q.verify_theorem(q.parse_family(fam), q.get_character(char),
                                s, n)
    if item.kind == "match":
        fam, char, k, j, depth = item.args
        return q.match_expansion(q.parse_family(fam), q.get_character(char),
                                 k, j, depth)
    if item.kind == "congruence":
        fam, p, r, beta, depth = item.args
        return q.verify_congruence(q.parse_family(fam), p, r, beta, depth)
    if item.kind == "scan":
        fam, p, r, depth = item.args
        return q.scan_congruences(q.parse_family(fam), p, r, depth)
    raise ValueError(f"unknown item kind {item.kind!r}")


def canonical(item, result):
    """What is compared against the expected results.

    Reports become the SHA-256 of their canonical JSON; a CLI call keeps its
    exit code and exact stdout.
    """
    if item.kind == "cli":
        code, out, _ = result
        return {"exit": code, "stdout": out.decode("utf-8", "replace")}
    text = json.dumps(result.to_json_obj(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(item, result, expected):
    """Reasons the item failed; empty when the result is as expected.

    result is None when the call raised.  A mathematical "fail",
    "not-claimed" or "mismatch" verdict is a failure only when it differs
    from the expected result or from the verdict the paper states.
    """
    if result is None:
        return ["raised"]
    reasons = []
    if item.id not in expected:
        reasons.append("no expected result")
    elif canonical(item, result) != expected[item.id]:
        reasons.append("differs from expected")
    if item.verdict is not None and result.verdict != item.verdict:
        reasons.append(f"verdict {result.verdict!r}, paper says "
                       f"{item.verdict!r}")
    if item.id == FISHBURN_CALL:
        try:
            coeffs = json.loads(result[1])["coeffs"]
        except (ValueError, KeyError):
            coeffs = None
        if coeffs != FISHBURN_PREFIX:
            reasons.append(f"Fishburn prefix {coeffs}")
    return reasons


def poly_sizes(item, result):
    """(largest degree, largest coefficient bit length) of the polynomials in
    a result; (0, 0) when it holds none."""
    degree = bits = 0
    if item.kind == "verify":
        for row in result.rows:
            if row.quotient is not None and row.quotient.coeffs:
                degree = max(degree, row.quotient.degree)
                bits = max(bits, max(abs(c) for c in
                                     row.quotient.coeffs).bit_length())
    return degree, bits


def load_expected(workload):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["results"][workload]
