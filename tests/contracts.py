"""The registry of CLI contracts, tests/data/contracts.json, and its runner.

Each row pins one CLI call:

- "argv": the arguments after the program name;
- "files": input files the call reads, by name, written into the empty
  directory it runs in (optional);
- "code": the exit code;
- "stdout": the stdout, or "sha256": the SHA-256 of a large one;
- "stderr": the error line a refusal prints, last (argparse prints its
  usage lines first); a row without it prints nothing to stderr;
- "timeout": seconds a deep call may take (optional);
- "numpy": true when the call runs the modular engine (optional);
- "note": why the row is there (optional).

The rows are checked in process through cli.run, by tier-1
(tests/test_contracts.py, tests/test_readme_calls.py), or each in a fresh
process through a command, such as the installed console script:

    PYTHONPATH=src python tests/contracts.py
    python tests/contracts.py --command qstrange
    PYTHONPATH=$PWD/src python tests/contracts.py --without-numpy \\
        --command "python -m qstrange.cli"

Rows are never re-captured, with one exception: the calls of the README's
CLI block, which are the first rows, are captured afresh from the README
after a deliberate change to what a documented call prints:

    PYTHONPATH=src python tests/contracts.py --capture-readme
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
REGISTRY = ROOT / "tests" / "data" / "contracts.json"
# a row without a timeout that hangs in a fresh process fails after this
DEFAULT_TIMEOUT = 120


def load() -> list:
    return json.loads(REGISTRY.read_text(encoding="utf-8"))


def row_id(row: dict) -> str:
    """The call as one line, with an argument of 100 characters or more
    shortened."""
    return " ".join(arg if len(arg) < 100 else f"{arg[:4]}...({len(arg)} chars)"
                    for arg in row["argv"])


def readme_calls() -> list:
    """Each `qstrange ...` line of the README's first ```sh block after
    "## CLI", as argv without the program name, once as written (table
    output) and once with --format json."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("## CLI")
    opening = next(i for i in range(start, len(lines))
                   if lines[i].startswith("```sh"))
    closing = next(i for i in range(opening + 1, len(lines))
                   if lines[i].startswith("```"))
    return [shlex.split(line)[1:] + extra
            for line in lines[opening + 1:closing]
            if line.startswith("qstrange ")
            for extra in ([], ["--format", "json"])]


def readme_rows() -> list:
    """The first rows, which hold the README's calls in order."""
    return load()[:len(readme_calls())]


def broken(row: dict, code: int, out: bytes, err: bytes):
    """What of its contract the outcome (code, stdout, stderr) of row's
    call breaks, or None when it keeps all of it."""
    if code != row["code"]:
        return f"exit {code}, not {row['code']}: {err.decode()[-500:]}"
    if "sha256" in row:
        if hashlib.sha256(out).hexdigest() != row["sha256"]:
            return "stdout differs from its SHA-256"
    elif out != row["stdout"].encode():
        return f"stdout differs: {out.decode()[:500]!r}"
    lines = err.decode().splitlines(keepends=True)
    want = [row["stderr"] + "\n"] if "stderr" in row else []
    if lines[-1:] != want or any(not line.startswith(("usage:", " "))
                                 for line in lines[:-1]):
        return f"stderr {err.decode()[-500:]!r}, not {row.get('stderr', '')!r}"
    return None


@contextlib.contextmanager
def _deadline(seconds):
    """TimeoutError in the main thread once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    if seconds is None:
        yield
        return
    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def _write_files(row: dict, where: pathlib.Path) -> None:
    for name, text in row.get("files", {}).items():
        (where / name).write_text(text, encoding="utf-8")


def call_in_process(row: dict, where: pathlib.Path):
    """(code, stdout, stderr) of row's call through cli.run in this
    process, run in the directory where."""
    from qstrange.cli import run

    _write_files(row, where)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with _deadline(row.get("timeout")), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(row["argv"]))
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue().encode()


def call_command(row: dict, command: list, where: pathlib.Path, env=None):
    """(code, stdout, stderr) of row's call as command + argv in a fresh
    process, run in the directory where."""
    _write_files(row, where)
    proc = subprocess.run([*command, *row["argv"]], cwd=where, env=env,
                          capture_output=True, check=False,
                          timeout=row.get("timeout", DEFAULT_TIMEOUT))
    return proc.returncode, proc.stdout, proc.stderr


def check(row: dict, where: pathlib.Path, command=None, env=None):
    """The broken part of row's contract, or None, in process or, given a
    command, in a fresh process; a call past its timeout breaks it."""
    try:
        if command is None:
            outcome = call_in_process(row, where)
        else:
            outcome = call_command(row, command, where, env)
    except (TimeoutError, subprocess.TimeoutExpired):
        return f"ran past {row.get('timeout', DEFAULT_TIMEOUT)} s"
    return broken(row, *outcome)


def capture_readme() -> None:
    """Replace the README rows by the README's calls as they run now; a
    row keeps its timeout, numpy mark and note (a new call that runs the
    modular engine needs its mark by hand)."""
    old = {tuple(row["argv"]): row for row in load()}
    rows = []
    for argv in readme_calls():
        with tempfile.TemporaryDirectory() as where:
            code, out, err = call_in_process({"argv": argv},
                                             pathlib.Path(where))
        row = {"argv": argv, "code": code, "stdout": out.decode()}
        if err:
            row["stderr"] = err.decode().rstrip("\n")
        row.update((key, value) for key, value in old.get(tuple(argv), {}).items()
                   if key in ("timeout", "numpy", "note"))
        rows.append(row)
    documented = [row["argv"] for row in rows]
    rows += [row for row in load() if row["argv"] not in documented]
    REGISTRY.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n",
                        encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check every row of tests/data/contracts.json.")
    parser.add_argument(
        "--command", type=shlex.split,
        help="run each call as COMMAND ARGV... in a fresh process "
             "(default: through cli.run in this one)")
    parser.add_argument(
        "--without-numpy", action="store_true",
        help="require that numpy cannot be imported, and skip the rows "
             "that run the modular engine")
    parser.add_argument(
        "--shallow", action="store_true",
        help="skip the deep rows (which have a timeout) that run the "
             "modular engine")
    parser.add_argument(
        "--capture-readme", action="store_true",
        help="capture the README rows afresh; no other row is touched")
    args = parser.parse_args(argv)
    if args.capture_readme:
        capture_readme()
        return 0
    if args.without_numpy:
        import importlib.util

        if importlib.util.find_spec("numpy") is not None:
            sys.exit("numpy is installed")
    rows = [row for row in load()
            if not (args.without_numpy and row.get("numpy"))
            and not (args.shallow and "timeout" in row and row.get("numpy"))]
    failed = 0
    for row in rows:
        with tempfile.TemporaryDirectory() as where:
            why = check(row, pathlib.Path(where), args.command)
        failed += why is not None
        print("ok:" if why is None else f"FAILED ({why}):", "qstrange",
              row_id(row), flush=True)
    print(f"{len(rows) - failed} of {len(rows)} contracts kept")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
