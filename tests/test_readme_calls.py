"""Golden check of the README's CLI block.

Every `qstrange ...` line in the README's first ```sh block after the
"## CLI" heading runs through cli.run, once as written (table output) and
once with --format json.  Exit code, stdout and stderr must match
tests/data/readme_calls.json byte for byte, so any change to what a
documented call prints fails here.

Regenerate the data only for a deliberate output change:

    PYTHONPATH=src python tests/test_readme_calls.py --capture
"""

import contextlib
import io
import json
import pathlib
import shlex
import sys

import pytest

from qstrange.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "readme_calls.json"


def readme_calls() -> list:
    """argv lists (without the program name) from the README's CLI block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("## CLI")
    opening = next(i for i in range(start, len(lines))
                   if lines[i].startswith("```sh"))
    closing = next(i for i in range(opening + 1, len(lines))
                   if lines[i].startswith("```"))
    return [shlex.split(line)[1:] for line in lines[opening + 1:closing]
            if line.startswith("qstrange ")]


def all_calls() -> list:
    return [argv + extra for argv in readme_calls()
            for extra in ([], ["--format", "json"])]


def call(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_readme_block_has_eleven_calls():
    assert len(readme_calls()) == 11


def test_golden_file_lists_the_readme_calls():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == all_calls()


@pytest.mark.parametrize("argv", all_calls(), ids=" ".join)
def test_readme_call_matches_golden(argv):
    golden = {tuple(g["argv"]): g
              for g in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    assert call(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_readme_calls.py --capture")
    GOLDEN.write_text(json.dumps([call(a) for a in all_calls()], indent=1)
                      + "\n", encoding="utf-8")
