"""The registry of CLI contracts, tests/data/contracts.json, through
tests/contracts.py: each row after the README's (tests/test_readme_calls.py
checks those) through cli.run in this process, and every row but the deep
ones that run the modular engine once more in one fresh process per
interpreter setting."""

import os
import subprocess
import sys

import pytest

import contracts

SRC = contracts.ROOT / "src"


@pytest.mark.parametrize("row", contracts.load()[len(contracts.readme_calls()):],
                         ids=contracts.row_id)
def test_contract_holds(row, tmp_path):
    why = contracts.check(row, tmp_path)
    assert why is None, why


def test_contracts_hold_while_memos_evict(monkeypatch, tmp_path):
    # results must not depend on what the memos keep: every row without a
    # timeout, in one process and in registry order, under a budget so
    # low that rows evict what earlier rows stored, and what they stored
    # themselves, keeps its exit code, stdout and error line
    from qstrange import _memo

    monkeypatch.setattr(_memo, "BUDGET", 1 << 12)
    evictions = []
    for i, row in enumerate(contracts.load()):
        if "timeout" in row:
            continue
        before = sum(memo.stats[2] for memo in _memo.MEMOS.values())
        held = sum(map(len, (memo.entries for memo in _memo.MEMOS.values())))
        (tmp_path / str(i)).mkdir()
        why = contracts.check(row, tmp_path / str(i))
        assert why is None, (contracts.row_id(row), why)
        after = sum(memo.stats[2] for memo in _memo.MEMOS.values())
        evictions.append((after - before, held))
    assert any(0 < n <= held for n, held in evictions)  # earlier rows' entries
    assert any(n > held for n, held in evictions)  # its own entries too


# exit codes and stdout must not depend on the hash seed, on the limit of
# int-string conversion (640 is the least it may be set to, 0 lifts it) or
# on whether asserts run
SETTINGS = {
    "PYTHONHASHSEED=1": ([], {"PYTHONHASHSEED": "1"}),
    "PYTHONINTMAXSTRDIGITS=640": ([], {"PYTHONINTMAXSTRDIGITS": "640"}),
    "PYTHONINTMAXSTRDIGITS=0": ([], {"PYTHONINTMAXSTRDIGITS": "0"}),
    "python -O": (["-O"], {}),
}


def test_contracts_hold_under_interpreter_settings():
    # the processes run side by side; each checks every row but the deep
    # scans in process, so later rows also read the memos that earlier ones
    # filled.  The deep scans are left out because their block products
    # slow each other down many times over when run side by side
    procs = {}
    for name, (flags, extra) in SETTINGS.items():
        env = {**os.environ, "PYTHONPATH": str(SRC), **extra}
        procs[name] = subprocess.Popen(
            [sys.executable, *flags, contracts.__file__, "--shallow"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
    failed = {}
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        if proc.returncode:
            failed[name] = out
    assert not failed, failed
