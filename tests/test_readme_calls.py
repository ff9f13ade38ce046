"""The README's CLI block against the registry of CLI contracts.

Every `qstrange ...` line in the README's first ```sh block after the
"## CLI" heading is a row of tests/data/contracts.json, once as written
(table output) and once with --format json, in the block's order, as its
first rows.  Each runs through cli.run, and exit code, stdout and stderr
must keep their rows byte for byte, so any change to what a documented
call prints fails here.

After a deliberate change to what a documented call prints, capture the
README rows afresh; the runner touches no other row, and no digest is
ever re-captured:

    PYTHONPATH=src python tests/contracts.py --capture-readme
"""

import pytest

import contracts


def test_readme_block_has_eleven_calls():
    # each as written and with --format json
    assert len(contracts.readme_calls()) == 2 * 11


def test_golden_file_lists_the_readme_calls():
    assert [row["argv"] for row in contracts.readme_rows()] \
        == contracts.readme_calls()


@pytest.mark.parametrize("row", contracts.readme_rows(), ids=contracts.row_id)
def test_readme_call_matches_golden(row, tmp_path):
    why = contracts.check(row, tmp_path)
    assert why is None, why
