"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json

import pytest

import spans
import stats
import workloads


def span(parent, start, end, raised=None, name=0):
    return [name, parent, 0, start, end, raised]


def test_self_time_subtracts_children():
    tree = [span(-1, 0.0, 10.0), span(0, 1.0, 3.0), span(0, 4.0, 8.0),
            span(2, 5.0, 6.0)]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    tree = [span(-1, 0.0, 10.0), span(0, 2.0, 6.0), span(0, 4.0, 7.0),
            span(0, 9.0, 12.0)]
    # children cover [2, 7] and [9, 10] of the parent: 6 of its 10 seconds
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_exceptions():
    tracer = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ArithmeticError("negative")
        return x

    leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: leaf(1) + leaf(2))
    assert outer() == 3
    with pytest.raises(ArithmeticError):
        leaf(-1)
    agg = spans.aggregate(tracer.dump())
    assert agg["outer"]["calls"] == 1
    assert agg["leaf"]["calls"] == 3
    assert agg["leaf"]["raised"] == {"ArithmeticError": 1}
    parents = [s[1] for s in tracer.dump()["spans"]]
    assert parents == [-1, 0, 0, -1]


def test_merge_keeps_parent_links():
    a = {"names": ["x", "y"], "spans": [span(-1, 0, 4), span(0, 1, 2, name=1)]}
    b = {"names": ["y"], "spans": [span(-1, 5, 6)]}
    merged = spans.merge([a, b])
    assert merged["names"] == ["x", "y"]
    assert [s[:2] for s in merged["spans"]] == [[0, -1], [1, 0], [1, -1]]


def test_divisions_under_counts_only_direct_calls():
    dump = {"names": ["verify", "div"],
            "spans": [span(-1, 0, 9), span(0, 1, 2, name=1),
                      span(0, 3, 4, "NotDivisible", name=1),
                      span(-1, 10, 11, name=1)]}
    assert spans.divisions_under(dump, "div", "verify") == (2, 1)


def test_install_rebinds_by_name_imports(monkeypatch):
    import qstrange.dissection
    import qstrange.exactpoly

    original = qstrange.exactpoly.exact_div
    monkeypatch.setattr(qstrange.exactpoly, "exact_div", original)
    monkeypatch.setattr(qstrange.dissection, "exact_div", original)
    tracer = spans.Tracer()
    missing = spans.install(tracer, (
        ("exactpoly.exact_div", "qstrange.exactpoly", "exact_div"),
        ("gone", "qstrange.exactpoly", "no_such_function"),
    ))
    assert missing == ["gone"]
    assert qstrange.dissection.exact_div is qstrange.exactpoly.exact_div
    assert qstrange.dissection.exact_div is not original


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(2185) == 99.5
    for n in range(20, 3000, 7):
        assert stats.beyond(n, stats.tail_percentile(n)) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 99.5) == 100
    assert stats.beyond(100, 90.0) == 10


class Report:
    def __init__(self, verdict, payload):
        self.verdict = verdict
        self.payload = payload

    def to_json_obj(self):
        return {"verdict": self.verdict, "x": self.payload}


def _match_item():
    return workloads.Item("m", "match", (), "match")


def test_judge_counts_raised_and_changed_results():
    item = _match_item()
    good = Report("match", 1)
    expected = {"m": workloads.canonical(item, good)}
    assert workloads.judge(item, good, expected) == []
    assert workloads.judge(item, None, expected) == ["raised"]
    assert workloads.judge(item, Report("match", 2), expected) == \
        ["differs from expected"]
    assert workloads.judge(item, good, {}) == ["no expected result"]


def test_judge_counts_unexpected_verdicts_only():
    item = workloads.Item("s", "scan", ())
    fail = Report("fail", 0)
    # a "fail" that is the expected result is not a failure
    assert workloads.judge(item, fail,
                           {"s": workloads.canonical(item, fail)}) == []
    # a paired match must say "match" even if the stored result agrees
    item = _match_item()
    mismatch = Report("mismatch", 0)
    reasons = workloads.judge(item, mismatch,
                              {"m": workloads.canonical(item, mismatch)})
    assert len(reasons) == 1 and "paper" in reasons[0]


def test_judge_checks_cli_bytes_and_fishburn_prefix():
    item = workloads.Item(workloads.FISHBURN_CALL, "cli", ())
    out = json.dumps({"coeffs": [1, 1, 2, 5, 15, 53]}).encode() + b"\n"
    expected = {item.id: {"exit": 0, "stdout": out.decode()}}
    assert workloads.judge(item, (0, out, b""), expected) == []
    assert workloads.judge(item, (0, out.rstrip(), b""), expected) == \
        ["differs from expected"]
    wrong = json.dumps({"coeffs": [1, 1, 2, 5, 15, 54]}).encode() + b"\n"
    assert len(workloads.judge(item, (0, wrong, b""), expected)) == 2


def test_failure_ratio():
    assert stats.failure_ratio(0, 40) == 0.0
    assert stats.failure_ratio(3, 12) == 0.25
    assert stats.failure_ratio(0, 0) == 1.0


def test_plans_are_seeded_permutations_of_a_fixed_grid():
    for workload in workloads.WORKLOADS:
        a, b = workloads.plan(workload, 1), workloads.plan(workload, 2)
        assert sorted(i.id for i in a) == sorted(i.id for i in b)
        assert [i.id for i in a] == [i.id for i in workloads.plan(workload, 1)]
        assert set(i.id for i in a) == set(workloads.load_expected(workload))
