import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc

import pytest

import qstrange._modular as engine
from qstrange.fishburn import (
    PRIME_TEST_LIMIT,
    CongruenceReport,
    EngineMismatch,
    ScanReport,
    _is_prime,
    _xi_mod,
    scan_congruences,
    verify_congruence,
    xi_coeffs,
)
from qstrange.qfamilies import InvalidParam, parse_family, partial_sum

from helpers import (BOUNDARIES, GUARDS, _never, check_boundary,
                     deepest_admitted, is_prime_def, memo_entries, subst_def)

KZ = parse_family("kz")
GK1 = parse_family("gk:k=1")
GK2 = parse_family("gk:k=2")

INLINE_F = parse_family(json.dumps(
    {"kernel": "F", "terms": [{"coeffs": ["1"]}, {"coeffs": ["0", "2"]},
                              {"coeffs": ["-1", "0", "1"]}]}))
INLINE_G = parse_family(json.dumps(
    {"kernel": "G", "terms": [{"coeffs": ["2"]}, {"coeffs": ["1", "-1"]}]}))
# test_admit's inline G family, one of whose terms is wider than a word
WIDE_G = parse_family(json.dumps(
    {"kernel": "G", "terms": [
        {"coeffs": ["2"]}, {"coeffs": ["1", "-1"]},
        {"coeffs": ["0", "0", "0", "-98765432109876543210987654321"]}]}))


class TestXiCoeffs:
    def test_fishburn_numbers(self):
        assert list(xi_coeffs(KZ, 5)) == [1, 1, 2, 5, 15, 53]

    def test_gk_prefixes(self):
        assert list(xi_coeffs(GK1, 5)) == [1, 1, 2, 6, 25, 135]
        assert list(xi_coeffs(GK2, 5)) == [1, 2, 6, 28, 189, 1680]

    def test_against_direct_substitution(self):
        for fam, depth in ((KZ, 12), (GK1, 10), (INLINE_F, 8)):
            want = subst_def(partial_sum(fam, depth), depth)
            got = xi_coeffs(fam, depth)
            assert list(got) == [want[i] for i in range(depth + 1)]

    @pytest.mark.parametrize("label,spots", [
        ("kz", (20, 40, 60)),
        ("gk:k=1", (20, 40, 60)),
        ("gk:k=2", (15, 30)),
        ("gk:k=3", (12, 24)),
        ("hikami:m=2,alpha=0", (12, 30)),
        ("hikami:m=2,alpha=1", (12, 30)),
    ])
    def test_stabilization_prefix(self, label, spots):
        fam = parse_family(label)
        for d in spots:
            a = xi_coeffs(fam, d)
            b = xi_coeffs(fam, d + 10)
            assert b[: d + 1] == a

    def test_sequence_type(self):
        # depth + 1 exact ints, immutable
        seq = xi_coeffs(KZ, 5)
        assert type(seq) is tuple and len(seq) == 6 and seq[4] == 15
        assert all(type(c) is int for c in seq)

    def test_inline_and_zero_padding(self):
        # inline families run out of terms; the tail must be explicit zeros
        seq = xi_coeffs(INLINE_G, 6)
        assert len(seq) == 7
        fam = parse_family('{"kernel":"F","terms":[]}')
        assert list(xi_coeffs(fam, 3)) == [0, 0, 0, 0]

    def test_bad_depth(self):
        with pytest.raises(InvalidParam):
            xi_coeffs(KZ, -1)

    def test_thousands_of_ladder_levels(self):
        # a generator per level raised RecursionError here
        fam = parse_family("hikami:m=3000,alpha=1")
        assert xi_coeffs(fam, 0) == (2,)


class TestModularEngine:
    @pytest.mark.parametrize("label,depth", [
        ("kz", 40),
        ("gk:k=1", 40),
        ("gk:k=2", 40),
        ("gk:k=3", 32),
        ("hikami:m=2,alpha=0", 40),
        ("hikami:m=2,alpha=1", 40),
        ("hikami:m=3,alpha=1", 32),
        ("hikami:m=3,alpha=0", 32),
        ("hikami:m=4,alpha=0", 32),
        ("hikami:m=4,alpha=3", 32),
        ("gk:k=4", 32),
        (INLINE_F.label, 24),
        (INLINE_G.label, 24),
    ])
    def test_agrees_with_exact(self, label, depth):
        fam = parse_family(label)
        exact = xi_coeffs(fam, depth)
        for mod in (5, 9, 64, 97):
            assert _xi_mod(fam, depth, mod) == tuple(c % mod for c in exact)

    @pytest.mark.parametrize("label,depth", [
        ("gk:k=2", 66),
        ("gk:k=3", 48),
        ("hikami:m=3,alpha=1", 56),
        ("hikami:m=3,alpha=2", 56),
    ])
    def test_agrees_with_exact_across_ladder_blocks(self, label, depth):
        # the early ladder steps here span two or more blocks of rows
        assert depth > engine._BLOCK_ROWS
        fam = parse_family(label)
        exact = xi_coeffs(fam, depth)
        for mod in (7, 25):
            assert _xi_mod(fam, depth, mod) == tuple(c % mod for c in exact)

    def test_overflow_fallback(self, monkeypatch):
        # (mod-1)^2*(depth+1) at or over 2^53: verify_congruence reads its
        # one index exactly and never runs the engine
        import qstrange.fishburn as fb
        mod = 2 ** 31 - 1  # a prime
        assert not fb._float_exact(mod, 6)
        exact = xi_coeffs(KZ, 6)
        monkeypatch.setattr(fb, "_xi_mod", _never("_xi_mod"))
        for first in range(7):
            rep = verify_congruence(KZ, mod, 1, mod - first, 6)
            assert rep.indices_checked == 1
            assert (rep.witness, rep.residue) == (first, exact[first] % mod)

    def test_past_the_edge_is_a_caller_bug(self, monkeypatch):
        # the engine cannot run there, and is not even imported
        monkeypatch.setitem(sys.modules, "qstrange._modular", None)
        for label in ("kz", "gk:k=3"):
            with pytest.raises(ValueError) as exc:
                _xi_mod(parse_family(label), 6, 2 ** 31)
            assert type(exc.value) is ValueError

    # kz and gk:k=1 have no ladder, so only the accumulation runs at the
    # edge; gk:k=1's carries signed first differences into its convolutions
    @pytest.mark.parametrize("label", [
        "kz", "gk:k=1", "gk:k=2", "hikami:m=3,alpha=1"])
    def test_float_guard_edge(self, label):
        fam, depth = parse_family(label), 40
        # the largest modulus whose float64 products stay below 2^53
        top = math.isqrt((2 ** 53 - 1) // (depth + 1)) + 1
        assert (top - 1) ** 2 * (depth + 1) < 2 ** 53 <= top ** 2 * (depth + 1)
        exact = xi_coeffs(fam, depth)
        assert _xi_mod(fam, depth, top) == tuple(c % top for c in exact)
        with pytest.raises(ValueError, match="past the float64 edge"):
            _xi_mod(fam, depth, top + 1)

    # gk:k=2 and hikami:m=2 make no block product: their one level is
    # _ones_level_mod's
    @pytest.mark.parametrize("label", ["gk:k=3", "hikami:m=3,alpha=1"])
    def test_narrow_width_edge(self, label, monkeypatch):
        fam, depth = parse_family(label), 40
        # the largest modulus whose ladder blocks run in float32
        top = math.isqrt((2 ** 24 - 1) // (depth + 1)) + 1
        assert (top - 1) ** 2 * (depth + 1) < 2 ** 24 <= top ** 2 * (depth + 1)
        exact = xi_coeffs(fam, depth)
        matmul, widths = engine.np.matmul, set()

        def spy(a, b, **kwargs):
            widths.add((a.dtype.name, b.dtype.name, kwargs["out"].dtype.name))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(engine.np, "matmul", spy)
        for mod, real in ((top, "float32"), (top + 1, "float64")):
            widths.clear()
            assert _xi_mod(fam, depth, mod) == tuple(c % mod for c in exact)
            assert widths == {(real,) * 3}

    def test_table_limit(self, monkeypatch):
        import qstrange.fishburn as fb
        # every depth the tests and the benchmark use stays within the limit
        for label in ("gk:k=4", "hikami:m=4,alpha=1", "kz"):
            assert fb._table_bytes(parse_family(label), 676) \
                <= fb.MAX_TABLE_BYTES

        def never(*args):
            raise AssertionError("a road was taken")

        monkeypatch.setattr(engine, "_pw_table", never)
        for label in ("gk:k=2", "gk:k=1", "hikami:m=2,alpha=1"):
            with pytest.raises(InvalidParam):
                _xi_mod(parse_family(label), 10 ** 6, 7)
        # past the float edge too: the refusal comes before its ValueError
        with pytest.raises(InvalidParam, match="MAX_TABLE_BYTES"):
            _xi_mod(GK2, 10 ** 6, 2 ** 31)

    def test_work_limit(self, monkeypatch):
        import qstrange.fishburn as fb

        def never(*args):
            raise AssertionError("a road was taken")

        monkeypatch.setattr(engine, "xi_residues", never)
        # within the table limit, over the work limit, and refused so past
        # the float edge too, before its ValueError
        for label, depth in (("kz", 100000), ("gk:k=1", 5000),
                             ("gk:k=2", 1000), ("hikami:m=3,alpha=1", 700)):
            fam = parse_family(label)
            assert fb._table_bytes(fam, depth) <= fb.MAX_TABLE_BYTES
            for mod in (5, 2 ** 31):
                with pytest.raises(InvalidParam, match="MAX_MODULAR_WORK"):
                    _xi_mod(fam, depth, mod)

    def test_cross_check_stays_within_the_partial_sum_limit(self, monkeypatch):
        import qstrange.fishburn as fb

        def never(*args):
            raise AssertionError("the exact engine ran")

        # the least index, 64, is over MAX_PARTIAL_SUM_WORK for gk:k=3
        fam = parse_family("gk:k=3")
        assert fb.partial_sum_work(fam, 64) > fb.MAX_PARTIAL_SUM_WORK
        monkeypatch.setattr(fb, "partial_sum", never)
        monkeypatch.setattr(fb, "_partial_sum", never)
        rep = verify_congruence(fam, 67, 1, 3, 140)
        assert rep.indices_checked == 2
        assert rep.verdict in ("pass", "fail")

    # the xi_coeffs rows of the table of guard boundaries; for kz, gk:k=1
    # and gk:k=3 the sum alone is accepted at deepest + 1
    @pytest.mark.parametrize("label,deepest", [
        (arg, deepest) for guard, arg, deepest in BOUNDARIES
        if guard == "xi_coeffs"])
    def test_xi_coeffs_counts_the_substitution(self, label, deepest,
                                               monkeypatch):
        check_boundary("xi_coeffs", label, deepest, monkeypatch)

    # the partial_sum rows of the table of guard boundaries: past the float
    # edge the one index read is admitted exactly as far as the sum at
    # N = that index is
    @pytest.mark.parametrize("label,deepest", [
        (arg, deepest) for guard, arg, deepest in BOUNDARIES
        if guard == "partial_sum"])
    def test_index_past_the_edge_is_admitted_as_its_sum_is(
            self, label, deepest, monkeypatch):
        check_boundary("edge_index", label, deepest, monkeypatch)

    # the set-up makes no product that nothing reads: the accumulation
    # makes at most one convolution per index, the first ladder level two
    # per output, and each later level at most one per column for its
    # unit and one for its weight times that unit (a run of levels builds
    # its units once).  test_agrees_with_exact checks these families'
    # values
    @pytest.mark.parametrize("label", [
        "gk:k=1", "gk:k=2", "gk:k=3", "hikami:m=3,alpha=1"])
    def test_set_up_convolution_budget(self, label, monkeypatch):
        from qstrange.qfamilies import _shape
        fam, depth, mod = parse_family(label), 60, 7
        levels = _shape(fam)[0]
        later = max(sum(count for count, *_ in levels) - 1, 0)
        outputs = depth + 1 + sum(drop for *_, drop in levels)
        convolve, part = engine.np.convolve, ["accumulation"]
        calls = {"accumulation": 0, "first": 0, "later": 0}

        def spy(*args, **kwargs):
            calls[part[-1]] += 1
            return convolve(*args, **kwargs)

        def in_part(name, fn):
            def run(*args):
                part.append(name)
                try:
                    return fn(*args)
                finally:
                    part.pop()
            return run

        monkeypatch.setattr(engine.np, "convolve", spy)
        monkeypatch.setattr(engine, "_ones_level_mod",
                            in_part("first", engine._ones_level_mod))
        monkeypatch.setattr(engine, "_sub_ladder_mod",
                            in_part("later", engine._sub_ladder_mod))
        engine.xi_residues(fam, depth, mod)
        assert calls["accumulation"] <= depth + 1
        assert calls["first"] <= 2 * outputs * bool(levels)
        assert calls["later"] <= 2 * (depth + 1) * later

    # one pass per step: every block of a ladder step multiplies its source
    # rows where they lie in the column array, with no copy, and the
    # accumulation makes at most one convolution per index
    @pytest.mark.parametrize("real,mod", [("float32", 7), ("float64", 10007)])
    def test_one_pass_per_step(self, real, mod, monkeypatch):
        fam = parse_family("gk:k=3")
        depth = 70  # the first steps of its second level span three blocks
        matmul, convolve = engine.np.matmul, engine.np.convolve
        sub_weights = engine._sub_weights_mod
        bases, weights, calls = [], [], []

        def matmul_spy(a, b, **kwargs):
            bases.append(a.base)
            return matmul(a, b, **kwargs)

        def convolve_spy(*args, **kwargs):
            calls.append(len(weights))  # 0 in the set-up, then 1
            return convolve(*args, **kwargs)

        def weights_spy(*args):
            weights.append(sub_weights(*args))
            return weights[0]

        monkeypatch.setattr(engine.np, "matmul", matmul_spy)
        monkeypatch.setattr(engine.np, "convolve", convolve_spy)
        monkeypatch.setattr(engine, "_sub_weights_mod", weights_spy)
        engine.xi_residues(fam, depth, mod)
        # gk:k=3's second level is its one ladder, of width depth+1, with a
        # column per row
        cols = bases[0]
        assert len(bases) > depth and all(base is cols for base in bases)
        assert cols.shape == (depth + 1, depth + 1) and cols.dtype.name == real
        # its outputs leave at the integer width of the same size
        assert {w.dtype.itemsize for w in weights[0]} == {cols.dtype.itemsize}
        assert 0 < calls.count(1) <= depth + 1

    # the levels after the first of gk:k=5 are one run, which builds its
    # units, Toeplitz view and buffers once; hikami:m=4,alpha=2 has two
    # runs of later levels, one with c0 = 0 and one with c0 = 1
    @pytest.mark.parametrize("label,runs", [
        ("gk:k=5", 1), ("hikami:m=4,alpha=2", 2)])
    def test_one_set_up_per_run_of_levels(self, label, runs, monkeypatch):
        fam, depth, mod = parse_family(label), 20, 13
        view, conv_trunc, pw_table = (engine.sliding_window_view,
                                      engine._conv_trunc, engine._pw_table)
        sides, units, tables = [], [], []

        def view_spy(padded, side):
            sides.append(side)
            return view(padded, side)

        def conv_spy(a, b, prec, m):
            # a step of a unit chain multiplies by a row of the table
            if tables and b.base is tables[0]:
                units.append(prec)
            return conv_trunc(a, b, prec, m)

        def table_spy(*args):
            tables.append(pw_table(*args))
            return tables[-1]

        monkeypatch.setattr(engine, "sliding_window_view", view_spy)
        monkeypatch.setattr(engine, "_conv_trunc", conv_spy)
        monkeypatch.setattr(engine, "_pw_table", table_spy)
        got = _xi_mod(fam, depth, mod)
        assert got == tuple(c % mod for c in xi_coeffs(fam, depth))
        assert len(sides) == runs
        # one unit chain P**(c(c-1)/2), c = 2..width-1, per run
        assert len(units) == sum(side - 1 for side in sides)

    # a family of one ladder level runs only _ones_level_mod, which reads
    # no table and makes no block product
    @pytest.mark.parametrize("label", [
        "kz", "gk:k=1", "hikami:m=1,alpha=0", INLINE_F.label, "gk:k=2",
        "hikami:m=2,alpha=0", "hikami:m=2,alpha=1"])
    def test_no_table_without_a_ladder(self, label, monkeypatch):
        fam, depth, mod = parse_family(label), 40, 13

        def never(*args, **kwargs):
            raise AssertionError("a table was built or a block multiplied")

        monkeypatch.setattr(engine, "_pw_table", never)
        monkeypatch.setattr(engine.np, "matmul", never)
        got = engine.xi_residues(fam, depth, mod)
        assert got == tuple(c % mod for c in xi_coeffs(fam, depth))

    # the table holds rows 0..depth+1, and a ladder's last step and last
    # unit read up to row depth+1: with offset 1 (gk) and offset 0 (the
    # levels up to alpha of hikami)
    @pytest.mark.parametrize("label", ["gk:k=3", "hikami:m=3,alpha=2"])
    def test_table_holds_the_rows_the_ladder_reads(self, label, monkeypatch):
        fam, mod = parse_family(label), 7
        pw_table, sub_ladder = engine._pw_table, engine._sub_ladder_mod
        shapes, rows = [], set()

        class Rows:
            def __init__(self, table):
                self.table = table

            def __getitem__(self, e):
                rows.add(e)
                return self.table[e]

        def table_spy(*args):
            table = pw_table(*args)
            shapes.append(table.shape)
            return table

        def ladder_spy(weights, c0, steps, pw, *args):
            return sub_ladder(weights, c0, steps, Rows(pw), *args)

        monkeypatch.setattr(engine, "_pw_table", table_spy)
        monkeypatch.setattr(engine, "_sub_ladder_mod", ladder_spy)
        for depth in (1, 2, 7, 40):
            shapes.clear()
            rows.clear()
            got = engine.xi_residues(fam, depth, mod)
            assert got == tuple(c % mod for c in xi_coeffs(fam, depth))
            assert shapes == [(depth + 2, depth + 1)]
            assert max(rows) == depth + 1

    # _table_bytes, read off the shape alone, stays a quarter above the
    # peak memory of the engine's run, and for a family with a level it is
    # within 4 times that peak from depth 100 on
    @pytest.mark.parametrize("label", [
        "kz", *(f"gk:k={k}" for k in (1, 2, 3, 4, 5, 8)),
        *(f"hikami:m={m},alpha={a}" for m in range(2, 6) for a in (0, m - 1)),
        INLINE_F.label, WIDE_G.label])
    def test_table_bytes_bound_what_the_engine_holds(self, label):
        import qstrange.fishburn as fb
        fam = parse_family(label)
        depths = [*range(13), 30, 100] + [300] * (label == "gk:k=3")
        for depth, mod in itertools.product(depths, (7, 720720)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                engine.xi_residues(fam, depth, mod)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            bound = fb._table_bytes(fam, depth)
            assert 4 * peak <= 3 * bound, (depth, mod, peak, bound)
            if fb._levels(fam) and depth >= 100:
                assert bound <= 4 * peak, (depth, mod, peak, bound)

    def test_later_levels_reuse_one_column_block(self):
        # a run of two or more later levels allocated each level's block
        # while the last one was still held: at depth 300 they peaked about
        # 20 % above gk:k=3, whose run has one later level
        def peak(label):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                engine.xi_residues(parse_family(label), 300, 720720)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        base = peak("gk:k=3")
        for label in ("gk:k=4", "gk:k=5", "gk:k=8", "hikami:m=5,alpha=2"):
            assert peak(label) <= 1.05 * base, label

    def test_memo_returns_one_tuple(self, memos):
        vals = _xi_mod(KZ, 60, 5)
        assert isinstance(vals, tuple)
        assert _xi_mod(KZ, 60, 5) is vals
        assert memos["qstrange.fishburn._xi_mod"].stats[0] == 1
        with pytest.raises(TypeError):
            vals[0] = 4

    # moduli that divide SHARED read one run per (family, depth), modulo
    # SHARED; test_shared_run_matches_own_run checks the values
    def test_one_run_for_every_divisor(self, monkeypatch):
        import qstrange.fishburn as fb
        xi_residues, mods = engine.xi_residues, []

        def spy(fam, depth, mod):
            mods.append(mod)
            return xi_residues(fam, depth, mod)

        monkeypatch.setattr(engine, "xi_residues", spy)
        assert scan_congruences(KZ, 5, 1, 104).passing_beta == (1, 2)
        assert 1 in scan_congruences(KZ, 7, 1, 104).passing_beta
        verify_congruence(KZ, 13, 1, 1, 104)
        assert mods == [fb.SHARED]

    def test_shared_run_is_exact_at_every_admitted_depth(self):
        # the run modulo SHARED needs its float64 products exact, which
        # holds up to depth 17339; the deepest depth that the modular and
        # table guards admit together is below that
        import qstrange.fishburn as fb
        assert fb._float_exact(fb.SHARED, 17339)
        assert not fb._float_exact(fb.SHARED, 17340)
        estimates = {"modular": fb.modular_work, "table": fb._table_bytes}
        for arg in {arg for guard, arg, _ in BOUNDARIES if guard in estimates}:
            fam = parse_family(arg)
            deepest = min(deepest_admitted(GUARDS[guard][0],
                                           lambda d: estimate(fam, d))
                          for guard, estimate in estimates.items())
            fb._admit_depth(fam, deepest)
            with pytest.raises(InvalidParam):
                fb._admit_depth(fam, deepest + 1)
            assert deepest < 17339, arg

    # a column ladder keeps its own modulus, so its block products stay in
    # float32 rather than moving to float64 at SHARED
    def test_column_ladder_runs_at_its_own_modulus(self, monkeypatch):
        fam, depth = parse_family("gk:k=3"), 40
        xi_residues, matmul = engine.xi_residues, engine.np.matmul
        mods, widths = [], set()

        def spy(fam, depth, mod):
            mods.append(mod)
            return xi_residues(fam, depth, mod)

        def matmul_spy(a, b, **kwargs):
            widths.add((a.dtype.name, b.dtype.name, kwargs["out"].dtype.name))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(engine, "xi_residues", spy)
        monkeypatch.setattr(engine.np, "matmul", matmul_spy)
        exact = xi_coeffs(fam, depth)
        for mod in (5, 13):
            assert _xi_mod(fam, depth, mod) == tuple(c % mod for c in exact)
        assert mods == [5, 13]
        assert widths == {("float32",) * 3}

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            _xi_mod(KZ, 5, 1)
        with pytest.raises(InvalidParam):
            _xi_mod(KZ, -1, 5)


# SHA-256 of _xi_mod over the grid of pinned_grid, per family, as the
# engine computed it before its first ladder level became a two-column
# recurrence.  Past depth 67 no exact oracle reaches gk:k=2 or hikami:m=2,
# so these digests pin the engine's outputs wherever it reads
PINNED_DIGESTS = {
    "kz": "877a58ac8e4c08f1bdf59f26e915f84dd20a83338455566cd25942244173c605",
    "gk:k=1": "437f89f927e7de29da78fbdf9c263c2380e55a0ec84b197c5258425c96f373da",
    "gk:k=2": "b6041bd6bd7fd7943eceb64e789ad413d1dbc8a46c6174319ff334f01201b0ec",
    "gk:k=3": "3bcd233daf6c394aeb222428444caaf4247f9851ad3114daff25aefe88c67425",
    "hikami:m=2,alpha=0":
        "0a955c48d6ebb12ec41e523fc204c2612d9d174db9690879e84272d31557eaea",
    "hikami:m=2,alpha=1":
        "667e06e23177f2b4221ed0b598b0741bcecf4c4a4a15ba8b98ab9192b3eb9aa4",
    "hikami:m=3,alpha=1":
        "6ba246d3d679b7d13a229c8d7b6542001fad80be2e382a093e34b60d8984464f",
    INLINE_F.label:
        "b15252b58f423533fbe94953f085b1906b647f0835746ae4c668fd0de876a0d3",
}


def pinned_grid(label):
    """(depth, modulus) pairs: depths 0, 1, 45 and 120, and 300 for the
    single-level families; moduli 2, 7, 13, 25, 641, 642 and the largest
    that the float64 road takes at that depth."""
    deep = (300,) if label.startswith(("gk:k=2", "hikami:m=2")) else ()
    for depth in (0, 1, 45, 120) + deep:
        top = math.isqrt((2 ** 53 - 1) // (depth + 1)) + 1
        for mod in (2, 7, 13, 25, 641, 642, top):
            yield depth, mod


@pytest.mark.parametrize("label", sorted(PINNED_DIGESTS))
def test_pinned_digest(label):
    fam, digest = parse_family(label), hashlib.sha256()
    for depth, mod in pinned_grid(label):
        digest.update(f"{depth} {mod}: {_xi_mod(fam, depth, mod)}\n".encode())
    assert digest.hexdigest() == PINNED_DIGESTS[label]


class TestVerifyCongruence:
    def test_kz_mod5(self):
        for beta in (1, 2):
            rep = verify_congruence(KZ, 5, 1, beta, 104)
            assert rep.verdict == "pass"
            assert rep.witness is None
        rep = verify_congruence(KZ, 5, 1, 3, 50)
        assert rep.verdict == "fail"
        assert rep.witness == 2 and rep.residue == 2

    def test_kz_mod7(self):
        assert verify_congruence(KZ, 7, 1, 1, 140).verdict == "pass"

    def test_gk1_listed(self):
        assert verify_congruence(GK1, 5, 1, 1, 104).verdict == "pass"
        assert verify_congruence(GK1, 5, 2, 1, 100).verdict == "pass"
        assert verify_congruence(GK1, 7, 2, 1, 196).verdict == "pass"
        for beta in (1, 2, 3, 4):
            assert verify_congruence(GK1, 13, 1, beta, 260).verdict == "pass"

    def test_gk2_listed(self):
        assert verify_congruence(GK2, 7, 1, 1, 140).verdict == "pass"
        assert verify_congruence(GK2, 11, 1, 1, 220).verdict == "pass"
        assert verify_congruence(GK2, 7, 2, 1, 196).verdict == "pass"

    def test_indices_checked_count(self):
        rep = verify_congruence(KZ, 5, 1, 1, 104)
        # indices 4, 9, ..., 104
        assert rep.indices_checked == 21

    def test_json_shape(self):
        rep = verify_congruence(KZ, 5, 1, 1, 104)
        assert rep.to_json_obj() == {
            "family": "kz", "p": 5, "r": 1, "beta": 1, "residue_class": 4,
            "depth": 104, "indices_checked": 21, "verdict": "pass",
            "status": "empirical",
        }
        bad = verify_congruence(KZ, 5, 1, 3, 50)
        obj = bad.to_json_obj()
        assert obj["verdict"] == "fail"
        assert obj["witness"] == 2 and obj["residue"] == 2
        assert obj["residue_class"] == 2

    def test_engine_cross_check(self, monkeypatch):
        import qstrange.fishburn as fb
        monkeypatch.setattr(fb, "_xi_mod", lambda fam, d, m: [1] * (d + 1))
        with pytest.raises(EngineMismatch):
            verify_congruence(KZ, 5, 1, 1, 20)

    # the least index is 48, within the cross-check's reach; xi(48) is 0
    # mod 49 and not mod 59
    @pytest.mark.parametrize("p,r,beta,verdict", [
        (7, 2, 1, "pass"), (59, 1, 11, "fail")])
    def test_engine_cross_check_at_a_large_index(self, p, r, beta, verdict,
                                                 monkeypatch):
        import qstrange.fishburn as fb
        assert fb.partial_sum_work(GK1, 48, 48) <= fb.MAX_PARTIAL_SUM_WORK
        assert verify_congruence(GK1, p, r, beta, 60).verdict == verdict
        right, mod = _xi_mod(GK1, 60, p ** r), p ** r
        # the engine is wrong only at the cross-checked index
        wrong = right[:48] + ((right[48] + 1) % mod,) + right[49:]
        monkeypatch.setattr(fb, "_xi_mod", lambda fam, d, m: wrong)
        with pytest.raises(EngineMismatch):
            verify_congruence(GK1, p, r, beta, 60)

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            verify_congruence(KZ, 4, 1, 1, 50)
        with pytest.raises(InvalidParam):
            verify_congruence(KZ, 5, 0, 1, 50)
        with pytest.raises(InvalidParam):
            verify_congruence(KZ, 5, 1, 0, 50)
        with pytest.raises(InvalidParam):
            verify_congruence(KZ, 5, 1, 26, 50)
        with pytest.raises(InvalidParam):
            verify_congruence(KZ, 5, 2, 1, 20)  # no index within depth

    def test_immutable(self):
        rep = verify_congruence(KZ, 5, 1, 1, 104)
        with pytest.raises(AttributeError):
            rep.verdict = "fail"


class TestScanCongruences:
    def test_kz_mod5_exact_set(self):
        rep = scan_congruences(KZ, 5, 1, 200)
        assert rep.passing_beta == (1, 2)

    def test_kz_mod7_contains(self):
        rep = scan_congruences(KZ, 7, 1, 140)
        assert 1 in rep.passing_beta
        assert 7 not in rep.passing_beta  # beta = 7 tests xi(0) = 1

    def test_gk1_mod13(self):
        rep = scan_congruences(GK1, 13, 1, 260)
        assert rep.passing_beta == (1, 2, 3, 4)

    def test_gk2_mod7(self):
        rep = scan_congruences(GK2, 7, 1, 140)
        assert 1 in rep.passing_beta

    def test_json_shape(self):
        rep = scan_congruences(KZ, 5, 1, 200)
        assert rep.to_json_obj() == {
            "family": "kz", "p": 5, "r": 1, "depth": 200,
            "passing_beta": [1, 2], "passing_residue_classes": [4, 3],
            "status": "empirical",
        }

    def test_immutable(self):
        rep = scan_congruences(KZ, 5, 1, 200)
        with pytest.raises(AttributeError):
            rep.passing_beta = (1, 2, 3)

    def test_requires_three_indices(self):
        with pytest.raises(InvalidParam):
            scan_congruences(KZ, 5, 1, 10)
        scan_congruences(KZ, 5, 1, 14)  # 3 indices for every class

    def test_bad_params(self):
        with pytest.raises(InvalidParam):
            scan_congruences(KZ, 6, 1, 100)
        with pytest.raises(InvalidParam):
            scan_congruences(KZ, 5, 0, 100)


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10 ** 5) if _is_prime(n)] == \
            [n for n in range(10 ** 5) if is_prime_def(n)]

    @pytest.mark.parametrize("n, prime", [
        (2 ** 61 - 1, True),
        (1000000000000000003, True),
        (PRIME_TEST_LIMIT - 2, False),
        (561, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, False),  # to every base 2..23
        (318665857834031151167461, False),  # to every base 2..37
    ])
    def test_large_and_adversarial(self, n, prime):
        assert _is_prime(n) is prime

    def test_limit_is_refused(self):
        # PRIME_TEST_LIMIT is itself a strong pseudoprime to bases 2..41
        assert _is_prime(PRIME_TEST_LIMIT)
        with pytest.raises(InvalidParam, match="PRIME_TEST_LIMIT"):
            verify_congruence(KZ, PRIME_TEST_LIMIT, 1, 1, 10)
        with pytest.raises(InvalidParam, match="PRIME_TEST_LIMIT"):
            scan_congruences(KZ, PRIME_TEST_LIMIT, 1, 10)


class TestMemo:
    CALLS = [(verify_congruence, (GK1, 13, 1, beta, 260)) for beta in (1, 2, 3, 5)]
    CALLS += [
        (scan_congruences, (GK1, 13, 1, 260)),
        (verify_congruence, (KZ, 5, 1, 3, 104)),
        (scan_congruences, (KZ, 5, 1, 104)),
        (scan_congruences, (KZ, 7, 1, 104)),
        (verify_congruence, (GK2, 7, 1, 1, 140)),
        (scan_congruences, (GK2, 7, 1, 140)),
        (verify_congruence, (GK2, 11, 1, 1, 140)),
    ]

    def test_reports_independent_of_memo_and_order(self, clear_memos):
        cold = []
        for fn, args in self.CALLS:
            clear_memos()
            cold.append(fn(*args))
        rng = random.Random(11)
        for _ in range(3):
            clear_memos()
            order = list(range(len(self.CALLS)))
            rng.shuffle(order)
            for i in order + order:  # the second pass is fully warm
                fn, args = self.CALLS[i]
                assert fn(*args) == cold[i]
            # one shared run modulo SHARED per (family, depth), and one
            # reduced entry per modulus: 13; 5 and 7; 7 and 11
            assert len(memo_entries("qstrange.fishburn._xi_mod")) == 3 + 5

    def test_mutating_a_report_cannot_reach_the_memo(self):
        rep = verify_congruence(KZ, 5, 1, 3, 104)
        scan = scan_congruences(KZ, 5, 1, 104)
        assert (rep.verdict, rep.witness, scan.passing_beta) == ("fail", 2, (1, 2))
        with pytest.raises(AttributeError):
            rep.residue = 0
        with pytest.raises(AttributeError):
            scan.passing_beta = (1, 2, 3)
        obj, scan_obj = rep.to_json_obj(), scan.to_json_obj()
        obj["residue"] = 0
        scan_obj["passing_beta"].append(3)
        assert verify_congruence(KZ, 5, 1, 3, 104) == rep
        assert scan_congruences(KZ, 5, 1, 104) == scan
        exact = xi_coeffs(KZ, 104)
        assert _xi_mod(KZ, 104, 5) == tuple(c % 5 for c in exact)
