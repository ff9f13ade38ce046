"""The modular engine behind the congruence checks: xi(0..depth) mod m.

It works modulo m from the start and entirely in the substituted domain:
the shift q**e becomes multiplication by (1-x)**e, and the family ladders
are replayed with a precision that shrinks as terms acquire valuation.
The first ladder level of every laddered family is fed by ones, and there
the Pascal rules close on two columns, so that level is a two-column
recurrence of two convolutions per step, O(depth**3), whose powers of
(1-x) are walked up by first differences.  Each later level is a column
ladder, one Toeplitz block product per step, O(depth**4); a run of equal
levels builds its units and buffers once.  Only those levels read powers
of (1-x) from a table, so only a family with a second level builds one:
rows 0..depth+1 of (1-x)**(base e), which the engine sizes from the depth
alone.  gk's final shift of weight n by q**n is folded into the Horner
accumulation as one first difference per index.

Residues lie in [0, m); every product of residues is taken in floating
point (a truncated convolution, or one matrix product per block of ladder
rows), which BLAS does fast, and reduced back in integers.  Each such
product and partial sum is an integer of absolute value at most (m-1)**2 *
(depth+1), so it is exact in any summation order while that bound is below
2**53 in float64, with int64 residues, or below 2**24 in float32, with
int32 residues.  The caller guarantees 2**53.  The convolutions run in
float64; each ladder takes float32 when its bound allows, which halves its
memory and speeds its products.  A product with a constant is a scaling,
not a convolution.  Only the residues a consumer reads are computed: each
ladder row and each Horner step of the accumulation stops at the precision
that is read from it.

Each step makes one pass of each kind.  The first level's differences
X - Y enter their convolution unreduced, with entries in (-m, m).  A
ladder holds its residue columns in its float width, so every block's
product reads its source rows in place, and casts and reduces each block
once.  The accumulation keeps its unit row negated from the start and
reduces it once per index, after its prefix sums; gk's first differences
enter the convolution unreduced, with entries in (-m, m), within the
bound above; and S_n is reduced once, after its weight is added.

This is the only module of the package that imports numpy; fishburn
imports it on first use, after its parameter and size checks have passed.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exactpoly import subst_one_minus_q
from .qfamilies import _shape, _step

_EMPTY = np.zeros(0, dtype=np.int64)

# rows per block of a ladder step: each block's product is cut to the
# precision of its first row (32-48 rows measured fastest)
_BLOCK_ROWS = 32


def _conv_trunc(a, b, prec: int, mod: int):
    """(a * b) mod (x**prec, mod) for residue arrays, multiplied in float64;
    a product with a constant is a scaling, not a convolution."""
    if prec <= 0 or a.size == 0 or b.size == 0:
        return _EMPTY
    if a.size == 1 or b.size == 1:
        small, big = (a, b) if a.size == 1 else (b, a)
        return big[:prec] * small[0] % mod
    full = np.convolve(a[:prec].astype(np.float64), b[:prec].astype(np.float64))
    return full[:prec].astype(np.int64) % mod


def _pw_table(depth: int, mod: int, base: int):
    """Rows e = 0..depth+1 of P**e mod (x**(depth+1), mod), P = (1-x)**base:
    every power of (1-x) that a ladder of that base reads."""
    pw = np.zeros((depth + 2, depth + 1), dtype=np.int64)
    pw[0, 0] = 1
    for e in range(1, depth + 2):
        pw[e] = pw[e - 1]
        _times_p(pw[e], base, mod)
    return pw


def _times_p(row, base, mod):
    """row * (1-x)**base mod (x**len(row), mod), in place: base first
    differences."""
    for _ in range(base):
        row[1:] = (row[1:] - row[:-1]) % mod
    return row


def _ones_level_mod(c0, base, steps, depth, mod):
    """The first ladder level, fed by the constant 1, mod (x**prec, mod).

    Column c of that ladder is G_(c0+c)(n) = sum_t Q**(t**2 + (c0+c) t)
    [n choose t]_Q, and the two Pascal rules close on its first two
    columns, X = G_c0 and Y = G_(c0+1):
        X(n) = X(n-1) + Q**(n+c0) Y(n-1),
        Y(n) = Y(n-1) + Q**n (X(n) - Y(n-1)),    X(0) = Y(0) = 1.
    Here Q**e is P**e, P = (1-x)**base, so a step is two truncated
    convolutions, not a product per column.  P**n and P**(n+c0) are walked
    up by base first differences each per step; no table is read.

    Outputs 0..steps are X(n), each to the precision width-n, width =
    depth+2-c0, that _sub_ladder_mod gives its output n (empty from n =
    width on); Y(n) is kept to width-n-1, the precision that X(n+1) reads.
    X - Y enters its convolution unreduced, with entries in (-m, m), so
    every product sum stays within (m-1)**2 * (depth+1).
    """
    width = depth + 2 - c0
    x = np.zeros(width, dtype=np.int64)
    x[0] = 1
    y, out = x[:-1], [x]
    # P**n and P**(n+c0), first for n = 1
    pn = _times_p(x.copy(), base, mod)
    pc = _times_p(pn.copy(), base * c0, mod)
    for n in range(1, min(steps, width - 1) + 1):
        size = width - n
        x = (x[:size] + _conv_trunc(pc, y, size, mod)) % mod
        out.append(x)
        diff = x[: size - 1] - y[: size - 1]
        y = (y[: size - 1] + _conv_trunc(pn, diff, size - 1, mod)) % mod
        pn, pc = (_times_p(p[: size - 1], base, mod) for p in (pn, pc))
    return out + [_EMPTY] * (steps + 1 - len(out))


def _sub_ladder_mod(weights, c0, steps, pw, depth, mod, count=1):
    """count levels of the qfamilies column ladder, replayed mod (x**prec,
    mod), each level's outputs the next one's weights.

    A shift by q**(base*off) in the exact ladder is multiplication by
    P**off = pw[off] here, P = (1-x)**base.  Column c is stored times the
    unit P**(c(c-1)/2), which turns the Pascal step
    A_c += P**(n+c0+c) * A_(c+1) into B_c += P**(n+c0) * B_(c+1): one
    kernel for every column, so a step is a product of column rows with
    that kernel's Toeplitz matrix.  Column 0 is unscaled, so the outputs
    are the ladder's.  The first level, fed by ones, is _ones_level_mod's;
    this one replays the later levels.

    Column c at step n is only ever read mod x**(width-c-n), width =
    depth+2-c0; the bound telescopes across chained ladders, so output n
    leaves with exactly the precision width-n that the next consumer reads.
    Each step therefore runs over blocks of _BLOCK_ROWS rows in ascending
    order, so that every source row is read before it is written, and cuts
    each block's product and reduction to its first row's precision.  The
    extra coefficients of a block's lower rows are never read back.

    The weights must be residues.  The columns are held in the ladder's
    float width, so each block's product reads its source rows in place;
    the target rows are added in float, which is exact below the bound,
    and the block is cast once to integers and reduced once, straight back
    into its rows.  The outputs leave at the integer width.

    The count levels share c0, base, steps and width, so the units, the
    Toeplitz view, the column block and the buffers, O(depth**2) words, are
    built once for all of them; each level zeroes the block, since the
    outputs it leaves are copies, and each step builds its kernel.
    """
    width = depth + 2 - c0
    # one width per ladder: float32 blocks are exact below 2**24
    if (mod - 1) ** 2 * (depth + 1) < 2 ** 24:
        real, whole = np.float32, np.int32
    else:
        real, whole = np.float64, np.int64
    columns = min(steps, width - 1) + 1
    # column c's unit P**(c(c-1)/2), None for the 1 of columns 0 and 1
    units, unit = [None] * min(columns, 2), np.ones(1, dtype=np.int64)
    for c in range(2, columns):
        unit = _conv_trunc(unit, pw[c - 1], width - c, mod)
        units.append(unit)
    # buffers shared by every step, so that no block allocates its own; a
    # step's precision is at most width-1, and so are their sides.
    # toeplitz[i, j] = padded[side-1 + j - i], zero below the diagonal
    side = max(width - 1, 1)
    padded = np.zeros(2 * side - 1, dtype=real)
    toeplitz = sliding_window_view(padded, side)[::-1]
    kernel = np.empty((side, side), dtype=real)
    prod = np.empty(min(_BLOCK_ROWS, side) * side, dtype=real)
    total = np.empty(prod.size, dtype=whole)
    cols = np.empty((columns, width), dtype=real)
    for _ in range(count):
        cols.fill(0)
        for c, unit in enumerate(units):
            # the weights are residues, so an unscaled column is a copy
            col = weights[c][: width - c]
            if unit is not None:
                col = _conv_trunc(unit, col, width - c, mod)
            cols[c, : col.size] = col
        weights = [cols[0].astype(whole)]
        for n in range(1, steps + 1):
            size = max(0, width - n)
            rows = min(steps - n + 1, size)
            if rows:
                # row @ kernel is row * P**(n+c0) mod x**size
                padded[side - 1: side - 1 + size] = pw[n + c0][:size]
                kernel[:size, :size] = toeplitz[:size, :size]
            for r0 in range(0, rows, _BLOCK_ROWS):
                r1 = min(r0 + _BLOCK_ROWS, rows)
                h, prec = r1 - r0, size - r0
                add = np.matmul(cols[r0 + 1: r1 + 1, :prec],
                                kernel[:prec, :prec],
                                out=prod[: h * prec].reshape(h, prec))
                # the kernel's diagonal is P**(n+c0) mod x = 1, so add +
                # cols is at most (m-1)**2 * (depth+1), or depth+2 for
                # m = 2: exact in either width
                add += cols[r0:r1, :prec]
                # the float buffer is spent; its memory takes the
                # quotients.  floor_divide by a scalar is several times
                # faster than remainder
                b, quo = total[: h * prec].reshape(h, prec), add.view(whole)
                np.copyto(b, add, casting="unsafe")
                np.floor_divide(b, mod, out=quo)
                quo *= mod
                np.subtract(b, quo, out=cols[r0:r1, :prec])
            weights.append(cols[0, :size].astype(whole))
    return weights


def _sub_weights_mod(family, depth, mod):
    """The family's weights w(0..depth) in the substituted domain, mod m,
    each to the precision depth+1-n that xi_residues reads from w(n).

    Inline term n is substituted only that far; the other families start
    from depth+1 ones and one more for each value a run drops.  The first
    ladder level, always fed by those ones, is _ones_level_mod's; the
    later levels of the family's shape are replayed by _sub_ladder_mod,
    one call per run of equal levels.
    Only a family with a later level builds a table, rows 0..depth+1 of
    P**e, P = (1-x)**base, and those rows are all that its ladders read:
    the step n of a ladder with offset c0 runs only while n <= depth+1-c0
    and reads P**(n+c0), and the unit of column c, c <= depth+1-c0, reads
    P**(c-1).  gk's final shift by q**n is left out: xi_residues folds it
    into its Horner units.
    """
    levels = _shape(family)[0]
    vals = [np.ones(1, dtype=np.int64)] * (
        depth + 1 + sum(drop for *_, drop in levels))
    if family.kind == "inline":
        terms = family.params[: depth + 1]
        vals = [np.array([c % mod for c in subst_one_minus_q(p, depth - n).coeffs],
                         dtype=np.int64) for n, p in enumerate(terms)]
        vals += [_EMPTY] * (depth + 1 - len(terms))
    if levels:
        count, c0, base, drop = levels[0]  # one base for every level
        vals = _ones_level_mod(c0, base, len(vals) - 1, depth, mod)
        levels = [(count - 1, c0, base, drop)] + levels[1:]
        if any(count for count, *_ in levels):
            pw = _pw_table(depth, mod, base)
    for count, c0, _, drop in levels:
        if count:
            vals = _sub_ladder_mod(vals, c0, len(vals) - 1, pw, depth, mod,
                                   count)
        vals = vals[drop:]
    return vals


def xi_residues(family, depth: int, mod: int) -> tuple:
    """xi(0..depth) mod ``mod``; a ladder's (1-x)**e table, sized from the
    depth alone, has rows 0..depth+1 (_sub_weights_mod says why).

    xi = sum_n x**n R_n w_n, R_n = u_1 ... u_n, with the units
    u_n = (1 - (1-x)**j_n)/x, j_n = n (F kernel) or 2n-1 (G kernel).  It is
    accumulated by Horner's rule S_n = w_n + x u_(n+1) S_(n+1), S_0 = xi,
    with S_n kept mod x**(depth+1-n): one truncated convolution per index.
    gk's weights are w_n = (1-x)**n t_n; with S_n = (1-x)**n S'_n the rule
    reads S'_n = t_n + x u_(n+1) (1-x) S'_(n+1), S'_0 = xi, so each step
    takes one first difference instead of a product with (1-x)**n.
    The units are read off (1-x)**j, which is walked down from the top j
    by prefix sums, (1-x)**(j-1) = (1-x)**j / (1-x), so they take O(depth)
    memory.  The row is kept negated, -(1-x)**j, whose entries 1..j are
    u's, and is reduced once per index, after its one or two prefix sums;
    in between its entries stay below m * (depth+1)**2 in int64.  Its float
    copy is zero at x**0, so one convolution gives x u_(n+1) S_(n+1).  gk's
    first difference (1-x) S'_(n+1) enters it unreduced, with entries in
    (-m, m), so every product sum stays within (m-1)**2 * (depth+1); S_n
    is reduced once, after its weight is added.
    """
    step, shift = _step(family), _shape(family)[1]
    wsub = _sub_weights_mod(family, depth, mod)
    # neg = -(1-x)**j mod (x**(depth+1), mod), first for j = j_(depth+1);
    # its entries 1..j are the unit's, u = (1 - (1-x)**j)/x
    j = step * depth + 1
    coef, row = -1, []
    for i in range(depth + 1):
        row.append(coef % mod)
        coef = -coef * (j - i) // (i + 1)  # (-1)**i C(j, i+1)
    neg = np.array(row, dtype=np.int64)
    # the float copy that the convolutions read, x u: zero at x**0
    xu = np.zeros(depth + 1, dtype=np.float64)
    # S_n mod x**(prec+1) is acc[1:prec+2]; acc[0] stays 0
    acc = np.zeros(depth + 2, dtype=np.int64)
    for n in range(depth, -1, -1):
        # S_(n+1) mod x**prec becomes S_n mod x**(prec+1)
        prec = depth - n
        if prec:
            # S_(n+1), or gk's (1-x) S'_(n+1) unreduced: entries in (-m, m)
            src = (np.subtract(acc[1: prec + 1], acc[:prec]) if shift
                   else acc[1: prec + 1])
            width = min(j, prec) + 1
            xu[1:width] = neg[1:width]
            acc[1: prec + 2] = np.convolve(xu[:width], src)[: prec + 1]
        w = wsub[n][: prec + 1]
        acc[1: w.size + 1] += w
        acc[1: prec + 2] %= mod
        # on to j_n: neg is only read up to x**j from here on
        head = neg[: j + 1]
        for _ in range(step):
            np.add.accumulate(head, out=head)
        head %= mod
        j -= step
    return tuple(acc[1:].tolist())
