"""The modular engine behind the congruence checks: xi(0..depth) mod m.

It works modulo m from the start and entirely in the substituted domain:
the shift q**e becomes multiplication by (1-x)**e, and the family ladders
are replayed with a precision that shrinks as terms acquire valuation.
Only a ladder reads powers of (1-x) from a table, so only a family with a
ladder level builds one, of the powers it reads; gk's final shift of
weight n by q**n is folded into the Horner accumulation as one first
difference per index.

Residues lie in [0, m); every product of residues is taken in floating
point (a truncated convolution, or one matrix product per block of ladder
rows), which BLAS does fast, and reduced back in integers.  Each such
product and partial sum is a nonnegative integer at most (m-1)**2 *
(depth+1), so it is exact in any summation order while that bound is below
2**53 in float64, with int64 residues, or below 2**24 in float32, with
int32 residues.  The caller guarantees 2**53.  The convolutions run in
float64; each ladder takes float32 when its bound allows, which halves its
memory and speeds its products.  A product with a constant is a scaling,
not a convolution.  Only the residues a consumer reads are computed: each
ladder row and each Horner step of the accumulation stops at the precision
that is read from it.

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


def _pw_table(depth: int, mod: int, top: int, base: int):
    """Rows e = 0..top of P**e mod (x**(depth+1), mod), P = (1-x)**base:
    the only powers of (1-x) that a ladder of that base reads."""
    pw = np.zeros((top + 1, depth + 1), dtype=np.int64)
    pw[0, 0] = 1
    for e in range(1, top + 1):
        row = pw[e - 1].copy()
        for _ in range(base):
            row[1:] = (row[1:] - row[:-1]) % mod
        pw[e] = row
    return pw


def _sub_ladder_mod(weights, c0, steps, pw, depth, mod):
    """The qfamilies column ladder, replayed mod (x**prec, mod).

    A shift by q**(base*off) in the exact ladder is multiplication by
    P**off = pw[off] here, P = (1-x)**base.  Column c is stored times the
    unit P**(c(c-1)/2), which turns the Pascal step
    A_c += P**(n+c0+c) * A_(c+1) into B_c += P**(n+c0) * B_(c+1): one
    kernel for every column, so a step is a product of column rows with
    that kernel's Toeplitz matrix.  Column 0 is unscaled, so the outputs
    are the ladder's.  A column whose weight is the constant 1 is its unit,
    with no convolution.

    Column c at step n is only ever read mod x**(width-c-n), width =
    depth+2-c0; the bound telescopes across chained ladders, so output n
    leaves with exactly the precision width-n that the next consumer reads.
    Each step therefore runs over blocks of _BLOCK_ROWS rows in ascending
    order, so that every source row is read before it is written, and cuts
    each block's product and reduction to its first row's precision.  The
    extra coefficients of a block's lower rows are never read back.
    """
    width = depth + 2 - c0
    # one width per ladder: float32 blocks are exact below 2**24
    if (mod - 1) ** 2 * (depth + 1) < 2 ** 24:
        real, whole = np.float32, np.int32
    else:
        real, whole = np.float64, np.int64
    cols = np.zeros((min(steps, width - 1) + 1, width), dtype=whole)
    unit = np.ones(1, dtype=np.int64)
    for c in range(len(cols)):
        if c > 1:
            unit = _conv_trunc(unit, pw[c - 1], width - c, mod)
        col = _conv_trunc(unit, weights[c][: width - c] % mod, width - c, mod)
        cols[c, : col.size] = col
    out = [cols[0].copy()]
    # buffers shared by every step, so that no block allocates its own; a
    # step's precision is at most width-1, and so are their sides.
    # toeplitz[i, j] = padded[side-1 + j - i], zero below the diagonal
    side = max(width - 1, 1)
    padded = np.zeros(2 * side - 1, dtype=real)
    toeplitz = sliding_window_view(padded, side)[::-1]
    kernel = np.empty((side, side), dtype=real)
    block = np.empty(min(_BLOCK_ROWS, side) * side, dtype=real)
    prod = np.empty_like(block)
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
            b = block[: h * prec].reshape(h, prec)
            b[...] = cols[r0 + 1: r1 + 1, :prec]
            add = np.matmul(b, kernel[:prec, :prec],
                            out=prod[: h * prec].reshape(h, prec))
            # the float buffers are spent; their memory takes integers of
            # the same width, which hold add + cols < 2**24 + m (int32) or
            # 2**53 + m (int64).
            # floor_divide by a scalar is several times faster than remainder
            b, quo = b.view(whole), add.view(whole)
            np.copyto(b, add, casting="unsafe")
            b += cols[r0:r1, :prec]
            np.floor_divide(b, mod, out=quo)
            quo *= mod
            np.subtract(b, quo, out=cols[r0:r1, :prec])
        out.append(cols[0, :size].copy())
    return out


def _sub_weights_mod(family, depth, mod, top):
    """The family's weights w(0..depth) in the substituted domain, mod m,
    each to the precision depth+1-n that xi_residues reads from w(n).

    Inline term n is substituted only that far; the other families start
    from depth+1 ones and one more for each value a run drops.  The runs
    of levels of the family's shape are replayed by _sub_ladder_mod.  Only
    a family with a ladder level builds a table, of the powers of
    (1-x)**base up to (1-x)**top that its ladders read.  gk's final shift
    by q**n is left out: xi_residues folds it into its Horner units.
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
        base = levels[0][2]  # one for every level of a family
        pw = _pw_table(depth, mod, top // base, base)
    for count, c0, _, drop in levels:
        for _ in range(count):
            vals = _sub_ladder_mod(vals, c0, len(vals) - 1, pw, depth, mod)
        vals = vals[drop:]
    return vals


def xi_residues(family, depth: int, mod: int, top: int) -> tuple:
    """xi(0..depth) mod ``mod``; a ladder reads (1-x)**e for e <= top.

    xi = sum_n x**n R_n w_n, R_n = u_1 ... u_n, with the units
    u_n = (1 - (1-x)**j_n)/x, j_n = n (F kernel) or 2n-1 (G kernel).  It is
    accumulated by Horner's rule S_n = w_n + x u_(n+1) S_(n+1), S_0 = xi,
    with S_n kept mod x**(depth+1-n): one truncated convolution per index.
    gk's weights are w_n = (1-x)**n t_n; with S_n = (1-x)**n S'_n the rule
    reads S'_n = t_n + x u_(n+1) (1-x) S'_(n+1), S'_0 = xi, so each step
    takes one first difference instead of a product with (1-x)**n.
    The units are read off (1-x)**j, which is walked down from the top j
    one prefix sum per step, (1-x)**(j-1) = (1-x)**j / (1-x), so they take
    O(depth) memory.
    """
    step, shift = _step(family), _shape(family)[1]
    wsub = _sub_weights_mod(family, depth, mod, top)
    # pj = (1-x)**j mod (x**(depth+1), mod), first for j = j_(depth+1)
    j = step * depth + 1
    coef, row = 1, []
    for i in range(depth + 1):
        row.append(coef % mod)
        coef = -coef * (j - i) // (i + 1)  # (-1)**(i+1) C(j, i+1)
    pj = np.array(row, dtype=np.int64)
    acc = _EMPTY  # S_(depth+1) = 0
    for n in range(depth, -1, -1):
        # acc = S_(n+1) mod x**prec becomes S_n mod x**(prec+1)
        prec = depth - n
        if shift:  # (1-x) S'_(n+1)
            acc[1:] -= acc[:-1]
            acc %= mod
        t = _conv_trunc((-pj[1: min(j, prec) + 1]) % mod, acc, prec, mod)
        w = wsub[n][: prec + 1]
        acc = np.zeros(prec + 1, dtype=np.int64)
        acc[: w.size] = w
        acc[1: 1 + t.size] += t
        acc %= mod
        for _ in range(step):  # on to j_n
            np.cumsum(pj, out=pj)
            pj %= mod
        j -= step
    return tuple(acc.tolist())
