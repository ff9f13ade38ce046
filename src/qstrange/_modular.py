"""The modular engine behind the congruence checks: xi(0..depth) mod m.

It works modulo m from the start and entirely in the substituted domain:
the shift q**e becomes multiplication by (1-x)**e, and the family ladders
are replayed with a precision that shrinks as terms acquire valuation.
Residues are int64 in [0, m); every product of residues is taken in float64
(a truncated convolution, or one matrix product per ladder step), which
BLAS does fast, and reduced back in int64.  The caller guarantees
(m-1)**2 * (depth+1) < 2**53, so every such product and partial sum is an
integer below 2**53 and exact in any summation order.

This is the only module of the package that imports numpy; fishburn
imports it on first use, after its parameter and size checks have passed.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exactpoly import subst_one_minus_q

_EMPTY = np.zeros(0, dtype=np.int64)


def _conv_trunc(a, b, prec: int, mod: int):
    """(a * b) mod (x**prec, mod) for residue arrays, multiplied in float64."""
    if prec <= 0 or a.size == 0 or b.size == 0:
        return _EMPTY
    full = np.convolve(a[:prec].astype(np.float64), b[:prec].astype(np.float64))
    return full[:prec].astype(np.int64) % mod


def _pw_table(depth: int, mod: int, top: int):
    """Rows e = 0..top of (1-x)**e mod (x**(depth+1), mod)."""
    pw = np.zeros((top + 1, depth + 1), dtype=np.int64)
    pw[0, 0] = 1
    for e in range(1, top + 1):
        row = pw[e - 1].copy()
        row[1:] = (row[1:] - pw[e - 1][:-1]) % mod
        pw[e] = row
    return pw


def _sub_ladder_mod(weights, c0, steps, base, pw, depth, mod, shrink):
    """The qfamilies column ladder, replayed mod (x**prec, mod).

    A shift by q**off in the exact ladder is multiplication by P**off here,
    P = (1-x)**base.  Column c is stored times the unit P**(c(c-1)/2), which
    turns the Pascal step A_c += P**(n+c0+c) * A_(c+1) into
    B_c += P**(n+c0) * B_(c+1): one kernel for every column, so each step
    is a single float64 product of the column block with that kernel's
    Toeplitz matrix.  Column 0 is unscaled, so the outputs are the ladder's.
    With shrink set, column c at step n is only ever needed mod
    x**(depth+2-c0-c-n); the bound telescopes across chained ladders, so
    outputs leave with exactly the precision the next consumer requires.
    Each step keeps column 0's precision for the whole block; the extra
    coefficients of the higher columns are never read back into column 0's.
    """
    width = depth + 2 - c0 if shrink else depth + 1

    def lim(n):
        return max(0, width - n) if shrink else width

    cols = np.zeros((steps + 1, width), dtype=np.int64)
    unit = np.ones(1, dtype=np.int64)
    for c in range(steps + 1):
        if c > 1:
            unit = _conv_trunc(unit, pw[base * (c - 1)], lim(c), mod)
        col = _conv_trunc(unit, weights[c][: lim(c)] % mod, lim(c), mod)
        cols[c, : col.size] = col
    out = [cols[0, : lim(0)].copy()]
    # buffers shared by every step, so that no step allocates its own block;
    # toeplitz[i, j] = padded[width-1 + j - i], zero below the diagonal
    padded = np.zeros(2 * width - 1)
    toeplitz = sliding_window_view(padded, width)[::-1]
    kernel = np.empty((width, width))
    block = np.empty(steps * width)
    prod = np.empty_like(block)
    for n in range(1, steps + 1):
        size, rows = lim(n), steps - n + 1
        if size > 0:
            # row @ kernel is row * P**(n+c0) mod x**size
            padded[width - 1: width - 1 + size] = pw[base * (n + c0)][:size]
            kernel[:size, :size] = toeplitz[:size, :size]
            b = block[: rows * size].reshape(rows, size)
            b[...] = cols[1: rows + 1, :size]
            add = np.matmul(b, kernel[:size, :size],
                            out=prod[: rows * size].reshape(rows, size))
            # the float buffers are spent; their memory takes int64 values.
            # floor_divide by a scalar is several times faster than remainder
            b, quo = b.view(np.int64), add.view(np.int64)
            np.copyto(b, add, casting="unsafe")
            b += cols[:rows, :size]
            np.floor_divide(b, mod, out=quo)
            quo *= mod
            np.subtract(b, quo, out=cols[:rows, :size])
        out.append(cols[0, :size].copy())
    return out


def _sub_weights_mod(family, depth, mod, pw):
    kind = family.kind
    if kind == "kz":
        one = np.ones(1, dtype=np.int64)
        return [one] * (depth + 1)
    if kind == "inline":
        out = []
        for n in range(depth + 1):
            p = family.params[n] if n < len(family.params) else None
            if p is None or not p.coeffs:
                out.append(_EMPTY)
            else:
                sub = subst_one_minus_q(p, depth)
                out.append(np.array([c % mod for c in sub.coeffs],
                                    dtype=np.int64))
        return out
    if kind == "hikami":
        m, alpha = family.params
        # one value to spare: the alpha level drops its first
        vals = [np.ones(1, dtype=np.int64)] * (depth + 2)
        for level in range(1, m):
            c0 = 1 if level > alpha else 0
            got = _sub_ladder_mod(vals, c0, len(vals) - 1, 1, pw, depth, mod,
                                  shrink=False)
            vals = got[1:] if level == alpha else got
        return vals[: depth + 1]
    (k,) = family.params
    vals = [np.ones(1, dtype=np.int64)] * (depth + 1)
    for _ in range(k - 1):
        vals = _sub_ladder_mod(vals, 1, depth, 2, pw, depth, mod, shrink=True)
    out = []
    for n, t in enumerate(vals):
        prec = depth + 1 - n
        out.append(_conv_trunc(pw[n][: min(n + 1, prec)], t[:prec], prec, mod))
    return out


def xi_residues(family, depth: int, mod: int, top: int) -> tuple:
    """xi(0..depth) mod ``mod``, with rows 0..top of the (1-x)**e table."""
    step = 1 if family.kernel == "F" else 2
    pw = _pw_table(depth, mod, top)
    wsub = _sub_weights_mod(family, depth, mod, pw)
    total = np.zeros(depth + 1, dtype=np.int64)
    w0 = wsub[0]
    total[: w0.size] = w0 % mod
    # binomial row C(j, .) mod `mod`, advanced by Pascal shifts as j grows
    brow = np.zeros(depth + 2, dtype=np.int64)
    brow[0] = 1
    signs = np.where(np.arange(depth + 1) % 2 == 0, 1, mod - 1)
    R = np.ones(1, dtype=np.int64)
    j = 0
    for n in range(1, depth + 1):
        prec = depth + 1 - n
        target = n if step == 1 else 2 * n - 1
        while j < target:
            brow[1:] = (brow[1:] + brow[:-1]) % mod
            j += 1
        ulen = min(j, prec)
        # u[i-1] = (-1)**(i+1) C(j, i), the unit (1-(1-x)**j)/x
        u = (brow[1: ulen + 1] * signs[:ulen]) % mod
        R = _conv_trunc(R, u, prec, mod)
        t = _conv_trunc(R, wsub[n][:prec], prec, mod)
        if t.size:
            total[n: n + t.size] = (total[n: n + t.size] + t) % mod
    return tuple(int(v) for v in total)
