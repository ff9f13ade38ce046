"""Fishburn-type coefficients and prime-power congruence checks.

For any family the substitution q -> 1-q turns the partial sums into a
stable power series: kernel factor 1 - (1-q)**j has valuation 1, so term n
contributes nothing below degree n and the first D+1 coefficients are frozen
once N = D terms are summed.  ``xi_coeffs`` computes them exactly that way.

Congruence scanning wants depths in the hundreds, where exact integer
coefficients are enormous and pointless.  A second engine therefore works
modulo m from the start and entirely in the substituted domain: the shift
q**e becomes multiplication by (1-x)**e, and the family ladders are replayed
with a precision that shrinks as terms acquire valuation.  Residues are
int64 in [0, m); every product of residues is taken in float64 (a truncated
convolution, or one matrix product per ladder step), which BLAS does fast,
and reduced back in int64.  While (m-1)**2 * (depth+1) < 2**53 every such
product and partial sum is an integer below 2**53, so it is exact in any
summation order; larger moduli take the exact road.  The two engines share
no code and are tested against each other.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exactpoly import subst_one_minus_q
from .qfamilies import InvalidParam, partial_sum

__all__ = [
    "XiSequence",
    "CongruenceReport",
    "ScanReport",
    "xi_coeffs",
    "verify_congruence",
    "scan_congruences",
]

_EMPTY = np.zeros(0, dtype=np.int64)

# The modular engine refuses, before it allocates anything, a request whose
# tables would take more bytes than this (256 MiB: up to depth 2363 for
# gk:k>=2, 2588 for hikami:m>=2 and 5791 for gk:k=1).
MAX_TABLE_BYTES = 2 ** 28


@dataclass(frozen=True, slots=True)
class XiSequence:
    """Coefficients xi(0..D) of family(1-q), exact; equality compares both fields."""

    family_label: str
    coeffs: tuple

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __repr__(self):
        return f"XiSequence({self.family_label!r}, depth={self.depth})"

    def to_json_obj(self):
        return {"family": self.family_label, "depth": self.depth,
                "coeffs": list(self.coeffs)}


def xi_coeffs(family, depth: int) -> XiSequence:
    """xi(0..depth), exact, as the 1-q substitution of the exact partial sum."""
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    sub = subst_one_minus_q(partial_sum(family, depth).value, depth)
    return XiSequence(family.label,
                      sub.coeffs + (0,) * (depth + 1 - len(sub.coeffs)))


# -- modular engine -----------------------------------------------------------

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


def _table_plan(family, depth: int):
    """(last row of the (1-x)**e table, bytes of the engine's tables).

    The bytes count that table and, for laddered families, one ladder's
    column block with its two step buffers and Toeplitz kernel.
    """
    n = depth + 1
    top = laddered = 0
    if family.kind == "gk" and family.params[0] > 1:
        top, laddered = 2 * depth + 2, True
    elif family.kind == "gk":
        top = depth
    elif family.kind == "hikami" and family.params[0] > 1:
        top, laddered = depth + 2, True
    ladder = 4 * (n + 1) * n if laddered else 0
    return top, 8 * ((top + 1) * n + ladder)


def _xi_mod(family, depth: int, mod: int) -> list:
    """xi(0..depth) reduced mod ``mod``.

    The fast path needs (mod-1)**2 * (depth+1) < 2**53, so that its float64
    products are exact; above that the exact coefficients are reduced.
    Either way, a depth whose tables would pass MAX_TABLE_BYTES is refused
    with InvalidParam before anything is computed.
    """
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    if mod < 2:
        raise InvalidParam("modulus must be at least 2")
    top, size = _table_plan(family, depth)
    if size > MAX_TABLE_BYTES:
        raise InvalidParam(
            f"{family.label} at depth {depth} needs about {size >> 20} MiB of "
            f"modular tables; the limit is {MAX_TABLE_BYTES >> 20} MiB")
    if (mod - 1) ** 2 * (depth + 1) >= 2 ** 53:
        # float64 products could round; take the slow exact road
        return [c % mod for c in xi_coeffs(family, depth).coeffs]
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
    return [int(v) for v in total]


# -- congruence checking ------------------------------------------------------

def _require_prime(p: int):
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise InvalidParam(f"p must be prime, got {p}")


@dataclass(frozen=True, slots=True)
class CongruenceReport:
    """verify_congruence outcome (witness set only on failure); equality compares every field."""

    family_label: str
    p: int
    r: int
    beta: int
    depth: int
    indices_checked: int
    verdict: str
    witness: int | None = None
    residue: int | None = None

    def to_json_obj(self):
        mod = self.p ** self.r
        obj = {
            "family": self.family_label,
            "p": self.p,
            "r": self.r,
            "beta": self.beta,
            "residue_class": (mod - self.beta) % mod,
            "depth": self.depth,
            "indices_checked": self.indices_checked,
            "verdict": self.verdict,
            "status": "empirical",
        }
        if self.witness is not None:
            obj["witness"] = self.witness
            obj["residue"] = self.residue
        return obj


@dataclass(frozen=True, slots=True)
class ScanReport:
    """scan_congruences outcome: every passing beta; equality compares every field."""

    family_label: str
    p: int
    r: int
    depth: int
    passing_beta: tuple

    def to_json_obj(self):
        mod = self.p ** self.r
        return {
            "family": self.family_label,
            "p": self.p,
            "r": self.r,
            "depth": self.depth,
            "passing_beta": list(self.passing_beta),
            "passing_residue_classes": [(mod - b) % mod
                                        for b in self.passing_beta],
            "status": "empirical",
        }


def verify_congruence(family, p: int, r: int, beta: int,
                      depth: int) -> CongruenceReport:
    """Check xi(p**r * n - beta) == 0 mod p**r for every index within depth.

    Evidence is empirical at the given depth, never a proof.  On failure the
    report carries the least counterexample index and its residue.  When the
    smallest index is cheap the exact engine recomputes that coefficient as
    a cross-check on the modular one.
    """
    _require_prime(p)
    if r < 1:
        raise InvalidParam("r must be at least 1")
    mod = p ** r
    if not 1 <= beta <= mod:
        raise InvalidParam(f"beta must lie in 1..{mod}, got {beta}")
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    first = mod - beta
    if first > depth:
        raise InvalidParam("depth too small to test any index")
    vals = _xi_mod(family, depth, mod)
    if first <= 64:
        exact = xi_coeffs(family, first).coeffs[first]
        if exact % mod != vals[first]:
            raise ArithmeticError(
                "modular engine disagrees with exact coefficients")
    indices = range(first, depth + 1, mod)
    witness = residue = None
    for i in indices:
        if vals[i]:
            witness, residue = i, vals[i]
            break
    verdict = "pass" if witness is None else "fail"
    return CongruenceReport(family.label, p, r, beta, depth, len(indices),
                            verdict, witness, residue)


def scan_congruences(family, p: int, r: int, depth: int) -> ScanReport:
    """All beta in 1..p**r whose congruence class passes at this depth.

    Requires at least 3 testable indices per class so an empty pattern
    cannot masquerade as a congruence.
    """
    _require_prime(p)
    if r < 1:
        raise InvalidParam("r must be at least 1")
    mod = p ** r
    if depth < 0 or (depth + 1) // mod < 3:
        raise InvalidParam(
            f"need at least 3 indices per class: depth >= {3 * mod - 1}")
    vals = _xi_mod(family, depth, mod)
    passing = tuple(b for b in range(1, mod + 1)
                    if not any(vals[i] for i in range(mod - b, depth + 1, mod)))
    return ScanReport(family.label, p, r, depth, passing)
