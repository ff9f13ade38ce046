"""Fishburn-type coefficients and prime-power congruence checks.

For any family the substitution q -> 1-q turns the partial sums into a
stable power series: kernel factor 1 - (1-q)**j has valuation 1, so term n
contributes nothing below degree n and the first D+1 coefficients are frozen
once N = D terms are summed.  ``xi_coeffs`` computes them exactly that way.

Congruence scanning wants depths in the hundreds, where exact integer
coefficients are enormous and pointless.  A second engine therefore works
modulo m from the start and entirely in the substituted domain: the shift
q**e becomes multiplication by (1-x)**e, every product is a truncated
int64 convolution, and the family ladders are replayed with per-column
precision that shrinks as terms acquire valuation.  The two engines share
no code and are tested against each other.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    if prec <= 0 or a.size == 0 or b.size == 0:
        return _EMPTY
    return np.convolve(a, b)[:prec] % mod


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

    A shift by q**off in the exact ladder is multiplication by (1-x)**off
    here.  With shrink set, column idx at step n is only ever needed mod
    x**(depth+2-c0-idx-n); the bound telescopes across chained ladders, so
    outputs leave with exactly the precision the next consumer requires.
    """
    def lim(idx, n):
        if shrink:
            return max(0, depth + 2 - c0 - idx - n)
        return depth + 1

    cols = []
    for i in range(steps + 1):
        w = weights[i][: lim(i, 0)]
        col = np.zeros(lim(i, 0), dtype=np.int64)
        col[: w.size] = w % mod
        cols.append(col)
    out = [cols[0][: lim(0, 0)].copy()]
    for n in range(1, steps + 1):
        for idx in range(steps - n + 1):
            bound = lim(idx, n)
            if bound <= 0:
                continue
            off = base * (n + c0 + idx)
            src = cols[idx + 1][: lim(idx + 1, n - 1)]
            add = _conv_trunc(pw[off][: min(off + 1, bound)], src, bound, mod)
            if add.size:
                dst = cols[idx]
                dst[: add.size] = (dst[: add.size] + add) % mod
        out.append(cols[0][: lim(0, n)].copy())
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


def _xi_mod(family, depth: int, mod: int) -> list:
    """xi(0..depth) reduced mod ``mod``; int64 fast path with exact fallback."""
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    if mod < 2:
        raise InvalidParam("modulus must be at least 2")
    if (mod - 1) ** 2 * (depth + 1) >= 2 ** 62:
        # convolutions could overflow int64; take the slow exact road
        return [c % mod for c in xi_coeffs(family, depth).coeffs]
    step = 1 if family.kernel == "F" else 2
    if family.kind == "gk":
        top = 2 * depth + 2
    elif family.kind == "hikami":
        top = depth + 2
    else:
        top = 0
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
