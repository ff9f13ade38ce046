"""Fishburn-type coefficients and prime-power congruence checks.

For any family the substitution q -> 1-q turns the partial sums into a
stable power series: kernel factor 1 - (1-q)**j has valuation 1, so term n
contributes nothing below degree n and the first D+1 coefficients are frozen
once N = D terms are summed.  ``xi_coeffs`` computes them exactly that way.

Congruence scanning wants depths in the hundreds, where exact integer
coefficients are enormous and pointless.  A second engine, the private
``_modular``, works modulo m from the start, in numpy float64 products,
exact while (m-1)**2 * (depth+1) < 2**53, and float32 ladder blocks below
2**24; the engines share no code and are tested against each other.
``verify_congruence`` reads one exact coefficient of the 1-q substitution,
in O(degree) big-integer steps, to cross-check the engine's least index,
and past the float64 edge, where every admitted depth leaves one index, in
place of the engine.  ``_xi_mod`` imports the engine, and numpy, only when
it runs, and memoizes per (family, depth, modulus); a modulus dividing
SHARED = lcm(1..16) reads, reduced, the one run per (family, depth) modulo
SHARED unless the family runs a column ladder.  Processes share nothing.
"""

import functools

from ._admit import (MAX_MODULAR_WORK, MAX_PARTIAL_SUM_WORK, MAX_TABLE_BYTES,
                     InvalidParam, admit)
from ._record import Record
from .exactpoly import _one_minus_q_coeff, subst_one_minus_q
from .qfamilies import _shape, partial_sum, partial_sum_work

__all__ = [
    "EngineMismatch",
    "CongruenceReport",
    "ScanReport",
    "xi_coeffs",
    "verify_congruence",
    "scan_congruences",
    "MAX_TABLE_BYTES",
    "MAX_MODULAR_WORK",
]

# lcm(1..16) = 2**4 * 3**2 * 5 * 7 * 11 * 13: _xi_mod answers every modulus
# that divides it from one engine run modulo it, per (family, depth)
SHARED = 720_720

# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound; a larger p is refused rather than guessed at.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class EngineMismatch(ArithmeticError):
    """The modular engine disagrees with the exact one at a cross-checked index."""


def xi_coeffs(family, depth: int) -> tuple:
    """xi(0..depth), a tuple of depth + 1 ints: the 1-q substitution of
    the exact partial sum, which reads the memo's immutable IntPoly.

    Refused with InvalidParam, before anything is computed, when the
    partial sum at N = depth and its substitution, partial_sum_work(family,
    depth, depth), are over MAX_PARTIAL_SUM_WORK.
    """
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, depth, depth),
          f"partial-sum and 1-q work of {family.label} at N = {depth}")
    sub = subst_one_minus_q(partial_sum(family, depth), depth)
    return sub.coeffs + (0,) * (depth + 1 - len(sub.coeffs))


# -- road choice and guards ---------------------------------------------------

def _table_plan(family, depth: int):
    """(last row of the (1-x)**e table, bytes of the engine's tables).

    The bytes count that table and, for laddered families, 4 n (n+1)
    words, n = depth + 1, which bound one ladder's buffers: its column
    block of at most (n+1)**2 words, and its Toeplitz kernel and two step
    buffers of at most n**2 words each.  The words are 8 bytes, as in a
    float64 ladder; a float32 ladder's 4-byte words stay within them.
    Only the levels after the first build the table and a ladder, so for
    gk:k=2 and hikami:m=2, whose one level takes O(n) words, and for
    gk:k=1, which has no level, the count is an upper bound.
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


def modular_work(family, depth: int) -> int:
    """Work estimate for xi mod m at this depth, from the family alone.

    With n = depth + 1, it counts n**3 for the xi accumulation and n**4 / 4
    for each ladder level (k-1 of gk:k, m-1 of hikami:m).  That overcounts
    the engine, which computes only the residues it reads: the Horner
    accumulation makes n truncated convolutions of up to n by n terms, the
    first level two per step, about 2 n**3 / 3 steps in all, and each later
    level's trimmed row blocks take about n**4 / 12 matrix-product steps.
    So for gk:k=2 and hikami:m=2, whose one level is the first, the count
    is an upper bound well above their cost.  The count stays the
    admission measure, so the accepted depths are those of
    MAX_MODULAR_WORK's comment in _admit.  Below depth 175 a
    level counts its set-up instead, (3*10**5 + 6000 n) n for the numpy
    calls of its n steps and its n**2-word block, fitted to _sub_ladder_mod
    on a 2-vCPU Xeon VM: the most levels admitted at any depth take
    0.3-3.3 s mod 5 (see MAX_MODULAR_WORK's comment).
    """
    n, levels = depth + 1, _levels(family)
    return n ** 3 + levels * max(n ** 4, 4 * (3 * 10 ** 5 + 6000 * n) * n) // 4


def _levels(family) -> int:
    """The number of ladder levels of the family's weights."""
    return sum(count for count, *_ in _shape(family)[0])


def _admit_depth(family, depth: int) -> int:
    """Refuse a depth over MAX_TABLE_BYTES or MAX_MODULAR_WORK before any
    work, else give the last (1-x)**e table row; admitted depths are < 3684."""
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    top, size = _table_plan(family, depth)
    admit("MAX_TABLE_BYTES", size, f"modular table bytes of {family.label} "
          f"at depth {depth} (about {size >> 20} MiB)")
    admit("MAX_MODULAR_WORK", modular_work(family, depth),
          f"modular work of {family.label} at depth {depth}")
    return top


def _float_exact(mod: int, depth: int) -> bool:
    """Whether the engine's float64 products mod ``mod`` are exact at depth."""
    return (mod - 1) ** 2 * (depth + 1) < 2 ** 53


@functools.lru_cache(maxsize=256)
def _xi_mod(family, depth: int, mod: int) -> tuple:
    """xi(0..depth) mod ``mod`` by the modular engine; the latest 256 memoized.

    A divisor of SHARED below it reads the run modulo SHARED, reduced,
    unless the family has a level after the first, whose column ladder
    would leave float32 for float64 at SHARED.  _admit_depth refuses the
    depth first; a modulus past the float64 edge is then a caller's bug.
    """
    if mod < 2:
        raise InvalidParam("modulus must be at least 2")
    top = _admit_depth(family, depth)
    if not _float_exact(mod, depth):
        raise ValueError(f"modulus {mod} is past the float64 edge")
    if mod != SHARED and SHARED % mod == 0 and _levels(family) < 2:
        return tuple(v % mod for v in _xi_mod(family, depth, SHARED))
    from ._modular import xi_residues

    return xi_residues(family, depth, mod, top)


def _xi_exact(family, n: int, mod: int) -> int:
    """xi(n) mod ``mod``, exact, refused as partial_sum(family, n) is."""
    return _one_minus_q_coeff(partial_sum(family, n), n) % mod


# -- congruence checking ------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_TEST_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power(p: int, r: int, reach: int) -> int:
    """p**r after the O(1) checks on p and r; primality is checked last.

    reach bounds the moduli that leave an index within the depth.  A
    2**r over it is refused before the power, which could take minutes
    to form, is computed; below it p**r has at most 82 * bits(reach) bits.
    """
    if p < 2:
        raise InvalidParam(f"p must be prime, got {p}")
    if p >= PRIME_TEST_LIMIT:
        raise InvalidParam(f"p = {p} is over the primality test's limit "
                           f"PRIME_TEST_LIMIT = {PRIME_TEST_LIMIT}")
    if r < 1:
        raise InvalidParam("r must be at least 1")
    if r > max(reach, 0).bit_length():
        raise InvalidParam(f"{p}**{r} is over {reach}: no index is left to test")
    return p ** r


def _require_prime(p: int):
    if not _is_prime(p):
        raise InvalidParam(f"p must be prime, got {p}")


class CongruenceReport(Record):
    """verify_congruence outcome (witness set only on failure); equality compares every field."""

    __slots__ = ("family_label", "p", "r", "beta", "depth", "indices_checked",
                 "verdict", "witness", "residue")

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


class ScanReport(Record):
    """scan_congruences outcome: every passing beta; equality compares every field."""

    __slots__ = ("family_label", "p", "r", "depth", "passing_beta")

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
    report carries the least counterexample index and its residue.  The
    depth is admitted as the engine's is.  An exact read of the least index
    cross-checks the engine (EngineMismatch) when that index is at most 64
    and xi_coeffs there is within MAX_PARTIAL_SUM_WORK.  Past the float64
    edge the modulus is over the depth, and that read is the whole check.
    """
    mod = _prime_power(p, r, depth + max(beta, 1))
    if not 1 <= beta <= mod:
        raise InvalidParam(f"beta must lie in 1..{mod}, got {beta}")
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    first = mod - beta
    if first > depth:
        raise InvalidParam("depth too small to test any index")
    _require_prime(p)
    if _float_exact(mod, depth):
        vals = _xi_mod(family, depth, mod)
        checked = first <= 64 and \
            partial_sum_work(family, first, first) <= MAX_PARTIAL_SUM_WORK
        if checked and _xi_exact(family, first, mod) != vals[first]:
            raise EngineMismatch(
                "modular engine disagrees with exact coefficients")
    else:
        _admit_depth(family, depth)
        vals = {first: _xi_exact(family, first, mod)}
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
    mod = _prime_power(p, r, depth + 1)
    if depth < 0 or (depth + 1) // mod < 3:
        raise InvalidParam(
            f"need at least 3 indices per class: depth >= {3 * mod - 1}")
    _require_prime(p)
    vals = _xi_mod(family, depth, mod)
    passing = tuple(b for b in range(1, mod + 1)
                    if not any(vals[i] for i in range(mod - b, depth + 1, mod)))
    return ScanReport(family.label, p, r, depth, passing)
