"""Fishburn-type coefficients and prime-power congruence checks.

For any family the substitution q -> 1-q turns the partial sums into a
stable power series: kernel factor 1 - (1-q)**j has valuation 1, so term n
contributes nothing below degree n and the first D+1 coefficients are frozen
once N = D terms are summed.  ``xi_coeffs`` computes them exactly that way.

Congruence scanning wants depths in the hundreds, where exact integer
coefficients are enormous and pointless.  A second engine, in the private
module ``_modular``, therefore works modulo m from the start, in numpy
float64 products that are exact while (m-1)**2 * (depth+1) < 2**53; larger
moduli take the exact road.  Below 2**24 its ladder blocks run in float32,
which is exact there too.  The two engines share no code and are tested
against each other, and ``verify_congruence`` cross-checks the least index
it tests against the exact partial sum: one coefficient of its 1-q
substitution, in O(degree) big-integer steps.  ``_xi_mod`` decides the
road: it refuses oversized requests by table bytes and by work before
anything is computed, and it imports the modular engine, and with it
numpy, only when that engine runs.  Its results are memoized per (family,
depth, modulus), and a modulus that divides SHARED = lcm(1..16) reads,
reduced, the one run per (family, depth) modulo SHARED, unless the family
runs a column ladder.  So congruence checks modulo 5, 7, 11, 13, 16, ...
of one family and depth share one run of the engine within a process;
separate processes, such as separate CLI calls, share nothing.
"""

import functools

from ._admit import (MAX_MODULAR_WORK, MAX_PARTIAL_SUM_WORK, MAX_TABLE_BYTES,
                     InvalidParam, admit)
from ._record import Record
from .exactpoly import _one_minus_q_coeff, subst_one_minus_q
from .qfamilies import _shape, partial_sum, partial_sum_work

__all__ = [
    "EngineMismatch",
    "XiSequence",
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


class XiSequence(Record):
    """Coefficients xi(0..D) of family(1-q), exact; equality compares both fields."""

    __slots__ = ("family_label", "coeffs")

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
    """xi(0..depth), exact, as the 1-q substitution of the exact partial sum.

    Refused with InvalidParam, before anything is computed, when the
    partial sum at N = depth and its substitution, partial_sum_work(family,
    depth, depth), are over MAX_PARTIAL_SUM_WORK.
    """
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    admit("MAX_PARTIAL_SUM_WORK", partial_sum_work(family, depth, depth),
          f"partial-sum and 1-q work of {family.label} at N = {depth}")
    sub = subst_one_minus_q(partial_sum(family, depth).value, depth)
    return XiSequence(family.label,
                      sub.coeffs + (0,) * (depth + 1 - len(sub.coeffs)))


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


@functools.lru_cache(maxsize=256)
def _xi_mod(family, depth: int, mod: int) -> tuple:
    """xi(0..depth) reduced mod ``mod``, memoized per (family, depth, mod)
    (the latest 256 entries).

    A modulus below SHARED that divides it reads the run modulo SHARED, so
    one run per (family, depth) serves them all, each reduced once into its
    own entry.  A family with a level after the first keeps its own
    modulus: its column ladder would leave float32 for float64 at SHARED.
    That run is taken only where SHARED's float64 products are exact,
    which holds up to depth 17339, past every depth MAX_MODULAR_WORK
    admits.  The memo lives in one process: separate CLI calls share no run.

    The fast road needs (mod-1)**2 * (depth+1) < 2**53, so that its float64
    products are exact; above that the exact coefficients are reduced.  On
    the fast road, a ladder below 2**24 takes its products in float32.
    Either way, a depth whose tables would pass MAX_TABLE_BYTES, or whose
    modular_work passes MAX_MODULAR_WORK, is refused with InvalidParam
    before anything is computed or imported; the exact road is refused
    as well when xi_coeffs is, over MAX_PARTIAL_SUM_WORK.
    """
    if depth < 0:
        raise InvalidParam("depth must be nonnegative")
    if mod < 2:
        raise InvalidParam("modulus must be at least 2")
    top, size = _table_plan(family, depth)
    admit("MAX_TABLE_BYTES", size, f"modular table bytes of {family.label} "
          f"at depth {depth} (about {size >> 20} MiB)")
    admit("MAX_MODULAR_WORK", modular_work(family, depth),
          f"modular work of {family.label} at depth {depth}")
    if mod != SHARED and SHARED % mod == 0 and _levels(family) < 2 \
            and (SHARED - 1) ** 2 * (depth + 1) < 2 ** 53:
        return tuple(v % mod for v in _xi_mod(family, depth, SHARED))
    if (mod - 1) ** 2 * (depth + 1) >= 2 ** 53:
        # float64 products could round; take the slow exact road
        return tuple(c % mod for c in xi_coeffs(family, depth).coeffs)
    from ._modular import xi_residues

    return xi_residues(family, depth, mod, top)


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
    report carries the least counterexample index and its residue.  When the
    smallest index is at most 64 and xi_coeffs there is within
    MAX_PARTIAL_SUM_WORK, the exact engine recomputes that coefficient as a
    cross-check on the modular one, and raises EngineMismatch if they
    differ: xi(k) = (-1)**k sum_(e>=k) c_e C(e, k) over the coefficients
    c_e of the partial sum at N = k, one pass of O(degree) big-integer
    steps rather than the whole substitution.
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
    vals = _xi_mod(family, depth, mod)
    if first <= 64 and \
            partial_sum_work(family, first, first) <= MAX_PARTIAL_SUM_WORK:
        exact = _one_minus_q_coeff(partial_sum(family, first).value, first)
        if exact % mod != vals[first]:
            raise EngineMismatch(
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
    mod = _prime_power(p, r, depth + 1)
    if depth < 0 or (depth + 1) // mod < 3:
        raise InvalidParam(
            f"need at least 3 indices per class: depth >= {3 * mod - 1}")
    _require_prime(p)
    vals = _xi_mod(family, depth, mod)
    passing = tuple(b for b in range(1, mod + 1)
                    if not any(vals[i] for i in range(mod - b, depth + 1, mod)))
    return ScanReport(family.label, p, r, depth, passing)
