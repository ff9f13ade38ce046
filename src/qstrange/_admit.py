"""Resource limits, and the one rule that refuses a request over them.

Every guard estimates the work or memory of a request from its parameters
alone, next to the code the estimate models, and passes it to admit, which
raises InvalidParam (exit 2 at the CLI) before any of that work is done.
The limits and their calibrations live here; each is also importable from
the module that guards with it.
"""

__all__ = ["InvalidParam", "admit"]


class InvalidParam(ValueError):
    """Parameter outside its legal range, or a request over a limit."""


# qfamilies: partial_sum refuses a request whose partial_sum_work is over
# this: the deepest accepted N is 321 for kz, 271 for gk:k=1, 67 for gk:k=2,
# 50 for gk:k=3, 80 for hikami:m=2 and 59 for hikami:m=3.  On a 2-vCPU Xeon
# VM each of those sums takes 0.12-0.2 s, except kz and gk:k=1, whose
# packed sums need four and eight words a coefficient: 0.5-0.6 s and
# 0.7-0.75 s.  scan --beta past the float64 edge reads its one index n from
# the sum at N = n, so 0.8-1.0 s for kz and 1.3-1.5 s for gk:k=1 at most.
# xi_coeffs counts its 1-q substitution as well, so its deepest depth is 270
# for kz, 231 for gk:k=1 and 49 for gk:k=3 (the others as above), taking
# 1.1-1.5 s for kz and gk:k=1, whose substitution grows the coefficients
# past the words counted, and under 0.3 s for the rest.
MAX_PARTIAL_SUM_WORK = 10 ** 8

# fishburn: the modular engine refuses, before it allocates anything, a
# request whose _table_bytes is over this (256 MiB: up to depth 262135 for
# kz and gk:k=1, 5727 for gk:k=2 and hikami:m=2, and 1921 for gk:k>=3 and
# hikami:m>=3).  MAX_MODULAR_WORK below refuses each of those depths too.
MAX_TABLE_BYTES = 2 ** 28

# fishburn: it also refuses a request whose modular_work is over this: the
# deepest accepted depth is 3683 for kz and gk:k=1, 666 for gk:k=2 and
# hikami:m=2, and 560 for gk:k=3 and hikami:m=3.  On a 2-vCPU Xeon VM kz
# and gk:k=1 take 1.3-2.2 s there, and gk:k=2 and hikami:m=2, whose one
# level is the two-column first level, 0.12-0.17 s.  gk:k=3 and hikami:m=3
# take 0.7-0.8 s while their second ladders run in float32 (for every
# modulus up to 159), and 1.1-1.3 s in float64.  The many-level inputs
# admitted at small depths (modular_work's set-up floor), mod 5: gk:k=163399
# at depth 0 takes 0.28-0.45 s, 24802 at depth 5 2.0-2.9 s and 1527 at
# depth 52 2.1-3.3 s.
MAX_MODULAR_WORK = 5 * 10 ** 10

# partialtheta: largest accepted l_value_work / gamma_work.  On a 2-vCPU
# Xeon VM the deepest accepted, lvalue --char chi_kz --n 574 and gamma --n
# 123 at period 24, take 0.2 s and 0.3-0.4 s.
MAX_L_WORK = 2 * 10 ** 8

# partialtheta: largest accepted twisted period lcm(T, b*k).  On a 2-vCPU
# Xeon VM a character file of period 99991, nonzero but at 0, takes 1.8 s
# at k = 1.  A fold mod Phi_k that would cost over 2k steps directly makes
# one pass per binomial of Phi_k: lvalue --char chi6 --k 33322 (k = 2p)
# takes 0.6 s, --k 30030 0.9 s, and a file with b = 1 at k = 99998 1.3 s.
# A character whose period at k = 1, lcm(T, b), is over it is refused
# when it is built, since validating it scans that many indices.
MAX_TWIST_PERIOD = 10 ** 5

# strangematch: largest accepted stable_derivative index for match_expansion,
# which builds the partial sum at that index once and reads it at every
# order.  At q = 1, on a 2-vCPU Xeon VM, kz at index 100 takes 0.2-0.35 s,
# most of it outside the sum, and gk:k=1 0.02 s; gk:k=2 at 67, gk:k=3 at
# 50 and hikami:m=2 at 80, where MAX_PARTIAL_SUM_WORK stops them, take
# 0.13-0.16 s, most of it the sum.
MAX_MATCH_INDEX = 100

# strangematch: largest accepted c_array_work, which counts the printing of
# the row as well as its arithmetic, since str() of an entry is quadratic
# in its digits: the deepest accepted ell at i = 1, s = 5 is 1049, a fresh
# CLI call that prints 2.2 MB in about 0.7 s on a 2-vCPU Xeon VM (ell 1492
# was admitted before the printing was counted).  --i 9999999999 at ell
# 600, whose 6000-digit entries passed the interpreter's default limit on
# int-string conversion, and 4000 nines at ell 80, which ran 52 s, are
# refused up front.
MAX_C_ARRAY_WORK = 10 ** 10

# cli: largest accepted identity_check_work: under 0.8 s on a 2-vCPU Xeon VM.
MAX_IDENTITY_WORK = 10 ** 6

# dissection: largest accepted residue_set scan, lcm(T, b*s) indices, of
# which only the support is visited: under 0.2 s on a 2-vCPU Xeon VM, even
# when chi vanishes nowhere.
MAX_RESIDUE_SPAN = 10 ** 6

# dissection: largest accepted dissection modulus s: one part per residue,
# so kz at N = 1 and s = 10**5 prints 3.3 MB of JSON, in under 1 s on a
# 2-vCPU Xeon VM.
MAX_DISSECT_MODULUS = 10 ** 5


def admit(name: str, amount: int, what: str) -> None:
    """Refuse, with InvalidParam, an amount over the limit called name."""
    limit = globals()[name]
    if amount > limit:
        raise InvalidParam(f"{what}: {amount} is over {name} = {limit}")
