"""Primality helpers used by the sequence and permutation modules."""

from __future__ import annotations

import numpy as np

# Deterministic Miller-Rabin witnesses graded by size.  Each row
# (bound, witnesses) holds the first k primes with psi_k = bound, psi_k
# the least strong pseudoprime to all of them, so they certify every
# n < bound.  The first row covering n is used, so a degree below
# 1 373 653 (toy and builtin at the sizes the CLI and tests run) needs 2
# rounds.  Past the last bound the test would be merely probabilistic, so
# is_prime refuses such inputs.
_MR_TABLE = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_LIMIT = _MR_TABLE[-1][0]
_SMALL_PRIMES = _MR_TABLE[-1][1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 3.3e24."""
    if n < 0 or n >= _MR_LIMIT:
        raise ValueError(f"is_prime supports 0 <= n < {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next(w for bound, w in _MR_TABLE if n < bound)
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


def sieve(limit: int) -> np.ndarray:
    """Boolean primality table for 0..limit inclusive (Eratosthenes)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = False
        p += 1
    return flags
