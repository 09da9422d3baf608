"""Size, prime divisor and offset sequences derived from a growth profile.

The pipeline is f -> d -> r.  A profile fixes the target curve F through
its natural log; the size floor is f(n) = ceil(log F(n + C2) / log log
F(n + C2)) unless the profile prescribes f directly (the linear "toy"
profiles).  The divisor d(n) is the smallest prime >= max(f(n), 5), and
the offset r(n) is the first k in the window (n, 18n - 1] that meets two
admissibility conditions against all earlier indices m < n:

  (a)  k is not congruent to +-r(m) or +-2 r(m) modulo d(m), and
  (b)  r(m) is not congruent to +-k or +-2k modulo d(n).

The window is sieved, not scanned candidate by candidate.  Condition (a)
does not depend on n, so one bitmap over k in [1, H] carries it for the
whole sequence: each derived index marks its four residues by first hit
plus stride d(m), and when a window edge passes H the bitmap doubles and
only the new stretch is marked.  Condition (b) is, for d(n) odd,
k = +-r(m) or +-r(m)/2 (mod d(n)); each window marks those at most
4(n - 1) residues in one vectorised pass.  The first position neither
condition blocks is r(n), and its place in the window is the number of
rejected candidates, so equal inputs always give equal sequences.
Moduli of 2**62 and above (the bprime profile reaches them) are handled
with exact Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._primes import _MR_LIMIT, is_prime, next_prime, sieve
from .errors import (
    DivisorTooSmall,
    NoAdmissibleResidue,
    ProfileTooSmall,
    SequenceConstructionError,
)

__all__ = [
    "GrowthProfile",
    "SequenceSet",
    "f_of",
    "is_prime",
    "next_prime",
    "sieve",
]


def _require_int(**named) -> None:
    for name, x in named.items():
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{name} must be an integer, got {x!r}")


def _require_finite(**named) -> None:
    for name, x in named.items():
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ValueError(f"{name} must be a finite number, got {x!r}")


@dataclass(frozen=True)
class GrowthProfile:
    """A target growth curve, represented through its natural log.

    kind is one of "toy", "builtin", "bprime", "table".  Toy profiles
    skip the inverse size map and prescribe f(n) = slope*n + intercept
    directly.  C2 shifts the index fed to the inverse map; eps is the
    exponent knob on the inner loglog factor.
    """

    kind: str
    c: float = 1.0
    eps: float = 1.0
    C2: int = 0
    slope: int = 0
    intercept: int = 0
    table_values: tuple[float, ...] = ()

    @classmethod
    def toy(cls, slope: int = 16, intercept: int = 64) -> "GrowthProfile":
        """Linear size floor; the default keeps d(n) >= 16n at every index."""
        _require_int(slope=slope, intercept=intercept)
        if slope < 1 or intercept < 0:
            raise ValueError("toy profile needs slope >= 1 and intercept >= 0")
        return cls(kind="toy", slope=slope, intercept=intercept)

    @classmethod
    def builtin(
        cls, c: float = 1.0, eps: float = 1.0, C2: int = 256
    ) -> "GrowthProfile":
        """log F(n) = c * n * log(t)^2 * (log log t)^(1+eps), t = max(n, 16).

        The floor at t = 16 keeps the curve positive and increasing on
        small indices without changing its asymptotics.
        """
        _require_finite(c=c, eps=eps)
        _require_int(C2=C2)
        if c <= 0 or eps <= 0:
            raise ValueError("builtin profile needs c > 0 and eps > 0")
        return cls(kind="builtin", c=c, eps=eps, C2=C2)

    @classmethod
    def bprime(cls, c: float = 1.0, C2: int = 256) -> "GrowthProfile":
        """log F(n) = c * n**log(n); the superfast reference curve."""
        _require_finite(c=c)
        _require_int(C2=C2)
        if c <= 0:
            raise ValueError("bprime profile needs c > 0")
        return cls(kind="bprime", c=c, C2=C2)

    @classmethod
    def from_table(
        cls, values: Sequence[float], C2: int = 0
    ) -> "GrowthProfile":
        """Explicit log F values for indices 1..len(values)."""
        vals = tuple(values)
        if not vals:
            raise ValueError("table profile needs at least one value")
        _require_finite(**{f"table value {i}": v for i, v in enumerate(vals, 1)})
        _require_int(C2=C2)
        return cls(kind="table", C2=C2, table_values=tuple(float(v) for v in vals))

    def log_F(self, n: int) -> float:
        """Natural log of the target curve at index n >= 1."""
        if n < 1:
            raise ValueError("index must be >= 1")
        if self.kind == "toy":
            return math.lgamma(self.slope * n + self.intercept + 1)
        if self.kind == "builtin":
            t = max(n, 16)
            return self.c * n * math.log(t) ** 2 * math.log(math.log(t)) ** (
                1.0 + self.eps
            )
        if self.kind == "bprime":
            return self.c * math.exp(math.log(n) ** 2)
        if self.kind == "table":
            if n > len(self.table_values):
                raise SequenceConstructionError(
                    f"table profile has no value at index {n}"
                )
            return self.table_values[n - 1]
        raise SequenceConstructionError(f"unknown profile kind {self.kind!r}")


def f_of(profile: GrowthProfile, n: int) -> int:
    """Size floor at index n: the inverse of x -> log(x!) applied to log F.

    Uses the standard two-sided inverse ceil(y / log y) with
    y = log F(n + C2).  Toy profiles return slope*n + intercept as is.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if profile.kind == "toy":
        return profile.slope * n + profile.intercept
    y = profile.log_F(n + profile.C2)
    if y <= 1.0:
        raise ProfileTooSmall(
            f"log F({n + profile.C2}) = {y:.6g} is too small for the inverse map"
        )
    return math.ceil(y / math.log(y))


# Offsets, window edges and the moduli the sieve keeps in int64 stay below
# 2**62, so a residue plus a modulus never overflows.  Condition (b) takes
# a larger d(n) in exact object-dtype arithmetic; condition (a) caps a
# larger d(m) at this bound (see _OffsetSieve.add).
_INT64_SAFE = 1 << 62

# Scale of the advisory growth floor in validate_hypotheses.
_GROWTH_FLOOR_C0 = 1.0


def _mark(view: np.ndarray, lo: int, c: np.ndarray, d) -> None:
    """Set view[k - lo - 1] for every k in (lo, lo + len(view)] with k = c (mod d).

    c holds residues in [0, d] and d their moduli (an array of the same
    length or one int); each residue is placed at its first hit above lo
    and then strided by its modulus until it leaves the stretch.  The
    arithmetic runs in place: fresh temporaries of this size cost more
    than the operations themselves.
    """
    first = lo % d + 1  # lo + 1 as a residue in [1, d]
    j = np.multiply(c < first, d, dtype=c.dtype)
    j += c
    j -= first  # j = k - lo - 1 for the first hit k
    while True:
        inside = j < len(view)
        j = j[inside]
        if not j.size:
            return
        view[j.astype(np.intp, copy=False)] = True
        if np.ndim(d):
            d = d[inside]
        j += d


class _OffsetSieve:
    """Blocked window positions for the greedy offset search.

    Condition (a) depends only on k and on the indices already added, so
    it lives in one persistent bitmap over k in [0, H].  Each added index
    marks its residues +-r, +-2r (mod d) once; when a window reaches past
    H, the bitmap doubles and only the new stretch is marked, for all
    indices at once.  Condition (b) depends on the modulus of the index
    being derived and is marked per window.
    """

    def __init__(self) -> None:
        self._blocked = np.zeros(1, dtype=bool)  # position k at index k
        self._res: list[int] = []  # condition (a) residues ...
        self._mod: list[int] = []  # ... and their moduli, capped
        self._r = np.empty(64, dtype=np.int64)  # offsets, for condition (b)
        self._r_max = -1
        self._count = 0

    def add(self, d: int, r: int) -> None:
        """Record index (d, r): mark its condition (a) residues up to H."""
        if not 0 <= r < _INT64_SAFE or d < 1:
            raise ValueError(f"offset sieve needs d >= 1 and 0 <= r < 2**62, got {(d, r)}")
        res = [r % d, -r % d, 2 * r % d, -2 * r % d]
        if d >= _INT64_SAFE:
            # The bitmap never reaches 2**62, so such a modulus hits each
            # residue at most once, exactly as the stride 2**62 does.
            res = [c for c in res if c < _INT64_SAFE]
            d = _INT64_SAFE
        self._res += res
        self._mod += [d] * len(res)
        _mark(self._blocked[1:], 0, np.array(res, dtype=np.int64), d)
        if self._count == len(self._r):
            self._r = np.concatenate([self._r, np.empty_like(self._r)])
        self._r[self._count] = r
        self._r_max = max(self._r_max, r)
        self._count += 1

    def _grow(self, hi: int) -> None:
        old = len(self._blocked) - 1
        if hi <= old:
            return
        top = max(2 * old, hi)
        if top >= _INT64_SAFE:
            raise ValueError(f"offset window edge {hi} is beyond the sieve's range")
        blocked = np.zeros(top + 1, dtype=bool)
        blocked[: old + 1] = self._blocked
        res = np.array(self._res, dtype=np.int64)
        _mark(blocked[old + 1 :], old, res, np.array(self._mod, dtype=np.int64))
        self._blocked = blocked

    def scan(self, lo: int, width: int, d_n: int) -> tuple[int, int]:
        """First admissible offset in (lo, lo + width], plus the reject count.

        d_n is the odd modulus of the index being derived.  A position is
        blocked by condition (a) through the bitmap and by condition (b)
        when k = +-r(m) or +-r(m)/2 (mod d_n) for some added r(m); the
        first position neither blocks is the offset, and its place in the
        window is the number of candidates rejected before it.  Raises
        NoAdmissibleResidue when the whole window is blocked.
        """
        if lo < 0 or width < 1 or d_n % 2 == 0:
            raise ValueError(f"bad window ({lo}, {lo + width}] or even modulus {d_n}")
        hi = lo + width
        self._grow(hi)
        window = self._blocked[lo + 1 : hi + 1].copy()
        m = self._count
        c = np.empty(4 * m, dtype=object if d_n >= _INT64_SAFE else np.int64)
        a, neg, half, neg_half = c[:m], c[m : 2 * m], c[2 * m : 3 * m], c[3 * m :]
        a[:] = self._r[:m]
        if self._r_max >= d_n:
            a %= d_n
        np.subtract(d_n, a, out=neg)
        np.bitwise_and(a, 1, out=half)  # a * 2^-1 mod d_n, d_n odd
        half *= d_n
        half += a
        half >>= 1
        np.subtract(d_n, half, out=neg_half)
        _mark(window, lo, c, d_n)
        i = int(np.argmin(window))
        if window[i]:
            raise NoAdmissibleResidue(0, lo, hi)
        return lo + 1 + i, i


class SequenceSet:
    """Memoized f, d, r sequences with a certificate per derived index.

    Indices are 1-based; the offset window of index n has lower edge
    q(n) = n.  Every derived index records a certificate dict (window,
    chosen offset, reject count) so reports can show why each value was
    picked.
    """

    def __init__(self, profile: GrowthProfile):
        self.profile = profile
        self._f: list[int] = []
        self._d: list[int] = []
        self._r: list[int] = []
        self.certificates: dict[int, dict] = {}
        self.is_preset = False
        self._sieve = _OffsetSieve()

    @classmethod
    def preset(
        cls,
        d: Sequence[int],
        r: Sequence[int],
        f: Sequence[int] | None = None,
    ) -> "SequenceSet":
        """Explicit tables for worked examples and tests.

        No derivation and no admissibility scanning happens, so the
        tables may violate the construction's own conditions on purpose.
        Certificates are marked preset.
        """
        if len(d) != len(r):
            raise ValueError("d and r must have equal length")
        obj = cls.__new__(cls)
        obj.profile = GrowthProfile(kind="table", table_values=(0.0,))
        obj._d = [int(x) for x in d]
        obj._r = [int(x) for x in r]
        obj._f = [int(x) for x in f] if f is not None else list(obj._d)
        obj.certificates = {
            n: {"preset": True} for n in range(1, len(obj._d) + 1)
        }
        obj.is_preset = True
        return obj

    @property
    def known(self) -> int:
        return len(self._d)

    def ensure(self, n: int) -> None:
        if n < 1:
            raise ValueError("index must be >= 1")
        if self.is_preset:
            if n > len(self._d):
                raise SequenceConstructionError(
                    f"preset tables end at index {len(self._d)}"
                )
            return
        while len(self._d) < n:
            self._derive(len(self._d) + 1)

    def f_of(self, n: int) -> int:
        self.ensure(n)
        return self._f[n - 1]

    def d_of(self, n: int) -> int:
        self.ensure(n)
        return self._d[n - 1]

    def r_of(self, n: int) -> int:
        self.ensure(n)
        return self._r[n - 1]

    def _derive(self, n: int) -> None:
        """Derive f(n), d(n) and r(n) and record the certificate of index n.

        d(n) must pass the Bertrand bracket d <= 2f and the floor
        d >= 16n (DivisorTooSmall).  r(n) is the first position of the
        window (n, 18n - 1] that the offset sieve leaves open, and the
        positions before it are the reject count; a fully blocked window
        raises NoAdmissibleResidue, and an offset not below d(n)/3 raises
        SequenceConstructionError.  A divisor past the deterministic
        Miller-Rabin range is reported as a SequenceConstructionError for
        index n.  Only a fully derived index reaches the sieve and the
        tables.
        """
        f = f_of(self.profile, n)
        try:
            d = next_prime(max(f, 5))
        except ValueError as exc:  # beyond the deterministic Miller-Rabin range
            raise SequenceConstructionError(
                f"no certified prime divisor d({n}) at or above f({n}) = {f}: {exc}"
            ) from exc
        if f >= 3 and d > 2 * f:
            raise SequenceConstructionError(
                f"next prime after {f} exceeded the Bertrand bound {2 * f}"
            )
        if d < 16 * n:
            raise DivisorTooSmall(n, d)
        width = 17 * n - 1
        try:
            k, rejected = self._sieve.scan(n, width, d)
        except NoAdmissibleResidue as exc:
            raise NoAdmissibleResidue(n, n, n + width) from exc
        if not 3 * k < d:
            raise SequenceConstructionError(
                f"offset r({n}) = {k} is not below d({n})/3 = {d / 3:.2f}"
            )
        self._sieve.add(d, k)
        self._f.append(f)
        self._d.append(d)
        self._r.append(k)
        self.certificates[n] = {
            "f": f,
            "d": d,
            "q": n,
            "r": k,
            "window": (n, n + width),
            "rejected": rejected,
        }

    def validate_hypotheses(self, N: int) -> dict:
        """Check the construction's standing hypotheses on indices 1..N.

        Hard conditions (any failure flips "ok"): d(n) is an odd prime
        certified by deterministic Miller-Rabin (a modulus past its range
        counts as not prime), d(n) >= 16n, n <= d(n)/4, the offset lies in
        its window below d(n)/3, and the pairwise conditions (a) and (b)
        hold for every m < n.  A row that fails them counts, in
        "pairwise_violations", the earlier indices breaking (a) plus those
        breaking (b); summed over all rows this is the number of ordered
        pairs (i, j), i != j, with r(j) = +-r(i) or +-2 r(i) (mod d(i)).
        Two asymptotic conditions are reported separately under "info"
        flags because finite prefixes of slow profiles can fail them while
        the derived data stays perfectly usable: the growth floor
        d(n) >= C0 * n * log n * (loglog n)^(1+eps) + C0 with
        C0 = _GROWTH_FLOOR_C0 (checked for n >= 3) and the tail bound
        sum(1/d(m)) < 1/16.
        """
        self.ensure(N)
        # int64 holds 2r exactly below 2**62; larger values stay Python ints
        dtype = np.int64 if all(abs(x) < 2**62 for x in self._d[:N] + self._r[:N]) else object
        D = np.array(self._d[:N], dtype=dtype)
        R = np.array(self._r[:N], dtype=dtype)
        # condition (a): row n tests r(n) against these residues of every m < n
        blocked_a = np.stack([R % D, -R % D, 2 * R % D, -2 * R % D])
        rows = []
        series = 0.0
        all_hard = True
        all_growth = True
        for n in range(1, N + 1):
            d = self._d[n - 1]
            r = self._r[n - 1]
            prime_ok = d % 2 == 1 and 0 < d < _MR_LIMIT and is_prime(d)
            floor_ok = d >= 16 * n
            window_ok = n <= d // 4
            offset_ok = n < r <= 18 * n - 1 and 3 * r < d
            blocked_b = np.array([r % d, -r % d, 2 * r % d, -2 * r % d], dtype=dtype)
            hit_a = blocked_a[:, : n - 1] == r % D[: n - 1]  # column m: (a) against index m
            hit_b = (R[: n - 1] % d)[:, None] == blocked_b  # row m: (b) against index m
            pair_ok = not (hit_a.any() or hit_b.any())
            violations = 0
            if not pair_ok:
                violations = int(hit_a.any(axis=0).sum() + hit_b.any(axis=1).sum())
            if n >= 3:
                lln = math.log(math.log(n))
                c0 = _GROWTH_FLOOR_C0
                floor_val = c0 * n * math.log(n) * lln ** (1.0 + self.profile.eps) + c0
                growth_ok = d >= floor_val
            else:
                growth_ok = True
            series += 1.0 / d
            hard = prime_ok and floor_ok and window_ok and offset_ok and pair_ok
            all_hard = all_hard and hard
            all_growth = all_growth and growth_ok
            rows.append(
                {
                    "n": n,
                    "f": self._f[n - 1] if self._f else d,
                    "d": d,
                    "r": r,
                    "prime_ok": prime_ok,
                    "floor16_ok": floor_ok,
                    "window_ok": window_ok,
                    "offset_ok": offset_ok,
                    "pairwise_ok": pair_ok,
                    "pairwise_violations": violations,
                    "growth_floor_ok": growth_ok,
                }
            )
        return {
            "rows": rows,
            "ok": all_hard,
            "info": {
                "growth_floor_ok": all_growth,
                "series_value": series,
                "series_ok": series < 1.0 / 16.0,
            },
        }
