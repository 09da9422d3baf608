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
does not depend on n, so one bytearray over k in [0, H] carries it for
the whole sequence: each derived index marks its four residues with one
strided slice per residue.  ensure(N) sizes the array to the last window
edge 18N - 1 (at most 2^24 positions) before it derives, so each residue
is marked once; only growth one index at a time makes a window edge pass
H, and then the array doubles and only the new stretch is marked.
Condition (b) is tested only at the positions (a) leaves open, which
bytearray.find walks in order: k is rejected when +-k or +-2k (mod d(n))
is an earlier offset (taken mod d(n) once some offset reaches d(n)).
The first position neither condition blocks is r(n), and its place in
the window is the number of rejected candidates, so equal inputs always
give equal sequences.  Everything is exact Python integer arithmetic, whatever the
size of the moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _require_index_shift(C2) -> None:
    _require_int(C2=C2)
    if C2 < 0:
        raise ValueError(f"C2 must be >= 0, got {C2}")


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
        _require_index_shift(C2)
        if c <= 0 or eps <= 0:
            raise ValueError("builtin profile needs c > 0 and eps > 0")
        return cls(kind="builtin", c=c, eps=eps, C2=C2)

    @classmethod
    def bprime(cls, c: float = 1.0, C2: int = 256) -> "GrowthProfile":
        """log F(n) = c * n**log(n); the superfast reference curve."""
        _require_finite(c=c)
        _require_index_shift(C2)
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
        _require_index_shift(C2)
        return cls(kind="table", C2=C2, table_values=tuple(float(v) for v in vals))

    def log_F(self, n: int) -> float:
        """Natural log of the target curve at index n >= 1.

        A value past the float range, from finite but extreme
        parameters, raises SequenceConstructionError.
        """
        if n < 1:
            raise ValueError("index must be >= 1")
        if self.kind == "table":
            if n > len(self.table_values):
                raise SequenceConstructionError(
                    f"table profile has no value at index {n}"
                )
            return self.table_values[n - 1]
        try:
            if self.kind == "toy":
                y = math.lgamma(self.slope * n + self.intercept + 1)
            elif self.kind == "builtin":
                t = max(n, 16)
                y = self.c * n * math.log(t) ** 2 * math.log(math.log(t)) ** (
                    1.0 + self.eps
                )
            elif self.kind == "bprime":
                y = self.c * math.exp(math.log(n) ** 2)
            else:
                raise SequenceConstructionError(f"unknown profile kind {self.kind!r}")
        except OverflowError:
            y = math.inf
        if not math.isfinite(y):
            raise SequenceConstructionError(f"log F({n}) is past the float range")
        return y


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


# Scale of the advisory growth floor in validate_hypotheses.
_GROWTH_FLOOR_C0 = 1.0


def _pairwise_violations(D: list[int], R: list[int]) -> list[int]:
    """Per index n, the m < n breaking condition (a) plus those breaking (b).

    Both conditions ask which offsets lie in the classes +-r(j), +-2r(j)
    modulo d(j) of one index j: an offset r(i), i > j, in them breaks
    (a) for row i, and one with i < j breaks (b) for row j.  So a dict
    from offset value to the indices holding it is built once, and each
    class of each j is walked through [min r, max r] in steps of d(j),
    span / d(j) lookups per class.  Where that walk would be longer than
    the table (a small modulus against a wide spread of preset offsets),
    r(i) mod d(j) is compared directly for every i instead.  An index
    hit in several classes of j counts once.
    """
    N = len(R)
    where: dict[int, list[int]] = {}
    for i, x in enumerate(R):
        where.setdefault(x, []).append(i)
    lo, hi = min(R), max(R)
    counts = [0] * N
    for j in range(N):
        d, r = abs(D[j]), R[j]  # the classes mod d and mod -d are the same
        classes = {r % d, -r % d, 2 * r % d, -2 * r % d}
        if (hi - lo) // d < N:
            hits = {
                i
                for c in classes
                for x in range(lo + (c - lo) % d, hi + 1, d)
                for i in where.get(x, ())
            }
        else:
            hits = {i for i, x in enumerate(R) if x % d in classes}
        hits.discard(j)
        for i in hits:
            counts[max(i, j)] += 1
    return counts


# Cap on the positions ensure sizes the offset sieve to up front, so a
# request far past the index where a profile stops (toy stops at 4593)
# allocates no more than 16 MB before the error; a sieve that really
# reaches past it doubles as it goes.
_PRESIZE_LIMIT = 1 << 24


class _OffsetSieve:
    """Blocked window positions for the greedy offset search.

    Condition (a) depends only on k and on the indices already added, so
    it lives in one persistent bytearray over k in [0, H], a nonzero byte
    marking a blocked k.  Each added index marks its residues +-r, +-2r
    (mod d) up to H.  SequenceSet.ensure sizes the array once, to the
    last window it will scan, so a single ensure marks each residue once.
    When a window still reaches past H (growth one index at a time), the
    array doubles and only the new stretch is marked, for every stored
    residue.  Condition (b) depends on the modulus of the index being
    derived and is tested against the set of added offsets, position by
    position.
    """

    def __init__(self) -> None:
        self._blocked = bytearray(1)  # position k at index k
        self._residues: list[tuple[int, int]] = []  # condition (a): (residue, modulus)
        self._used: set[int] = set()  # offsets, for condition (b)
        self._r_max = -1

    def _mark(self, c: int, d: int, lo: int) -> None:
        """Block every k in (lo, H] with k = c (mod d)."""
        first = lo + 1 + (c - lo - 1) % d
        count = (len(self._blocked) - 1 - first) // d + 1
        if count > 0:
            self._blocked[first::d] = b"\x01" * count

    def add(self, d: int, r: int) -> None:
        """Record index (d, r): mark its condition (a) residues up to H."""
        if d < 1 or r < 0:
            raise ValueError(f"offset sieve needs d >= 1 and r >= 0, got {(d, r)}")
        for c in {r % d, -r % d, 2 * r % d, -2 * r % d}:
            self._residues.append((c, d))
            self._mark(c, d, 0)
        self._used.add(r)
        self._r_max = max(self._r_max, r)

    def _grow(self, hi: int) -> None:
        old = len(self._blocked) - 1
        if hi <= old:
            return
        self._blocked += bytes(max(old, hi - old))  # H becomes max(2H, hi)
        for c, d in self._residues:
            self._mark(c, d, old)

    def scan(self, lo: int, width: int, d_n: int) -> tuple[int, int]:
        """First admissible offset in (lo, lo + width], plus the reject count.

        lo is the index being derived (its window's lower edge q(n) = n)
        and d_n its modulus.  bytearray.find walks the positions
        condition (a) leaves open; such a k is blocked by condition (b)
        when k, -k, 2k or -2k (mod d_n) is an added offset r(m), read
        mod d_n.  The first position neither blocks is the offset, and
        its place in the window is the number of candidates rejected
        before it.  Raises NoAdmissibleResidue for index lo when the
        whole window is blocked.
        """
        if lo < 0 or width < 1 or d_n < 1:
            raise ValueError(f"bad window ({lo}, {lo + width}] or modulus {d_n}")
        hi = lo + width
        self._grow(hi)
        used = self._used if self._r_max < d_n else {r % d_n for r in self._used}
        k = self._blocked.find(0, lo + 1, hi + 1)
        while k != -1:
            if used.isdisjoint((k % d_n, -k % d_n, 2 * k % d_n, -2 * k % d_n)):
                return k, k - lo - 1
            k = self._blocked.find(0, k + 1, hi + 1)
        raise NoAdmissibleResidue(lo, lo, hi)


class SequenceSet:
    """Memoized f, d, r sequences with a certificate per derived index.

    Indices are 1-based; the offset window of index n has lower edge
    q(n) = n.  Every derived index records a certificate dict so reports
    can show why each value was picked: its keys, in this order, are f,
    d, q, r, window_lo and window_hi (the window (window_lo, window_hi]
    = (n, 18n - 1] searched for r), and rejected (the positions of that
    window before r).
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
    def preset(cls, d: Sequence[int], r: Sequence[int]) -> "SequenceSet":
        """Explicit tables for worked examples and tests.

        No derivation and no admissibility scanning happens, so the
        tables may violate the construction's own conditions on purpose.
        Certificates are marked preset, and f is read as d.

        The word problem (neumann.is_trivial, equal, signature) reads a
        preset as the first coordinates of a tower whose later
        coordinates clear every span.  Such coordinates see only the lamp
        state, so a word that is the identity at every preset coordinate
        is still nontrivial when its lamp state is: on preset([7], [2]),
        b a^7 B A^7 is the identity at coordinate 1, yet its lamps at
        shifts 0 and 7 make it nontrivial.

        A zero modulus raises ValueError: no residue class is taken
        modulo 0.  Negative moduli are kept; they name the same classes as
        their absolute values.
        """
        if len(d) != len(r):
            raise ValueError("d and r must have equal length")
        if 0 in d:
            raise ValueError("a preset modulus must be nonzero")
        obj = cls.__new__(cls)
        obj.profile = GrowthProfile(kind="table", table_values=(0.0,))
        obj._d = [int(x) for x in d]
        obj._r = [int(x) for x in r]
        obj._f = list(obj._d)
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
        if len(self._d) < n:
            # size to the last window edge: each residue is marked once
            self._sieve._grow(min(18 * n - 1, _PRESIZE_LIMIT))
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
        k, rejected = self._sieve.scan(n, width, d)
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
            "window_lo": n,
            "window_hi": n + width,
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
        violations = _pairwise_violations(self._d[:N], self._r[:N])
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
            pair_ok = violations[n - 1] == 0
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
                    "f": self._f[n - 1],
                    "d": d,
                    "r": r,
                    "prime_ok": prime_ok,
                    "floor16_ok": floor_ok,
                    "window_ok": window_ok,
                    "offset_ok": offset_ok,
                    "pairwise_ok": pair_ok,
                    "pairwise_violations": violations[n - 1],
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
