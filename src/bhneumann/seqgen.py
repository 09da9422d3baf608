"""Size, prime divisor and offset sequences derived from a growth profile.

The pipeline is f -> d -> r.  A profile fixes the target curve F through
its natural log; the size floor is f(n) = ceil(log F(n + C2) / log log
F(n + C2)) unless the profile prescribes f directly (the linear "toy"
profiles).  The divisor d(n) is the smallest prime >= max(f(n), 5), and
the offset r(n) is found by a greedy scan over the window
(n, 18n - 1] subject to two admissibility conditions against
all earlier indices m < n:

  (a)  r(n) is not congruent to +-r(m) or +-2 r(m) modulo d(m), and
  (b)  r(m) is not congruent to +-r(n) or +-2 r(n) modulo d(n).

The scan takes the first admissible candidate, so equal inputs always
give equal sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._primes import is_prime, next_prime, sieve
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
    directly.  C2 shifts the index fed to the inverse map; C0 and C1 are
    the constants quoted in hypothesis reports; eps is the exponent knob
    on the inner loglog factor.
    """

    kind: str
    c: float = 1.0
    eps: float = 1.0
    C0: float = 1.0
    C1: float = 1.0
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
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("table profile needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"table profile values must be finite, got {list(vals)}")
        _require_int(C2=C2)
        return cls(kind="table", C2=C2, table_values=vals)

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


def _scan_window(
    lo: int, width: int, prior: list[tuple[int, int]], d_n: int
) -> tuple[int, int]:
    """First admissible offset in (lo, lo + width], plus the reject count.

    prior holds (d(m), r(m)) for every earlier index; admissibility is
    conditions (a) and (b) from the module docstring.  Raises
    NoAdmissibleResidue when the whole window is rejected.
    """
    rejected = 0
    for k in range(lo + 1, lo + width + 1):
        ok = True
        for dm, rm in prior:
            km = k % dm
            if km == rm % dm or km == (-rm) % dm:
                ok = False
                break
            if km == (2 * rm) % dm or km == (-2 * rm) % dm:
                ok = False
                break
            rn = rm % d_n
            if rn == k % d_n or rn == (-k) % d_n:
                ok = False
                break
            if rn == (2 * k) % d_n or rn == (-2 * k) % d_n:
                ok = False
                break
        if ok:
            return k, rejected
        rejected += 1
    raise NoAdmissibleResidue(0, lo, lo + width)


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
        f = f_of(self.profile, n)
        d = next_prime(max(f, 5))
        if f >= 3 and d > 2 * f:
            raise SequenceConstructionError(
                f"next prime after {f} exceeded the Bertrand bound {2 * f}"
            )
        if d < 16 * n:
            raise DivisorTooSmall(n, d)
        width = 17 * n - 1
        prior = list(zip(self._d, self._r))
        try:
            k, rejected = _scan_window(n, width, prior, d)
        except NoAdmissibleResidue as exc:
            raise NoAdmissibleResidue(n, n, n + width) from exc
        if not 3 * k < d:
            raise SequenceConstructionError(
                f"offset r({n}) = {k} is not below d({n})/3 = {d / 3:.2f}"
            )
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

        Hard conditions (any failure flips "ok"): d(n) is an odd prime,
        d(n) >= 16n, n <= d(n)/4, the offset lies in its window
        below d(n)/3, and the pairwise conditions (a) and (b) hold for
        every m < n.  Two asymptotic conditions are reported separately
        under "info" flags because finite prefixes of slow profiles can
        fail them while the derived data stays perfectly usable: the
        growth floor d(n) >= C0 * n * log n * (loglog n)^(1+eps) + C0
        (checked for n >= 3) and the tail bound sum(1/d(m)) < 1/16.
        """
        self.ensure(N)
        rows = []
        series = 0.0
        all_hard = True
        all_growth = True
        for n in range(1, N + 1):
            d = self._d[n - 1]
            r = self._r[n - 1]
            prime_ok = d % 2 == 1 and is_prime(d)
            floor_ok = d >= 16 * n
            window_ok = n <= d // 4
            offset_ok = n < r <= 18 * n - 1 and 3 * r < d
            pair_ok = True
            for m in range(1, n):
                dm, rm = self._d[m - 1], self._r[m - 1]
                km = r % dm
                if km in ((rm) % dm, (-rm) % dm, (2 * rm) % dm, (-2 * rm) % dm):
                    pair_ok = False
                rn = rm % d
                if rn in (r % d, (-r) % d, (2 * r) % d, (-2 * r) % d):
                    pair_ok = False
            if n >= 3:
                lln = math.log(math.log(n))
                floor_val = (
                    self.profile.C0
                    * n
                    * math.log(n)
                    * lln ** (1.0 + self.profile.eps)
                    + self.profile.C0
                )
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
