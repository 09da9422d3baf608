"""Separation growth bounds as natural-log magnitudes.

Quantities like d(n)!/2 overflow doubles almost immediately, so every
bound is carried as a plain float, the natural log of its value, from
summed logs (or lgamma beyond the table).  The one big-integer check is
``exact_sandwich``: it computes its own factorials while they stay small
enough to materialize, independently of the magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .seqgen import GrowthProfile, SequenceSet

__all__ = [
    "BoundTable",
    "log_factorial",
    "rf_lower_points",
    "rf_upper",
    "full_rf_upper",
    "bound_table",
    "stirling_check",
    "exact_sandwich",
    "envelope_report",
]

_EXACT_LIMIT = 2000
_TABLE_LIMIT = 1_000_000
_cumlog: np.ndarray | None = None


@dataclass
class BoundTable:
    """Rows of (n, lower_log, upper_log, kind), kind in {rf, full_rf}."""

    rows: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def consistent(self) -> bool:
        return all(row["lower_log"] <= row["upper_log"] for row in self.rows)


def _cumlog_table() -> np.ndarray:
    global _cumlog
    if _cumlog is None:
        logs = np.log(np.arange(1, _TABLE_LIMIT + 1, dtype=np.float64))
        _cumlog = np.concatenate([[0.0], np.cumsum(logs)])
    return _cumlog


def log_factorial(n: int) -> float:
    """log(n!) from a cumulative sum of logs up to 10^6, lgamma beyond."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= _TABLE_LIMIT:
        return float(_cumlog_table()[n])
    return math.lgamma(n + 1)


def _half_factorial(d: int) -> float:
    return log_factorial(d) - math.log(2.0)


def _seqs_of(ctx) -> SequenceSet:
    if isinstance(ctx, SequenceSet):
        return ctx
    return ctx.seqs


def rf_lower_points(ctx, M: int) -> list[dict]:
    """Proven lower points: separating any witness for coordinate m needs
    a quotient of size at least d(m)!/2, at word length 4 + 4 r(m)."""
    seqs = _seqs_of(ctx)
    seqs.ensure(M)
    rows = []
    for m in range(1, M + 1):
        d = seqs.d_of(m)
        r = seqs.r_of(m)
        rows.append(
            {
                "m": m,
                "n": 4 + 4 * r,
                "lower": _half_factorial(d),
                "kind": "rf",
            }
        )
    return rows


def rf_upper(ctx, n: int) -> float:
    """Upper bound at length n: one coordinate of size d(n)!/2 suffices."""
    seqs = _seqs_of(ctx)
    return _half_factorial(seqs.d_of(n))


def full_rf_upper(ctx, N: int) -> list[float]:
    """Upper bounds for the all-elements variant at lengths n = 1..N.

    The product of the first 2n coordinates separates everything in the
    radius-n ball, so the bound at n is the sum of log(d(k)!/2) over
    k <= 2n.  One running sum over k = 1..2N yields every n at once.
    """
    seqs = _seqs_of(ctx)
    seqs.ensure(2 * N)
    uppers = []
    total = 0.0
    for k in range(1, 2 * N + 1):
        total += _half_factorial(seqs.d_of(k))
        if k % 2 == 0:
            uppers.append(total)
    return uppers


def bound_table(ctx, N: int) -> BoundTable:
    """Both bound families on 1..N, with the staircase of lower points.

    The lower column at n is the best proven point with word length <= n
    (0.0 before the first point applies): each point goes into the bucket
    of its word length, and a running max over the buckets gives the
    staircase.  The full_rf column comes from one ``full_rf_upper`` call.
    """
    seqs = _seqs_of(ctx)
    points = rf_lower_points(seqs, N)
    step = [0.0] * (N + 1)
    for row in points:
        if row["n"] <= N:
            step[row["n"]] = max(step[row["n"]], row["lower"])
    lower = list(accumulate(step, max))
    full = full_rf_upper(seqs, N)
    table = BoundTable()
    for n in range(1, N + 1):
        best = lower[n]
        up = rf_upper(seqs, n)
        table.rows.append(
            {"n": n, "lower_log": best, "upper_log": up, "kind": "rf"}
        )
        table.rows.append(
            {
                "n": n,
                "lower_log": best,
                "upper_log": full[n - 1],
                "kind": "full_rf",
            }
        )
    table.meta["points"] = [
        {"m": row["m"], "n": row["n"], "lower_log": row["lower"]}
        for row in points
    ]
    return table


def _g_of(log_G: float) -> int:
    return math.ceil(log_G / math.log(log_G))


def stirling_check(
    profile: GrowthProfile | Callable[[int], float],
    N: int,
    K: int,
) -> dict:
    """Empirical implied constants for the factorial expansion bounds.

    With g(n) = ceil(log G / log log G), the two claims are

      (a) log((K g(n))!)  =  K log G(n) + O(log G logloglog G / loglog G)
      (b) log((K n g(n))!) <= K n log G(n) + O(n log G log(n) / loglog G)

    For each the report holds the per-n ratio |error| / error-term (for
    (b) only the positive part of the error counts, the claim being one
    sided) and its sup.  The check starts at the first n >= 2 where
    logloglog G is positive and passes when the sup is finite and the
    tail is stable: the max ratio over the last tenth of the sampled
    range must not exceed twice the max over the first nine tenths.
    """
    if K < 1 or N < 3:
        raise ValueError("need K >= 1 and N >= 3")
    log_G = profile.log_F if isinstance(profile, GrowthProfile) else profile
    rows = []
    start = None
    for n in range(2, N + 1):
        lg = log_G(n)
        if lg <= math.e**math.e:
            continue
        if start is None:
            start = n
        llg = math.log(lg)
        lllg = math.log(llg)
        g = _g_of(lg)
        err_a = abs(log_factorial(K * g) - K * lg)
        term_a = lg * lllg / llg
        err_b = log_factorial(K * n * g) - K * n * lg
        term_b = n * lg * math.log(n) / llg
        rows.append(
            {
                "n": n,
                "g": g,
                "ratio_a": err_a / term_a,
                "ratio_b": max(err_b, 0.0) / term_b,
                "sandwich_ok": 1.0 <= g * llg / lg <= 2.0,
            }
        )
    if not rows:
        raise ValueError("profile never exceeded exp(e^e) on the sampled range")
    ratios_a = [row["ratio_a"] for row in rows]
    ratios_b = [row["ratio_b"] for row in rows]

    def stable(ratios: list[float]) -> bool:
        split = max(1, (len(ratios) * 9) // 10)
        head = max(ratios[:split])
        tail = max(ratios[split:]) if ratios[split:] else 0.0
        return tail <= 2.0 * max(head, 1e-12)

    sup_a = max(ratios_a)
    sup_b = max(ratios_b)
    report = {
        "K": K,
        "start_n": start,
        "count": len(rows),
        "sup_a": sup_a,
        "sup_b": sup_b,
        "stable_a": stable(ratios_a),
        "stable_b": stable(ratios_b),
        "sandwich_ok": all(row["sandwich_ok"] for row in rows),
        "rows": rows,
    }
    report["ok"] = (
        math.isfinite(sup_a)
        and math.isfinite(sup_b)
        and report["stable_a"]
        and report["stable_b"]
        and report["sandwich_ok"]
    )
    return report


def exact_sandwich(ctx, N: int) -> dict:
    """Big-integer check (f(n))!/2 <= d(n)!/2 <= (2 f(n))! while the
    factorials stay materializable; rows outside desk scale are skipped."""
    seqs = _seqs_of(ctx)
    seqs.ensure(N)
    rows = []
    ok = True
    for n in range(1, N + 1):
        f = seqs.f_of(n)
        d = seqs.d_of(n)
        if d > _EXACT_LIMIT or 2 * f > _EXACT_LIMIT:
            continue
        lo = math.factorial(f) // 2
        mid = math.factorial(d) // 2
        hi = math.factorial(2 * f)
        row_ok = lo <= mid <= hi
        ok = ok and row_ok
        rows.append({"n": n, "ok": row_ok})
    return {"rows": rows, "ok": ok}


def envelope_report(
    table: BoundTable,
    profile: GrowthProfile,
    constants: dict | None = None,
) -> BoundTable:
    """Check a bound table against the profile curve; returns the table.

    Candidate constants {"c1", "c2", "c3"} describe the envelope shape

      log F(n/c1 - c2) * (1 - c3 llls/lls)  and
      log F(c1 n + c2) * (2 + c3 llls/lls),

    where lls/llls abbreviate loglog and logloglog of the F value at the
    shifted argument.  The theorems only promise such constants exist,
    so the report checks the necessary consistency conditions: the
    candidate lower envelope must not exceed the proven upper bound and
    the proven lower staircase must not exceed the candidate upper
    envelope.  Each rf row gains log_F and the envelope values, and the
    verdicts ("envelope_ok", plus the bprime "loglog_ok" and its rows)
    go into table.meta.  A table profile must hold log F up to
    ceil(c1 N + c2), 72N + 4 by default.
    """
    if profile.kind not in ("builtin", "table", "bprime"):
        raise ValueError("envelope reporting needs a builtin, table or bprime profile")
    cs = {"c1": 72.0, "c2": 4.0, "c3": 1.0}
    if constants:
        cs.update(constants)
    rf_rows = [row for row in table.rows if row["kind"] == "rf"]
    env_ok = True
    for row in rf_rows:
        n = row["n"]
        row["log_F"] = profile.log_F(n)
        lo_arg = math.floor(n / cs["c1"] - cs["c2"])
        if lo_arg >= 1:
            lf = profile.log_F(lo_arg)
            if lf > math.e**math.e:
                frac = math.log(math.log(math.log(lf))) / math.log(math.log(lf))
                env_lower = lf * max(0.0, 1.0 - cs["c3"] * frac)
                row["env_lower"] = env_lower
                if env_lower > row["upper_log"] + 1e-9:
                    env_ok = False
        hi_arg = math.ceil(cs["c1"] * n + cs["c2"])
        lf = profile.log_F(hi_arg)
        if lf > math.e**math.e:
            frac = math.log(math.log(math.log(lf))) / math.log(math.log(lf))
            env_upper = lf * (2.0 + cs["c3"] * frac)
            row["env_upper"] = env_upper
            if row["lower_log"] > env_upper + 1e-9:
                env_ok = False
    loglog_rows = []
    loglog_ok = True
    if profile.kind == "bprime":
        for n in range(2, min(len(rf_rows), 50) + 1):
            lf = profile.log_F(n)
            lhs = math.log(lf)
            rhs = math.log(n) ** 2 + math.log(profile.c)
            ok = lhs >= rhs - 1e-9
            loglog_ok = loglog_ok and ok
            loglog_rows.append({"n": n, "loglog_F": lhs, "floor": rhs, "ok": ok})
    table.meta.update(
        {
            "constants": cs,
            "envelope_ok": env_ok,
            "loglog_rows": loglog_rows,
            "loglog_ok": loglog_ok,
        }
    )
    return table
