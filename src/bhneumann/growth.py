"""Separation growth bounds as natural-log magnitudes.

Quantities like d(n)!/2 overflow doubles almost immediately, so every
bound is carried as a plain float, the natural log of its value, from
summed logs (or lgamma beyond the table).  The one big-integer check is
``exact_sandwich``: it computes its own factorials while they stay small
enough to materialize, independently of the magnitudes.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate

from .seqgen import GrowthProfile, SequenceSet

__all__ = [
    "log_factorial",
    "full_rf_upper",
    "bound_table",
    "stirling_check",
    "exact_sandwich",
    "envelope_report",
]

_EXACT_LIMIT = 2000
_TABLE_LIMIT = 1_000_000
# log(k!) for k = 0, 1, ..., summed one log at a time, grown on demand to
# the largest index log_factorial has read (at most _TABLE_LIMIT)
_cumlog = array("d", [0.0])
# candidate envelope constants c1, c2, c3 that envelope_report checks
_C1, _C2, _C3 = 72.0, 4.0, 1.0


def log_factorial(n: int) -> float:
    """log(n!) from a cumulative sum of logs up to 10^6, lgamma beyond.

    Past the float range (n near 10^305 and up) it is inf.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _TABLE_LIMIT:
        try:
            return math.lgamma(n + 1)
        except OverflowError:
            return math.inf
    top = len(_cumlog)
    if n >= top:
        sums = accumulate(map(math.log, range(top, n + 1)), initial=_cumlog[top - 1])
        next(sums)  # the initial value is stored already
        _cumlog.extend(sums)
    return _cumlog[n]


def _half_factorial(d: int) -> float:
    return log_factorial(d) - math.log(2.0)


def full_rf_upper(seqs: SequenceSet, N: int) -> list[float]:
    """Upper bounds for the all-elements variant at lengths n = 1..N.

    The product of the first 2n coordinates separates everything in the
    radius-n ball, so the bound at n is the sum of log(d(k)!/2) over
    k <= 2n.  One running sum over k = 1..2N yields every n at once.
    """
    seqs.ensure(2 * N)
    uppers = []
    total = 0.0
    for k in range(1, 2 * N + 1):
        total += _half_factorial(seqs.d_of(k))
        if k % 2 == 0:
            uppers.append(total)
    return uppers


def bound_table(seqs: SequenceSet, N: int) -> list[dict]:
    """Rows keyed n, kind, lower_log, upper_log of both bound families on 1..N.

    Each n has an rf row, then a full_rf row.  Both read one list,
    h(m) = log(d(m)!/2) for m = 1..N.  The rf upper column at n is h(n):
    one coordinate of that size suffices.  The lower column at n is the
    best proven point with word length <= n (0.0 before the first point
    applies), where separating the witness for coordinate m needs a
    quotient of size at least d(m)!/2, a point h(m) at word length
    4 + 4 r(m).  Each point goes into the bucket of its word length, and
    a running max over the buckets gives the staircase.  The full_rf
    upper column comes from one ``full_rf_upper`` call.
    """
    seqs.ensure(N)
    half = [_half_factorial(seqs.d_of(m)) for m in range(1, N + 1)]
    step = [0.0] * (N + 1)
    for m, h in enumerate(half, 1):
        length = 4 + 4 * seqs.r_of(m)
        if length <= N:
            step[length] = max(step[length], h)
    lower = list(accumulate(step, max))
    full = full_rf_upper(seqs, N)
    rows = []
    for n in range(1, N + 1):
        rows.append({"n": n, "kind": "rf", "lower_log": lower[n], "upper_log": half[n - 1]})
        rows.append({"n": n, "kind": "full_rf", "lower_log": lower[n], "upper_log": full[n - 1]})
    return rows


def _g_of(log_G: float) -> int:
    return math.ceil(log_G / math.log(log_G))


def stirling_check(profile: GrowthProfile, N: int, K: int) -> dict:
    """Empirical implied constants for the factorial expansion bounds.

    With g(n) = ceil(log G / log log G), the two claims are

      (a) log((K g(n))!)  =  K log G(n) + O(log G logloglog G / loglog G)
      (b) log((K n g(n))!) <= K n log G(n) + O(n log G log(n) / loglog G)

    For each the report holds the per-n ratio |error| / error-term (for
    (b) only the positive part of the error counts, the claim being one
    sided) and its sup.  The check starts at the first n >= 2 where
    logloglog G is positive and passes when the sup is finite and the
    tail is stable: the max ratio over the last tenth of the sampled
    range must not exceed twice the max over the first nine tenths.  A
    row whose errors or terms leave the float range has both ratios
    inf, so a log G too large for float arithmetic fails the check.
    """
    if K < 1 or N < 3:
        raise ValueError("need K >= 1 and N >= 3")
    rows = []
    start = None
    for n in range(2, N + 1):
        lg = profile.log_F(n)
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
        ratio_a = err_a / term_a
        ratio_b = max(err_b, 0.0) / term_b
        if not math.isfinite(err_a + err_b + term_a + term_b):
            ratio_a = ratio_b = math.inf  # past the float range: no finite ratio
        rows.append(
            {
                "n": n,
                "g": g,
                "ratio_a": ratio_a,
                "ratio_b": ratio_b,
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


def exact_sandwich(seqs: SequenceSet, N: int) -> dict:
    """Big-integer check (f(n))!/2 <= d(n)!/2 <= (2 f(n))! while the
    factorials stay materializable; rows outside desk scale are skipped."""
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


def envelope_report(rows: list[dict], profile: GrowthProfile) -> dict:
    """Check bound_table rows against the profile curve; rows are not changed.

    The candidate constants c1, c2, c3 (_C1, _C2, _C3) describe the
    envelope shape

      log F(n/c1 - c2) * (1 - c3 llls/lls)  and
      log F(c1 n + c2) * (2 + c3 llls/lls),

    where lls/llls abbreviate loglog and logloglog of the F value at the
    shifted argument.  The theorems only promise such constants exist,
    so the report checks the necessary consistency conditions: the
    candidate lower envelope must not exceed the proven upper bound and
    the proven lower staircase must not exceed the candidate upper
    envelope ("envelope_ok").  For bprime, "loglog_ok" checks
    log log F(n) >= log(n)^2 + log c for n = 2..min(N, 50); it is True
    for the other kinds.  A table profile must hold log F up to
    ceil(c1 N + c2), 72N + 4.
    """
    if profile.kind not in ("builtin", "table", "bprime"):
        raise ValueError("envelope reporting needs a builtin, table or bprime profile")
    rf_rows = [row for row in rows if row["kind"] == "rf"]
    env_ok = True
    for row in rf_rows:
        n = row["n"]
        lo_arg = math.floor(n / _C1 - _C2)
        if lo_arg >= 1:
            lf = profile.log_F(lo_arg)
            if lf > math.e**math.e:
                frac = math.log(math.log(math.log(lf))) / math.log(math.log(lf))
                if lf * max(0.0, 1.0 - _C3 * frac) > row["upper_log"] + 1e-9:
                    env_ok = False
        lf = profile.log_F(math.ceil(_C1 * n + _C2))
        if lf > math.e**math.e:
            frac = math.log(math.log(math.log(lf))) / math.log(math.log(lf))
            if row["lower_log"] > lf * (2.0 + _C3 * frac) + 1e-9:
                env_ok = False
    loglog_ok = profile.kind != "bprime" or all(
        math.log(profile.log_F(n)) >= math.log(n) ** 2 + math.log(profile.c) - 1e-9
        for n in range(2, min(len(rf_rows), 50) + 1)
    )
    return {"envelope_ok": env_ok, "loglog_ok": loglog_ok}
