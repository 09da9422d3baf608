"""Growth bounds: log-domain magnitudes against big integers computed here."""

import copy
import math
from array import array
from itertools import accumulate

import pytest

import bhneumann.growth as growth_module
from bhneumann import (
    GrowthProfile,
    SequenceSet,
    ball,
    bound_table,
    envelope_report,
    exact_sandwich,
    full_rf_upper,
    log_factorial,
    stirling_check,
)


def close_to_log(got: float, exact: int) -> bool:
    """got equals log(exact) to 1e-9 relative; exact is a big integer."""
    want = math.log(exact)
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


# --- log_factorial ---------------------------------------------------------

def test_log_factorial_small_exact():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert isinstance(log_factorial(5), float)
    assert close_to_log(log_factorial(5), 120)
    assert close_to_log(log_factorial(17), 355_687_428_096_000)


def test_log_factorial_consistent():
    for n in (0, 1, 2, 3, 10, 100, 500, 1999, 2000, 2001):
        assert close_to_log(log_factorial(n), math.factorial(n))


def test_log_factorial_matches_lgamma():
    for n in (0, 1, 2, 5, 10, 100, 10_000, 999_999, 1_000_000, 1_000_001, 2_000_000):
        got = log_factorial(n)
        want = math.lgamma(n + 1)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_log_factorial_stirling_sandwich():
    # integral bounds: n log n - n + 1 <= log n! <= n log n
    for n in (2, 3, 10, 77, 1000, 33_333, 100_000):
        lf = log_factorial(n)
        assert n * math.log(n) - n + 1 <= lf <= n * math.log(n)


def test_log_factorial_table_grows_lazily_to_one_full_pass(monkeypatch):
    monkeypatch.setattr(growth_module, "_cumlog", array("d", [0.0]))
    got = {}
    reads = [(10, 11), (345_600, 345_601), (5, 345_601), (10**6, 10**6 + 1), (10**6 + 1, 10**6 + 1)]
    for n, size in reads:  # index read, table length after the read
        got[n] = log_factorial(n)
        assert len(growth_module._cumlog) == size
    full = array("d", [0.0, *accumulate(map(math.log, range(1, 10**6 + 1)))])
    assert growth_module._cumlog.tobytes() == full.tobytes()
    for n in (10, 345_600, 5, 10**6):
        assert got[n].hex() == full[n].hex()
    # the table's last entry and lgamma's first meet at 10^6
    for n in (10**6, 10**6 + 1):
        assert math.isclose(got[n], math.lgamma(n + 1), rel_tol=1e-9)
    assert got[10**6 + 1] == math.lgamma(10**6 + 2)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_factorial_past_the_float_range_is_inf():
    assert math.isfinite(log_factorial(10**300))
    assert log_factorial(10**306) == log_factorial(10**400) == math.inf


# --- bound families ----------------------------------------------------------

# first coordinate (17, 5), whose witness has length 4 + 4*5 = 24; every
# later offset is 50, so no other lower point lies at a length <= 24
SEVENTEEN = dict(d=[17] + [7] * 47, r=[5] + [50] * 47)


def rf_rows(seqs, N):
    return [row for row in bound_table(seqs, N) if row["kind"] == "rf"]


def test_bound_table_rf_lower_preset():
    rows = rf_rows(SequenceSet.preset(**SEVENTEEN), 24)
    assert [row["n"] for row in rows] == list(range(1, 25))
    assert all(row["lower_log"] == 0.0 for row in rows[:23])
    assert math.factorial(17) // 2 == 177_843_714_048_000
    assert close_to_log(rows[23]["lower_log"], 177_843_714_048_000)


def test_bound_table_rf_upper_preset():
    (row,) = rf_rows(SequenceSet.preset(**SEVENTEEN), 1)
    assert row["n"] == 1
    assert close_to_log(row["upper_log"], math.factorial(17) // 2)


def test_full_rf_upper_preset_product():
    seqs = SequenceSet.preset(d=[5, 5], r=[2, 2])
    full = full_rf_upper(seqs, 1)
    assert len(full) == 1
    assert (math.factorial(5) // 2) ** 2 == 3600
    assert close_to_log(full[0], 3600)


def test_bound_chain_toy(toy_ctx):
    # single-coordinate bound <= product bound <= ball^2 scaled bound
    upper = {(row["kind"], row["n"]): row["upper_log"] for row in bound_table(toy_ctx.seqs, 8)}
    for n in range(1, 5):
        assert upper["rf", n] <= upper["full_rf", n]
        b = len(ball(toy_ctx, n))
        assert upper["full_rf", n] <= b * b * upper["rf", 2 * n]


def consistent(rows: list[dict]) -> bool:
    return all(row["lower_log"] <= row["upper_log"] for row in rows)


def test_bound_table_toy(toy_ctx):
    seqs = toy_ctx.seqs
    rows = bound_table(seqs, 16)
    assert consistent(rows)
    rf = [row for row in rows if row["kind"] == "rf"]
    assert len(rf) == 16
    lows = [row["lower_log"] for row in rf]
    assert lows == sorted(lows)
    # first proven point sits at n = 4 + 4*r(1) = 12
    assert lows[10] == 0.0
    assert lows[11] > 0.0
    # the staircase is the running max of the points at word length <= n:
    # log(d(m)!/2) at length 4 + 4 r(m)
    points = [(4 + 4 * seqs.r_of(m), log_factorial(seqs.d_of(m)) - math.log(2.0))
              for m in range(1, 17)]
    for row in rf:
        reached = [h for length, h in points if length <= row["n"]]
        assert row["lower_log"] == max(reached, default=0.0)


def test_bound_table_accepts_bare_sequences(toy_seqs):
    assert consistent(bound_table(toy_seqs, 4))


def test_bound_table_builtin_small():
    seqs = SequenceSet(GrowthProfile.builtin())
    assert consistent(bound_table(seqs, 5))


def pointwise_table(seqs, N):
    """bound_table rows by the definition, one n at a time: the lower
    column is the max over every point log(d(m)!/2) of word length
    4 + 4 r(m) <= n, the rf upper column log(d(n)!/2), the full_rf column
    a fresh sum of log(d(k)!/2) over k <= 2n."""

    def half(m):
        return log_factorial(seqs.d_of(m)) - math.log(2.0)

    points = [(4 + 4 * seqs.r_of(m), half(m)) for m in range(1, N + 1)]
    rows = []
    for n in range(1, N + 1):
        best = 0.0
        for length, h in points:
            if length <= n:
                best = max(best, h)
        full = 0.0
        for k in range(1, 2 * n + 1):
            full += half(k)
        rows.append({"n": n, "kind": "rf", "lower_log": best, "upper_log": half(n)})
        rows.append({"n": n, "kind": "full_rf", "lower_log": best, "upper_log": full})
    return rows


# d(m) and r(m) of a preset whose lower points (word lengths 20, 8, 16, 12
# for m = 1..4) are out of length order, and whose point at length 16
# (d = 13) lies below the staircase already reached at 12 (d = 23).
SHUFFLED = dict(d=[29, 11, 13, 23] + [7] * 36, r=[4, 1, 3, 2] + [50] * 36)
# two points at word length 12, the larger (d = 23) first
TIED = dict(d=[23, 13] + [7] * 22, r=[2, 2] + [50] * 22)


@pytest.mark.parametrize(
    "make,N",
    [
        pytest.param(lambda: SequenceSet(GrowthProfile.toy()), 40, id="toy-40"),
        pytest.param(lambda: SequenceSet(GrowthProfile.builtin()), 15, id="builtin-15"),
        pytest.param(lambda: SequenceSet(GrowthProfile.bprime()), 12, id="bprime-12"),
        pytest.param(lambda: SequenceSet.preset(**SHUFFLED), 20, id="shuffled-20"),
        pytest.param(lambda: SequenceSet.preset(**TIED), 12, id="tied-12"),
    ],
)
def test_bound_table_matches_pointwise_definition(make, N):
    seqs = make()
    # exact float equality: the one-pass table adds the same terms in the
    # same order as the pointwise sums
    assert bound_table(seqs, N) == pointwise_table(seqs, N)


def test_bound_table_staircase_out_of_length_order():
    seqs = SequenceSet.preset(**SHUFFLED)
    lows = [row["lower_log"] for row in bound_table(seqs, 20) if row["kind"] == "rf"]
    half = {d: log_factorial(d) - math.log(2.0) for d in (11, 23, 29)}
    want = [0.0] * 7 + [half[11]] * 4 + [half[23]] * 8 + [half[29]]
    assert lows == want


# --- factorial expansion check ------------------------------------------------

SQUARES = GrowthProfile.from_table([float(n * n) for n in range(1, 1001)])


def test_stirling_check_square_exponent():
    report = stirling_check(SQUARES, N=1000, K=2)
    assert report["ok"]
    assert report["start_n"] == 4
    assert report["count"] == 997
    assert math.isfinite(report["sup_a"]) and math.isfinite(report["sup_b"])
    assert report["sandwich_ok"]


def test_stirling_check_builtin_profile():
    for K in (1, 3):
        report = stirling_check(GrowthProfile.builtin(), N=400, K=K)
        assert report["ok"]
        assert report["K"] == K


def test_stirling_check_rejects_bad_args():
    with pytest.raises(ValueError):
        stirling_check(SQUARES, N=2, K=1)
    with pytest.raises(ValueError):
        stirling_check(SQUARES, N=100, K=0)
    with pytest.raises(ValueError):
        stirling_check(GrowthProfile.from_table([1.0] * 100), N=100, K=1)


def test_stirling_check_fails_past_the_float_range():
    # log G = 1e308: log((K g)!) and the error terms leave the float range
    profile = GrowthProfile.from_table([5000.0, 5000.0] + [1e308] * 98)
    for K in (1, 3):
        report = stirling_check(profile, N=100, K=K)
        assert report["sup_a"] == report["sup_b"] == math.inf
        assert not report["ok"]


# --- exact sandwich and envelopes ----------------------------------------------

def test_exact_sandwich_toy(toy_ctx):
    report = exact_sandwich(toy_ctx.seqs, 20)
    assert report["ok"]
    assert len(report["rows"]) == 20
    assert all(row["ok"] for row in report["rows"])


def test_exact_sandwich_skips_large_rows():
    seqs = SequenceSet(GrowthProfile.builtin())
    report = exact_sandwich(seqs, 3)
    assert report["ok"] and report["rows"] == []  # d(1) = 2333 > 2000


def test_envelope_rejects_toy(toy_ctx):
    with pytest.raises(ValueError):
        envelope_report(bound_table(toy_ctx.seqs, 5), GrowthProfile.toy())


def loglog_floor_holds(prof, n: int) -> bool:
    return math.log(prof.log_F(n)) >= math.log(n) ** 2 + math.log(prof.c) - 1e-9


def test_envelope_bprime_default_constants():
    prof = GrowthProfile.bprime()
    seqs = SequenceSet(prof)
    assert (growth_module._C1, growth_module._C2, growth_module._C3) == (72.0, 4.0, 1.0)
    rows = bound_table(seqs, 12)
    assert envelope_report(rows, prof) == {"envelope_ok": True, "loglog_ok": True}
    # the floor is checked at n = 2..12 and holds at each
    assert all(loglog_floor_holds(prof, n) for n in range(2, 13))
    assert exact_sandwich(seqs, 12)["ok"]


def test_envelope_bprime_weak_constants_fail(monkeypatch):
    # with c1 = 1 the candidate upper envelope at n = 12 is log F(12),
    # far below the proven staircase point built from d(1), so the
    # necessary condition must be flagged
    prof = GrowthProfile.bprime()
    rows = bound_table(SequenceSet(prof), 12)
    # zero bounds: only a candidate lower envelope above 0 can fail them,
    # and at c1 = 72, c2 = 4 none applies before n = 360
    flat = [dict(row, lower_log=0.0, upper_log=0.0) for row in rows]
    assert envelope_report(flat, prof)["envelope_ok"]
    monkeypatch.setattr(growth_module, "_C1", 1.0)
    monkeypatch.setattr(growth_module, "_C2", 0.0)
    assert envelope_report(rows, prof)["envelope_ok"] is False
    # at c1 = 1 the lower envelope log F(n) (1 - llls/lls) is above 0
    assert envelope_report(flat, prof)["envelope_ok"] is False


def test_envelope_builtin_smoke():
    prof = GrowthProfile.builtin()
    rows = bound_table(SequenceSet(prof), 8)
    assert envelope_report(rows, prof) == {"envelope_ok": True, "loglog_ok": True}
    assert consistent(rows)


@pytest.mark.parametrize("kind,N", [("builtin", 8), ("bprime", 12)])
def test_envelope_report_leaves_its_rows_unchanged(kind, N):
    prof = getattr(GrowthProfile, kind)()
    rows = bound_table(SequenceSet(prof), N)
    before = copy.deepcopy(rows)
    envelope_report(rows, prof)
    assert rows == before
