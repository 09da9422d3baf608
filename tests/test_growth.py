"""Growth bounds: log-domain magnitudes against big integers computed here."""

import math

import pytest

from bhneumann import (
    GroupContext,
    GrowthProfile,
    SequenceSet,
    ball,
    bound_table,
    envelope_report,
    exact_sandwich,
    full_rf_upper,
    log_factorial,
    rf_lower_points,
    rf_upper,
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


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


# --- bound families ----------------------------------------------------------

def test_rf_lower_points_preset():
    seqs = SequenceSet.preset(d=[17], r=[5])
    rows = rf_lower_points(seqs, 1)
    assert len(rows) == 1
    row = rows[0]
    assert row["m"] == 1 and row["n"] == 24 and row["kind"] == "rf"
    assert math.factorial(17) // 2 == 177_843_714_048_000
    assert close_to_log(row["lower"], 177_843_714_048_000)


def test_rf_upper_preset():
    seqs = SequenceSet.preset(d=[17], r=[5])
    assert close_to_log(rf_upper(seqs, 1), math.factorial(17) // 2)


def test_full_rf_upper_preset_product():
    seqs = SequenceSet.preset(d=[5, 5], r=[2, 2])
    full = full_rf_upper(seqs, 1)
    assert len(full) == 1
    assert (math.factorial(5) // 2) ** 2 == 3600
    assert close_to_log(full[0], 3600)


def test_bound_chain_toy(toy_ctx):
    # single-coordinate bound <= product bound <= ball^2 scaled bound
    full = full_rf_upper(toy_ctx, 4)
    assert len(full) == 4
    for n in range(1, 5):
        single = rf_upper(toy_ctx, n)
        assert single <= full[n - 1]
        b = len(ball(toy_ctx, n))
        assert full[n - 1] <= b * b * rf_upper(toy_ctx, 2 * n)


def test_bound_table_toy(toy_ctx):
    table = bound_table(toy_ctx, 16)
    assert table.consistent()
    rf_rows = [row for row in table.rows if row["kind"] == "rf"]
    assert len(rf_rows) == 16
    lows = [row["lower_log"] for row in rf_rows]
    assert lows == sorted(lows)
    # first proven point sits at n = 4 + 4*r(1) = 12
    assert lows[10] == 0.0
    assert lows[11] > 0.0
    points = table.meta["points"]
    assert [p["n"] for p in points] == [
        4 + 4 * toy_ctx.seqs.r_of(m) for m in range(1, 17)
    ]


def test_bound_table_accepts_bare_sequences(toy_seqs):
    assert bound_table(toy_seqs, 4).consistent()


def test_bound_table_builtin_small():
    seqs = SequenceSet(GrowthProfile.builtin())
    assert bound_table(seqs, 5).consistent()


def pointwise_table(seqs, N):
    """bound_table rows by the definition, one n at a time: the lower
    column is the max over every point of word length <= n, the full_rf
    column a fresh sum over k <= 2n."""
    points = rf_lower_points(seqs, N)
    rows = []
    for n in range(1, N + 1):
        best = 0.0
        for row in points:
            if row["n"] <= n:
                best = max(best, row["lower"])
        full = 0.0
        for k in range(1, 2 * n + 1):
            full += log_factorial(seqs.d_of(k)) - math.log(2.0)
        rows.append({"n": n, "lower_log": best, "upper_log": rf_upper(seqs, n), "kind": "rf"})
        rows.append({"n": n, "lower_log": best, "upper_log": full, "kind": "full_rf"})
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
    table = bound_table(seqs, N)
    # exact float equality: the one-pass table adds the same terms in the
    # same order as the pointwise sums
    assert table.rows == pointwise_table(seqs, N)


def test_bound_table_staircase_out_of_length_order():
    seqs = SequenceSet.preset(**SHUFFLED)
    lows = [row["lower_log"] for row in bound_table(seqs, 20).rows if row["kind"] == "rf"]
    half = {d: log_factorial(d) - math.log(2.0) for d in (11, 23, 29)}
    want = [0.0] * 7 + [half[11]] * 4 + [half[23]] * 8 + [half[29]]
    assert lows == want


# --- factorial expansion check ------------------------------------------------

def test_stirling_check_square_exponent():
    report = stirling_check(lambda n: float(n * n), N=1000, K=2)
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
        stirling_check(lambda n: float(n * n), N=2, K=1)
    with pytest.raises(ValueError):
        stirling_check(lambda n: float(n * n), N=100, K=0)
    with pytest.raises(ValueError):
        stirling_check(lambda n: 1.0, N=100, K=1)


# --- exact sandwich and envelopes ----------------------------------------------

def test_exact_sandwich_toy(toy_ctx):
    report = exact_sandwich(toy_ctx, 20)
    assert report["ok"]
    assert len(report["rows"]) == 20
    assert all(row["ok"] for row in report["rows"])


def test_exact_sandwich_skips_large_rows():
    seqs = SequenceSet(GrowthProfile.builtin())
    report = exact_sandwich(seqs, 3)
    assert report["ok"] and report["rows"] == []  # d(1) = 2333 > 2000


def test_envelope_rejects_toy(toy_ctx):
    with pytest.raises(ValueError):
        envelope_report(bound_table(toy_ctx, 5), GrowthProfile.toy())


def test_envelope_bprime_default_constants():
    prof = GrowthProfile.bprime()
    seqs = SequenceSet(prof)
    table = envelope_report(bound_table(seqs, 12), prof)
    assert table.meta["envelope_ok"]
    assert table.meta["loglog_ok"]
    assert len(table.meta["loglog_rows"]) == 11
    assert exact_sandwich(seqs, 12)["ok"]
    assert table.meta["constants"]["c1"] == 72.0
    rf_rows = [row for row in table.rows if row["kind"] == "rf"]
    assert all("log_F" in row for row in rf_rows)
    assert any("env_upper" in row for row in rf_rows)


def test_envelope_bprime_weak_constants_fail():
    # with c1 = 1 the candidate upper envelope at n = 12 is log F(12),
    # far below the proven staircase point built from d(1), so the
    # necessary condition must be flagged
    prof = GrowthProfile.bprime()
    seqs = SequenceSet(prof)
    table = envelope_report(bound_table(seqs, 12), prof, constants={"c1": 1.0, "c2": 0.0})
    assert not table.meta["envelope_ok"]
    rf_rows = [row for row in table.rows if row["kind"] == "rf"]
    assert any("env_lower" in row for row in rf_rows)


def test_envelope_builtin_smoke():
    prof = GrowthProfile.builtin()
    seqs = SequenceSet(prof)
    table = envelope_report(bound_table(seqs, 8), prof)
    assert table.meta["envelope_ok"]
    assert table.meta["loglog_rows"] == []
    assert table.consistent()
