"""Sequence construction cross-checked by sieve and hand-rolled greedy."""

import hashlib
import math
import random

import numpy as np
import pytest

from bhneumann import (
    DivisorTooSmall,
    GrowthProfile,
    NoAdmissibleResidue,
    SequenceConstructionError,
    SequenceSet,
    f_of,
    is_prime,
    next_prime,
    sieve,
)
from bhneumann._primes import _MR_LIMIT, _MR_TABLE
from bhneumann.seqgen import _PRESIZE_LIMIT, _OffsetSieve


# --- independent oracles -------------------------------------------------

def sieve_oracle(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def lucas_lehmer_is_prime(p: int) -> bool:
    """Primality of the Mersenne number 2^p - 1 for odd prime p."""
    M = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = (s * s - 2) % M
    return s == 0


def greedy_oracle(f_vals: list[int]) -> list[tuple[int, int, int]]:
    """Re-derive (f, d, r) rows with primitive loops and the sieve."""
    flags = sieve_oracle(4 * max(f_vals))
    rows = []
    d_seen, r_seen = [], []
    for i, f in enumerate(f_vals):
        n = i + 1
        d = max(f, 5)
        while not flags[d]:
            d += 1
        assert d >= 16 * n
        q = n
        assert n <= q <= d // 4
        pick = None
        for k in range(q + 1, q + 17 * n):
            good = True
            for dm, rm in zip(d_seen, r_seen):
                if k % dm in {rm % dm, -rm % dm, 2 * rm % dm, -2 * rm % dm}:
                    good = False
                    break
                if rm % d in {k % d, -k % d, 2 * k % d, -2 * k % d}:
                    good = False
                    break
            if good:
                pick = k
                break
        assert pick is not None and 3 * pick < d
        d_seen.append(d)
        r_seen.append(pick)
        rows.append((f, d, pick))
    return rows


def scan_window_oracle(
    lo: int, width: int, prior: list[tuple[int, int]], d_n: int
) -> tuple[int, int]:
    """The per-candidate loop the window sieve replaced, kept as its oracle.

    First admissible offset in (lo, lo + width] against every (d(m), r(m))
    in prior, plus the reject count; raises NoAdmissibleResidue when the
    whole window is rejected.
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


def sieve_window(
    lo: int, width: int, prior: list[tuple[int, int]], d_n: int
) -> tuple[int, int]:
    """The library's window sieve on the same inputs as the oracle."""
    sieve = _OffsetSieve()
    for dm, rm in prior:
        sieve.add(dm, rm)
    return sieve.scan(lo, width, d_n)


def certificate_digest(seqs: SequenceSet, N: int) -> str:
    """sha256 of the (d, r, rejected) rows of indices 1..N."""
    rows = [(c["d"], c["r"], c["rejected"]) for c in map(seqs.certificates.get, range(1, N + 1))]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def outcome(scan, *args):
    try:
        return scan(*args)
    except NoAdmissibleResidue:
        return "blocked"


# --- primality -----------------------------------------------------------

def test_is_prime_agrees_with_sieve():
    flags = sieve_oracle(200_000)
    for n in range(200_001):
        assert is_prime(n) == bool(flags[n])


def test_sieve_function_matches_oracle():
    got = sieve(10_000)
    want = sieve_oracle(10_000)
    assert np.array_equal(got, want)


def test_is_prime_examples():
    assert is_prime(5)
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(561)  # Carmichael number


def test_mersenne_61():
    assert lucas_lehmer_is_prime(61)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)  # divisible by 3


def test_is_prime_range_limit():
    with pytest.raises(ValueError):
        is_prime(3_317_044_064_679_887_385_961_981)


def strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin rounds of odd n > max(bases) to the given bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_rejects_each_graded_bound():
    # every bound but the last is the least strong pseudoprime to its own
    # witnesses, so is_prime must reach the next row to reject it
    assert _MR_TABLE[-1][0] == _MR_LIMIT
    for bound, witnesses in _MR_TABLE[:-1]:
        assert witnesses == FIRST_13_PRIMES[: len(witnesses)]
        assert strong_probable_prime(bound, witnesses)
        assert not is_prime(bound)
    assert 318_665_857_834_031_151_167_461 == 399_165_290_221 * 798_330_580_441
    assert not is_prime(318_665_857_834_031_151_167_461)


def test_is_prime_matches_all_thirteen_witnesses_around_each_bound():
    # below _MR_LIMIT the first 13 primes as witnesses decide every n
    for bound, _ in _MR_TABLE:
        for n in range(max(bound - 600, 0), min(bound + 600, _MR_LIMIT)):
            want = n in FIRST_13_PRIMES or (
                n > 41 and all(n % p for p in FIRST_13_PRIMES)
                and strong_probable_prime(n, FIRST_13_PRIMES)
            )
            assert is_prime(n) == want, n


def test_next_prime():
    assert next_prime(5) == 5
    assert next_prime(8) == 11
    assert next_prime(100) == 101
    assert next_prime(2) == 2


@pytest.mark.parametrize(
    "n,want",
    [
        (-5, 2), (0, 2), (1, 2), (2, 2), (3, 3), (4, 5),
        (90, 97),  # even start: the odd candidates 91, 93, 95 are composite
        (97, 97),  # an odd prime is its own answer
        (91, 97),  # odd composite 7 * 13
        (2**61 - 2, 2**61 - 1),  # even, right below a Mersenne prime
    ],
)
def test_next_prime_edges(n, want):
    assert next_prime(n) == want


def test_is_prime_past_the_witness_primes():
    # the gcd with the primorial 2 * 3 * ... * 41 decides the witness
    # primes and their multiples; composites sharing no factor with it
    # must still be rejected by Miller-Rabin
    for p in FIRST_13_PRIMES:
        assert is_prime(p), p
        assert not is_prime(p * p), p
    for n in (2 * 41, 3 * 5 * 7, 2 * 3 * 5 * 7 * 11 * 13, 37 * 41, math.prod(FIRST_13_PRIMES)):
        assert not is_prime(n), n
    for n in (43 * 43, 43 * 47, 47 * 53, 43**3, 1_000_003 * 1_000_033):
        assert not is_prime(n), n
    for p in (43, 47, 53, 1_000_003):
        assert is_prime(p), p


# --- profiles ------------------------------------------------------------

def test_toy_passthrough():
    prof = GrowthProfile.toy(slope=1, intercept=4)
    assert f_of(prof, 1) == 5
    assert f_of(prof, 10) == 14


def test_table_profile_ceiling():
    # log F = e^e gives loglog F = e, hence ceil(e^e / e) = 6
    prof = GrowthProfile.from_table([math.e**math.e])
    assert f_of(prof, 1) == math.ceil(math.e**math.e / math.e) == 6


def test_builtin_f_values():
    prof = GrowthProfile.builtin()
    assert f_of(prof, 1) == 2312
    vals = [f_of(prof, n) for n in range(1, 2001, 50)]
    assert vals == sorted(vals)
    assert vals[-1] > vals[0]


def test_builtin_log_F_growth_floor():
    # hypothesis (a): log F(n) >= c n log(n)^2 loglog(n)^(1+eps), sampled
    prof = GrowthProfile.builtin()
    for n in range(3, 5000, 97):
        floor = (
            prof.c
            * n
            * math.log(n) ** 2
            * math.log(math.log(n)) ** (1.0 + prof.eps)
        )
        assert prof.log_F(n) >= floor


def test_bprime_loglog_identity():
    # loglog F(n) = log c + log(n)^2 holds with equality for this family
    prof = GrowthProfile.bprime(c=1.0)
    for n in range(2, 60):
        assert math.isclose(
            math.log(prof.log_F(n)), math.log(n) ** 2, rel_tol=1e-12
        )


def test_log_F_nondecreasing():
    for prof in (GrowthProfile.toy(), GrowthProfile.builtin(), GrowthProfile.bprime()):
        vals = [prof.log_F(n) for n in range(1, 300)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# --- sequence derivation -------------------------------------------------

def test_toy_sequences_match_greedy_oracle(toy_seqs):
    rows = greedy_oracle([16 * n + 64 for n in range(1, 31)])
    for n, (f, d, r) in enumerate(rows, start=1):
        assert toy_seqs.f_of(n) == f
        assert toy_seqs.d_of(n) == d
        assert toy_seqs.r_of(n) == r


def test_toy_frozen_prefix(toy_seqs):
    assert [toy_seqs.d_of(n) for n in range(1, 11)] == [
        83, 97, 113, 131, 149, 163, 179, 193, 211, 227,
    ]
    assert [toy_seqs.r_of(n) for n in range(1, 11)] == [
        2, 3, 5, 7, 8, 9, 11, 12, 13, 15,
    ]


def test_first_offset_is_two(toy_seqs):
    assert toy_seqs.r_of(1) == 2


def test_r_of_2_hand_example():
    # d(1)=97, d(2)=101: k=3 avoids +-2, +-4 mod 97, and 2 avoids +-3, +-6 mod 101
    seqs = SequenceSet(GrowthProfile.toy(slope=4, intercept=93))
    seqs.ensure(2)
    assert seqs.d_of(1) == 97 and seqs.d_of(2) == 101
    assert seqs.r_of(2) == 3


def test_bertrand_bracket(toy_seqs):
    for n in range(1, 31):
        f, d = toy_seqs.f_of(n), toy_seqs.d_of(n)
        assert f <= d <= 2 * f
        assert is_prime(d) and d >= 5


def test_monotone(toy_seqs):
    ds = [toy_seqs.d_of(n) for n in range(1, 51)]
    fs = [toy_seqs.f_of(n) for n in range(1, 51)]
    assert ds == sorted(ds)
    assert fs == sorted(fs)


def test_builtin_first_divisor():
    seqs = SequenceSet(GrowthProfile.builtin())
    seqs.ensure(1)
    assert seqs.d_of(1) == 2333
    assert seqs.r_of(1) == 2


def test_divisor_too_small():
    with pytest.raises(DivisorTooSmall) as err:
        SequenceSet(GrowthProfile.toy(slope=1, intercept=4)).ensure(1)
    assert "below the required floor 16" in str(err.value)


def test_no_admissible_residue_direct():
    # window {6..9} has residues 1..4 mod 5, all blocked by r=1 at d=5
    with pytest.raises(NoAdmissibleResidue):
        sieve_window(5, 4, [(5, 1)], 1_000_003)
    with pytest.raises(NoAdmissibleResidue):
        scan_window_oracle(5, 4, [(5, 1)], 1_000_003)


def test_scan_window_counts_rejections():
    k, rejected = sieve_window(1, 16, [], 83)
    assert k == 2 and rejected == 0


def test_blocked_window_names_the_index():
    # d = 1 blocks every position of the window through condition (a)
    seqs = SequenceSet(GrowthProfile.toy())
    seqs._sieve.add(1, 0)
    with pytest.raises(NoAdmissibleResidue) as err:
        seqs.ensure(1)
    assert (err.value.n, err.value.lo, err.value.hi) == (1, 1, 17)
    assert seqs.known == 0


@pytest.mark.parametrize(
    "profile,N",
    [
        (GrowthProfile.toy(), 300),
        (GrowthProfile.builtin(), 150),
        (GrowthProfile.bprime(), 150),
    ],
    ids=["toy-300", "builtin-150", "bprime-150"],
)
def test_sieve_matches_scan_loop_on_profiles(profile, N):
    seqs = SequenceSet(profile)
    seqs.ensure(N)
    prior = []
    for n in range(1, N + 1):
        cert = seqs.certificates[n]
        d = next_prime(max(f_of(profile, n), 5))
        k, rejected = scan_window_oracle(n, 17 * n - 1, prior, d)
        assert (cert["d"], cert["r"], cert["rejected"]) == (d, k, rejected), n
        prior.append((d, k))


def test_sieve_matches_scan_loop_on_random_priors():
    # one sieve per trial takes indices and windows in turn, so the
    # bitmap is grown and reused as it is in SequenceSet; small moduli
    # make windows wider than d(n) and fully blocked windows common
    rng = random.Random(7)
    blocked = 0
    for _ in range(150):
        sieve = _OffsetSieve()
        prior = []
        for _ in range(rng.randint(1, 6)):
            dm = rng.randint(1, 60)
            rm = rng.randint(0, 200)
            sieve.add(dm, rm)
            prior.append((dm, rm))
            lo = rng.randint(0, 150)
            width = rng.randint(1, 250)
            d_n = rng.randrange(1, 120, 2)
            got = outcome(sieve.scan, lo, width, d_n)
            assert got == outcome(scan_window_oracle, lo, width, prior, d_n)
            blocked += got == "blocked"
    assert 0 < blocked < 600


@pytest.mark.parametrize(
    "lo,width,prior,d_n,expected",
    [
        # k = 5 is open under (a) and rejected by (b): 2k = r(m)
        (4, 16, [(97, 10)], 1_000_003, (6, 1)),
        # r(m) >= d(n), so (b) compares r(m) mod d(n): 150 = 53 (mod 97)
        (52, 8, [(101, 150)], 97, (54, 1)),
    ],
    ids=["b-blocks-open-a", "b-offset-past-modulus"],
)
def test_sieve_matches_scan_loop_on_windows(lo, width, prior, d_n, expected):
    assert sieve_window(lo, width, prior, d_n) == scan_window_oracle(lo, width, prior, d_n) == expected


@pytest.mark.parametrize("d_n", [2**64 - 59, 2**89 - 1, 1_000_003])
def test_sieve_matches_scan_loop_past_int64(d_n):
    big = [2**64 - 59, 2**89 - 1, 2**62 + 135]
    for seed in range(20):
        rng = random.Random(seed)
        prior = [
            (rng.choice(big + [97, 101, 1_000_003]), rng.randint(0, 90))
            for _ in range(rng.randint(1, 12))
        ]
        lo, width = rng.randint(0, 30), rng.randint(1, 60)
        assert outcome(sieve_window, lo, width, prior, d_n) == outcome(
            scan_window_oracle, lo, width, prior, d_n
        )


@pytest.mark.parametrize("d_n", [2**64 - 59, 1_000_003])
def test_sieve_moduli_past_int64_block_their_doubles(d_n):
    # (4, 1) leaves k = 0 (mod 4) open; only the doubles 2r of the
    # large-modulus indices block 104..196, so the offset is 200
    prior = [(4, 1)] + [(2**89 - 1 if r % 2 else 2**64 - 59, r) for r in range(50, 100)]
    assert sieve_window(100, 120, prior, d_n) == scan_window_oracle(100, 120, prior, d_n) == (200, 99)


DERIVATION_PROFILES = pytest.mark.parametrize(
    "profile,N",
    [
        (GrowthProfile.toy(), 300),
        (GrowthProfile.builtin(), 500),
        (GrowthProfile.from_table([math.lgamma(30 * n + 120) for n in range(1, 401)]), 400),
    ],
    ids=["toy-300", "builtin-500", "table-400"],
)


@DERIVATION_PROFILES
def test_derivation_paths_agree(profile, N):
    # one ensure(N), N calls of one index each (the sieve doubles as it
    # goes), and ensure(a) then ensure(N) derive the same sequences
    whole = SequenceSet(profile)
    whole.ensure(N)
    stepped = SequenceSet(profile)
    for n in range(1, N + 1):
        stepped.ensure(n)
    split = SequenceSet(profile)
    split.ensure(N // 3)
    split.ensure(N)
    for seqs in (stepped, split):
        assert seqs._f == whole._f
        assert seqs._d == whole._d
        assert seqs._r == whole._r
        assert seqs.certificates == whole.certificates
        a, b = whole._sieve._blocked, seqs._sieve._blocked
        common = min(len(a), len(b))
        assert common >= 18 * N
        assert a[:common] == b[:common]


@DERIVATION_PROFILES
def test_fresh_ensure_marks_each_residue_once(profile, N, monkeypatch):
    # ensure sizes the sieve to the last window first, so the residues of
    # each index are marked once by add and never again by a doubling
    marks = {"all": 0, "in_grow": 0}
    growing = []
    mark, grow = _OffsetSieve._mark, _OffsetSieve._grow

    def counting_mark(self, *args):
        marks["all"] += 1
        marks["in_grow"] += bool(growing)
        return mark(self, *args)

    def flagged_grow(self, hi):
        growing.append(hi)
        try:
            return grow(self, hi)
        finally:
            growing.pop()

    monkeypatch.setattr(_OffsetSieve, "_mark", counting_mark)
    monkeypatch.setattr(_OffsetSieve, "_grow", flagged_grow)
    seqs = SequenceSet(profile)
    seqs.ensure(N)
    assert len(seqs._sieve._blocked) == 18 * N
    assert marks["in_grow"] == 0
    assert 0 < marks["all"] <= 4 * N


def test_ensure_far_past_the_profile_sizes_the_sieve_within_its_cap():
    # a one-value table stops at index 2; asking for 10**12 indices must
    # raise that error, not first allocate 18 * 10**12 sieve positions
    seqs = SequenceSet(GrowthProfile.from_table([math.lgamma(200)]))
    with pytest.raises(SequenceConstructionError, match="no value at index 2"):
        seqs.ensure(10**12)
    assert seqs.known == 1
    assert len(seqs._sieve._blocked) == _PRESIZE_LIMIT + 1


def test_toy_profile_breaks_at_4593():
    # the greedy offset first reaches d/3: r(4593) = 24528 >= 73553 / 3
    seqs = SequenceSet(GrowthProfile.toy())
    with pytest.raises(SequenceConstructionError) as err:
        seqs.ensure(4593)
    assert "r(4593) = 24528" in str(err.value)
    assert seqs.known == 4592
    assert 3 * seqs.r_of(4592) < seqs.d_of(4592)
    assert certificate_digest(seqs, 4592) == (
        "3bb12065f6c104038174020b724d5711922bdc1be33b28e19315f69f5bafdd8c"
    )


def test_builtin_certificates_to_10_000():
    # (d, r, rejected) of every index, captured before the offset sieve
    # moved from numpy arrays to a bytearray
    seqs = SequenceSet(GrowthProfile.builtin())
    seqs.ensure(10_000)
    assert certificate_digest(seqs, 10_000) == (
        "749be1e02b438e015e777c5ffd2ff8bb0e9cc52165d4c81a4929e67c2da64d32"
    )


def test_divisor_beyond_primality_range_names_the_index():
    # with C2 = 2390, f(8) passes the deterministic Miller-Rabin bound
    seqs = SequenceSet(GrowthProfile.bprime(C2=2390))
    with pytest.raises(SequenceConstructionError) as err:
        seqs.ensure(8)
    assert "d(8)" in str(err.value)
    assert seqs.known == 7


def test_bprime_certificates_until_divisor_leaves_primality_range():
    # d(2142) would pass the deterministic Miller-Rabin bound; the moduli
    # pass 2**64 from index 783 on
    seqs = SequenceSet(GrowthProfile.bprime())
    with pytest.raises(SequenceConstructionError) as err:
        seqs.ensure(2142)
    assert "d(2142)" in str(err.value)
    assert seqs.known == 2141
    assert certificate_digest(seqs, 2141) == (
        "465c296c6aa4bcce298aee6078e6e6e4cee8b8910c1a100351ca801663c11fe2"
    )


def test_certificates_recorded(toy_seqs):
    cert = toy_seqs.certificates[3]
    assert cert["d"] == 113 and cert["r"] == 5 and cert["q"] == 3
    assert cert["window_lo"] == 3 and cert["window_hi"] == 53


def test_validate_toy_hard_ok(toy_seqs):
    report = toy_seqs.validate_hypotheses(50)
    assert report["ok"]
    assert all(
        row["prime_ok"] and row["pairwise_ok"] for row in report["rows"]
    )


def test_validate_toy_series_ok_on_short_prefix():
    # partial sums of 1/d stay below 1/16 through n=8 and cross at n=9
    seqs = SequenceSet(GrowthProfile.toy())
    assert seqs.validate_hypotheses(8)["info"]["series_ok"]
    assert not seqs.validate_hypotheses(9)["info"]["series_ok"]


def test_validate_toy_series_fails_at_200():
    # harmonic-like tail of a linear profile crosses 1/16 before n=200;
    # construction stays valid, so this is advisory only
    seqs = SequenceSet(GrowthProfile.toy())
    report = seqs.validate_hypotheses(200)
    assert report["ok"]
    assert not report["info"]["series_ok"]
    assert report["info"]["series_value"] > 1.0 / 16.0


def test_validate_builtin_all_pass():
    seqs = SequenceSet(GrowthProfile.builtin())
    report = seqs.validate_hypotheses(100)
    assert report["ok"]
    assert report["info"]["growth_floor_ok"]
    assert report["info"]["series_ok"]


def pairwise_violations_oracle(d: list[int], r: list[int]) -> list[int]:
    """Per row, the earlier indices breaking (a) plus those breaking (b), by loops."""
    counts = []
    for n in range(len(d)):
        count = 0
        for m in range(n):
            dm, rm = d[m], r[m]
            if r[n] % dm in {rm % dm, -rm % dm, 2 * rm % dm, -2 * rm % dm}:
                count += 1
            if rm % d[n] in {r[n] % d[n], -r[n] % d[n], 2 * r[n] % d[n], -2 * r[n] % d[n]}:
                count += 1
        counts.append(count)
    return counts


@pytest.mark.parametrize(
    "d,r",
    [
        ([83, 97, 113, 131, 149], [2, 3, 5, 7, 8]),
        ([11, 13, 11, 17, 13, 19], [2, 4, 9, 8, 2, 5]),
        ([5, 5, 5, 5], [2, 2, 2, 2]),
        ([2**81 - 1, 2**64 - 59, 101, 2**62 + 135], [3, 2**64 - 62, 98, 6]),
        ([2**89 - 1, 2**64 - 59, 101], [3, 2**64 - 62, 98]),
        ([7, 11, 7, 13], [7, 3, 14, 2]),  # d | r: the four residues coincide
    ],
)
def test_validate_pairwise_matches_loop(d, r):
    rows = SequenceSet.preset(d, r).validate_hypotheses(len(d))["rows"]
    counts = pairwise_violations_oracle(d, r)
    assert [row["pairwise_violations"] for row in rows] == counts
    assert [row["pairwise_ok"] for row in rows] == [c == 0 for c in counts]
    # past the deterministic Miller-Rabin range a modulus is not certified prime
    assert all(row["prime_ok"] is False for row in rows if row["d"] == 2**89 - 1)


def test_validate_pairwise_matches_loop_on_random_presets():
    # duplicate and negative offsets, moduli 1..40 against offsets spread
    # near 2**70 (a walk longer than the table: direct comparison) and
    # moduli near 2**70 (a short residue-class walk); a few moduli are
    # negative, which name the same classes as their absolute values
    rng = random.Random(20241)
    for trial in range(400):
        n = rng.randint(1, 14)
        pool = [rng.randint(-50, 50) for _ in range(4)]
        d, r = [], []
        for _ in range(n):
            modulus = rng.randint(1, 40) if rng.random() < 0.7 else 2**70 - rng.randint(0, 99)
            d.append(-modulus if rng.random() < 0.1 else modulus)
            if trial % 2 and rng.random() < 0.3:
                r.append(rng.choice([2**70 - rng.randint(0, 99), -(2**69) - rng.randint(0, 99)]))
            else:
                r.append(rng.choice(pool) if rng.random() < 0.5 else rng.randint(-80, 80))
        rows = SequenceSet.preset(d, r).validate_hypotheses(n)["rows"]
        counts = pairwise_violations_oracle(d, r)
        assert [row["pairwise_violations"] for row in rows] == counts, (d, r)
        assert [row["pairwise_ok"] for row in rows] == [c == 0 for c in counts]
    toy = SequenceSet(GrowthProfile.toy())
    rows = toy.validate_hypotheses(200)["rows"]
    d = [row["d"] for row in rows]
    r = [row["r"] for row in rows]
    assert [row["pairwise_violations"] for row in rows] == pairwise_violations_oracle(d, r)


def test_preset_refuses_zero_modulus():
    for d in ([0], [7, 0, 11]):
        with pytest.raises(ValueError, match="nonzero"):
            SequenceSet.preset(d, [1] * len(d))


def test_preset_constant_five_fails_series():
    seqs = SequenceSet.preset(d=[5, 5, 5, 5], r=[2, 2, 2, 2])
    report = seqs.validate_hypotheses(4)
    assert not report["info"]["series_ok"]


def test_profile_too_small():
    from bhneumann import ProfileTooSmall

    with pytest.raises(ProfileTooSmall):
        f_of(GrowthProfile.from_table([0.5]), 1)


@pytest.mark.parametrize(
    "profile",
    [
        GrowthProfile.bprime(c=1e300),
        GrowthProfile.builtin(c=1e306),
        GrowthProfile.builtin(eps=1e300),
        GrowthProfile.toy(slope=10**400),
    ],
    ids=["bprime-c", "builtin-c", "builtin-eps", "toy-slope"],
)
def test_log_F_past_the_float_range_raises(profile):
    # inf from the product, or OverflowError from a power or lgamma
    with pytest.raises(SequenceConstructionError, match=r"log F\(257\) is past the float range"):
        profile.log_F(257)
    if profile.kind != "toy":
        with pytest.raises(SequenceConstructionError, match="past the float range"):
            SequenceSet(profile).ensure(1)
