"""Acceptance gate: ten independently checkable properties at desk scale.

Each test prints one [PASS]/[FAIL] line on the real stdout so the
summary survives pytest's capture, and asserts its own runtime limit
where one applies.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bhneumann
from bhneumann import (
    GroupContext,
    GrowthProfile,
    SequenceSet,
    ball,
    bound_table,
    build_chain,
    coordinate_eval,
    enumerate_reduced,
    equal,
    exact_sandwich,
    group_order,
    identity,
    make_generators,
    next_prime,
    random_codes,
    sieve,
    spread_ok,
    stirling_check,
    verify_alt_generation,
    w_eval,
    witness,
)
from bhneumann import _kernels
from bhneumann.words import commutator, conjugate


def _report(capsys, name: str, ok: bool, seconds: float) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {name} ({seconds:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def actx():
    return GroupContext(SequenceSet(GrowthProfile.toy()))


def test_c01_generation(actx, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        for k in range(1, 11):
            d, r = actx.degree(k), actx.offset(k)
            assert verify_alt_generation(d, r, r)
        for d, r1, r2 in ((5, 2, 2), (7, 2, 3), (11, 3, 3), (13, 4, 4)):
            assert verify_alt_generation(d, r1, r2)
            chain = build_chain(list(make_generators(d, r1, r2)))
            assert group_order(chain) == math.factorial(d) // 2
        assert group_order(build_chain(list(make_generators(11, 3, 3)))) == 19_958_400
        assert time.perf_counter() - t0 < 10.0
        ok = True
    finally:
        _report(capsys, "C1 alternating-group generation", ok, time.perf_counter() - t0)


def test_c02_greedy_construction(capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        N = 200
        seqs = SequenceSet(GrowthProfile.toy())
        seqs.ensure(N)
        assert seqs.r_of(1) == 2
        for n in range(1, N + 1):
            r, d = seqs.r_of(n), seqs.d_of(n)
            assert n < r < 18 * n
            assert 3 * r < d
        checks = violations = 0
        for i in range(1, N + 1):
            d, ri = seqs.d_of(i), seqs.r_of(i)
            blocked = (ri % d, (-ri) % d, (2 * ri) % d, (-2 * ri) % d)
            for j in range(1, N + 1):
                if j == i:
                    continue
                rj = seqs.r_of(j) % d
                for b in blocked:
                    checks += 1
                    if rj == b:
                        violations += 1
        assert checks == 4 * N * (N - 1)
        assert violations == 0
        assert time.perf_counter() - t0 < 5.0
        ok = True
    finally:
        _report(capsys, "C2 greedy offset construction", ok, time.perf_counter() - t0)


def test_c03_locality(capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        ctx = GroupContext(SequenceSet(GrowthProfile.toy()))
        # five coordinates whose supports separate length-64 words
        coords64 = []
        m = 1
        while len(coords64) < 5:
            if spread_ok(ctx, m, 64):
                coords64.append(m)
            m += 1
        # exhaustive: every reduced word of length <= 8 at every
        # materialized coordinate that separates length-8 words
        census = list(enumerate_reduced(8))
        assert len(census) == 13_121  # including the empty word
        coords8 = [
            k for k in range(1, ctx.seqs.known + 1) if spread_ok(ctx, k, 8)
        ]
        assert coords8[0] == 11
        for k in coords8:
            nodes, fails = _kernels.scan_tree(ctx.letter_tables(k), ctx.offset(k), 8)
            assert int(nodes) == 13_120
            assert int(fails) == 0
        # randomized: 10^4 seeded words of length 64
        batch = np.array(random_codes(64, range(10_000)))
        for k in coords64:
            nwords, fails = _kernels.check_random_words(
                ctx.letter_tables(k), ctx.offset(k), batch
            )
            assert int(nwords) == 10_000
            assert int(fails) == 0
        assert time.perf_counter() - t0 < 60.0
        ok = True
    finally:
        _report(capsys, "C3 locality and reconstruction", ok, time.perf_counter() - t0)


def test_c04_commuting_criterion(actx, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        top = 50
        actx.seqs.ensure(top)
        cases = violations = 0
        for n in range(1, top + 1):
            w = commutator("b", conjugate("b", "a" * actx.offset(n)))
            skeleton, shift = _kernels.skeleton(w)
            lo, span = _kernels.window(skeleton)
            for m in range(1, top + 1):
                d = actx.degree(m)
                sigma = _kernels.eval_word(actx.letter_tables(m), skeleton, lo, span)
                images = _kernels.image(d, shift, sigma.items())
                trivial = bool((images == np.arange(d, dtype=np.int32)).all())
                cases += 1
                if trivial != (m != n):
                    violations += 1
        assert cases == 2500
        assert violations == 0
        assert time.perf_counter() - t0 < 5.0
        ok = True
    finally:
        _report(capsys, "C4 commuting criterion", ok, time.perf_counter() - t0)


def test_c05_witness_elements(actx, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        actx.seqs.ensure(100)
        for m in range(1, 26):
            w = witness(actx, m)
            assert len(w) == 4 + 4 * actx.offset(m)
            assert w_eval(w).is_identity()
            assert coordinate_eval(actx, w, m) != identity(actx.degree(m))
            for k in range(1, 101):
                if k != m:
                    assert coordinate_eval(actx, w, k) == identity(actx.degree(k))
        assert time.perf_counter() - t0 < 10.0
        ok = True
    finally:
        _report(capsys, "C5 witness elements", ok, time.perf_counter() - t0)


def test_c06_projection_injectivity(actx, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        for n in range(1, 5):
            elems = ball(actx, n)
            # oracle: dedupe the same candidates by pairwise word-problem calls
            reps: list[str] = []
            for w in enumerate_reduced(n):
                if not any(equal(actx, w, rep) for rep in reps):
                    reps.append(w)
            assert [w for w, _ in elems] == reps
            if n == 1:
                assert len(elems) == 5
            # projection to coordinates 1..2n stays injective
            assert all(len(sig.low_coords) >= 2 * n for _, sig in elems)
            proj = {sig.low_coords[: 2 * n] for _, sig in elems}
            assert len(proj) == len(elems)
        assert time.perf_counter() - t0 < 120.0
        ok = True
    finally:
        _report(capsys, "C6 ball sizes and projection injectivity", ok, time.perf_counter() - t0)


def test_c07_bound_consistency(actx, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        toy_table = bound_table(actx.seqs, 20)
        assert all(r["lower_log"] <= r["upper_log"] for r in toy_table)
        for prof in (GrowthProfile.builtin(), GrowthProfile.bprime()):
            table = bound_table(SequenceSet(prof), 10)
            assert all(r["lower_log"] <= r["upper_log"] for r in table)
        sw = exact_sandwich(actx.seqs, 20)
        assert sw["ok"] and len(sw["rows"]) == 20
        ok = True
    finally:
        _report(capsys, "C7 bound table consistency", ok, time.perf_counter() - t0)


def test_c08_factorial_expansion(capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        # sandwich on all n <= 10^5, via an independent cumulative sum
        top = 100_000
        lf = np.cumsum(np.log(np.arange(1, top + 1, dtype=np.float64)))
        ns = np.arange(1, top + 1, dtype=np.float64)
        nlogn = ns * np.log(ns)
        assert np.all(lf <= nlogn)
        assert np.all(nlogn - ns <= lf)
        # empirical implied constants stay finite and tail-stable
        for K in (1, 2, 3):
            rep = stirling_check(GrowthProfile.builtin(), N=1000, K=K)
            assert rep["ok"]
            assert math.isfinite(rep["sup_a"]) and math.isfinite(rep["sup_b"])
            for key in ("ratio_a", "ratio_b"):
                ratios = [row[key] for row in rep["rows"]]
                decile = ratios[len(ratios) - max(1, len(ratios) // 10) :]
                assert max(decile) <= 2.0 * max(max(ratios), 1e-12)
        ok = True
    finally:
        _report(capsys, "C8 factorial expansion bounds", ok, time.perf_counter() - t0)


def test_c09_bertrand(capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        limit = 2_000_000
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        primes = np.nonzero(flags)[0]
        xs = np.arange(3, 1_000_001, dtype=np.int64)
        nxt = primes[np.searchsorted(primes, xs, side="left")]
        assert np.all(nxt >= xs)
        assert np.all(nxt < 2 * xs)
        # dual route: the package sieve and point checks agree
        assert np.array_equal(flags, sieve(limit))
        for x in (3, 8, 100, 524_287, 999_999, 1_000_000):
            assert next_prime(x) == int(primes[np.searchsorted(primes, x)])
        assert time.perf_counter() - t0 < 10.0
        ok = True
    finally:
        _report(capsys, "C9 next prime below 2x", ok, time.perf_counter() - t0)


def test_c10_determinism(capsys):
    t0 = time.perf_counter()
    ok = False
    # run from the directory holding the imported package, so the
    # subprocess finds it without PYTHONPATH
    src = Path(bhneumann.__file__).resolve().parents[1]
    try:
        for fmt in ("tsv", "json"):
            argv = [
                sys.executable, "-m", "bhneumann.cli", "verify",
                "--profile", "toy", "--n", "5", "--seed", "7",
                "--format", fmt,
            ]
            first = subprocess.run(argv, capture_output=True, cwd=src)
            second = subprocess.run(argv, capture_output=True, cwd=src)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout
        ok = True
    finally:
        _report(capsys, "C10 byte-identical reruns", ok, time.perf_counter() - t0)
