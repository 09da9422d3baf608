"""Word problem, cutoff, witnesses and balls against brute-force oracles."""

import numpy as np
import pytest

from bhneumann import (
    BudgetExceeded,
    GroupContext,
    Permutation,
    SequenceSet,
    SpreadAssertionFailed,
    ball,
    coordinate_eval,
    cutoff,
    enumerate_reduced,
    equal,
    identity,
    invert,
    is_trivial,
    lamp_data,
    random_reduced,
    signature,
    spread_ok,
    support,
    w_eval,
    witness,
)


def dense_trivial_bitmap(tabs: np.ndarray, depth: int) -> np.ndarray:
    """Preorder flags over all nonempty reduced words of length <= depth.

    Walks the prefix tree with child order a, A, b, B and composes the
    dense letter tables along each path; a flag is set where the prefix
    image is the identity.  Independent of the sparse kernels.
    """
    idx = np.arange(tabs.shape[1], dtype=np.int32)
    flags: list[bool] = []

    def walk(table: np.ndarray, last: int, length: int) -> None:
        for c in range(4):
            if c == last ^ 1:
                continue
            nxt = table[tabs[c]]
            flags.append(bool((nxt == idx).all()))
            if length < depth:
                walk(nxt, c, length + 1)

    walk(idx, -1, 1)
    return np.array(flags, dtype=bool)


# --- support separation and the cutoff ------------------------------------

def test_spread_ok_presets():
    tight = GroupContext(SequenceSet.preset(d=[97], r=[2]))
    assert not spread_ok(tight, 1, 1)
    loose = GroupContext(SequenceSet.preset(d=[101], r=[7]))
    assert spread_ok(loose, 1, 3)
    assert not spread_ok(loose, 1, 4)


def test_cutoff_preset_boundary():
    # coords 1..2 fail separation at length 5, coords 3.. all pass
    seqs = SequenceSet.preset(d=[83] * 12, r=[2, 2] + [11] * 10)
    assert cutoff(GroupContext(seqs), 5) == 2


def test_cutoff_scans_whole_preset():
    # separation holds up to index 2n+2 = 18 but fails at index 20, where
    # the word is not the identity; a derived sequence could not do this
    ctx = GroupContext(SequenceSet.preset([101] * 20, [40] * 19 + [1]))
    w = "BaBAbabA"
    assert w_eval(w).is_identity()
    assert coordinate_eval(ctx, w, 20) != identity(101)
    assert cutoff(ctx, len(w)) == 20
    assert not is_trivial(ctx, w)


def test_cutoff_zero_length(toy_ctx):
    assert cutoff(toy_ctx, 0) == 0


def test_cutoff_known_values(toy_ctx):
    assert cutoff(toy_ctx, 2) == 2
    assert cutoff(toy_ctx, 8) == 10


def test_cutoff_matches_brute_scan(toy_ctx):
    failing = [m for m in range(1, 51) if not spread_ok(toy_ctx, m, 4)]
    m0 = cutoff(toy_ctx, 4)
    assert failing and max(failing) == m0
    assert all(m <= m0 for m in failing)


def test_cutoff_degenerate_profile_raises():
    squeezed = GroupContext(SequenceSet.preset(d=[7] * 4, r=[3] * 4))
    with pytest.raises(SpreadAssertionFailed):
        cutoff(squeezed, 1)


def test_cutoff_memo_agrees_with_fresh_contexts(toy_seqs):
    ctx = GroupContext(toy_seqs)
    first = [cutoff(ctx, n) for n in range(13)]
    assert [cutoff(ctx, n) for n in range(13)] == first
    assert first == [cutoff(GroupContext(toy_seqs), n) for n in range(13)]
    preset = GroupContext(SequenceSet.preset([101] * 20, [40] * 19 + [1]))
    assert cutoff(preset, 8) == cutoff(preset, 8) == 20
    assert not is_trivial(preset, "BaBAbabA")
    assert not is_trivial(preset, "BaBAbabA")


def test_cutoff_failure_is_not_memoised():
    squeezed = GroupContext(SequenceSet.preset(d=[7] * 4, r=[3] * 4))
    for _ in range(2):
        with pytest.raises(SpreadAssertionFailed):
            cutoff(squeezed, 1)


# --- single-coordinate evaluation ------------------------------------------

def test_coordinate_eval_identities(toy_ctx):
    d1 = toy_ctx.degree(1)
    assert coordinate_eval(toy_ctx, "", 1) == identity(d1)
    assert coordinate_eval(toy_ctx, "bbb", 1) == identity(d1)
    assert coordinate_eval(toy_ctx, "a" * d1, 1) == identity(d1)
    assert coordinate_eval(toy_ctx, "a" * (d1 - 1), 1) != identity(d1)


def test_coordinate_eval_generator_images(toy_ctx):
    p = coordinate_eval(toy_ctx, "b", 2)
    r, d = toy_ctx.offset(2), toy_ctx.degree(2)
    assert support(p) == {0, r, 2 * r}
    assert p(0) == r and p(r) == 2 * r and p(2 * r) == 0
    q = coordinate_eval(toy_ctx, "a", 2)
    assert all(q(x) == (x + 1) % d for x in range(d))


def test_letter_tables_cached_and_frozen(toy_ctx):
    tabs = toy_ctx.letter_tables(1)
    assert tabs is toy_ctx.letter_tables(1)
    with pytest.raises(ValueError):
        tabs[0, 0] = 7
    d = tabs.shape[1]
    assert np.array_equal(tabs[0][tabs[1]], np.arange(d))
    assert np.array_equal(tabs[2][tabs[3]], np.arange(d))


def test_reconstruction_oracle_at_spread_coords(toy_ctx):
    # rebuild the coordinate image from the lamp state alone and compare
    def reconstruct(w: str, m: int) -> Permutation:
        lamps, shift = lamp_data(w_eval(w))
        d, R = toy_ctx.degree(m), toy_ctx.offset(m)
        sigma = np.arange(d, dtype=np.int32)
        for pos, v in lamps.items():
            p0, p1, p2 = pos % d, (pos + R) % d, (pos + 2 * R) % d
            if v == 1:
                sigma[p0], sigma[p1], sigma[p2] = p1, p2, p0
            else:
                sigma[p0], sigma[p1], sigma[p2] = p2, p0, p1
        return Permutation(sigma[(np.arange(d) + shift) % d])

    length = 16
    coords = [m for m in range(1, 51) if spread_ok(toy_ctx, m, length)][:3]
    assert coords
    for seed in range(12):
        w = random_reduced(length, seed)
        for m in coords:
            assert coordinate_eval(toy_ctx, w, m) == reconstruct(w, m)


# --- the word problem -------------------------------------------------------

def test_is_trivial_examples(toy_ctx):
    assert is_trivial(toy_ctx, "")
    assert is_trivial(toy_ctx, "aA")
    assert is_trivial(toy_ctx, "bbb")
    assert is_trivial(toy_ctx, "BBB")
    assert is_trivial(toy_ctx, "abbbA")
    assert not is_trivial(toy_ctx, "ab")
    assert not is_trivial(toy_ctx, "abAB")
    assert not is_trivial(toy_ctx, "b")


def test_word_problem_exhaustive_depth8(toy_ctx):
    # oracle: trivial iff lamp state is trivial AND coords 1..30 all fix
    # everything.  The locality argument says coords past cutoff(8) = 10
    # are implied by the lamp state; scanning to 30 also exercises that.
    depth = 8
    words = list(enumerate_reduced(depth, order="dfs"))[1:]
    coord_triv = np.ones(len(words), dtype=bool)
    for m in range(1, 31):
        tabs = toy_ctx.letter_tables(m)
        coord_triv &= dense_trivial_bitmap(tabs, depth)
    wreath_triv = np.fromiter(
        (w_eval(w).is_identity() for w in words), dtype=bool, count=len(words)
    )
    oracle = wreath_triv & coord_triv
    got = np.fromiter(
        (is_trivial(toy_ctx, w) for w in words), dtype=bool, count=len(words)
    )
    assert np.array_equal(got, oracle)
    assert int(oracle.sum()) > 0
    assert len(words) == 13_120


def test_equal(toy_ctx):
    assert equal(toy_ctx, "ab", "ab")
    assert not equal(toy_ctx, "ba", "ab")
    assert equal(toy_ctx, "bbb", "")
    assert equal(toy_ctx, "aAb", "b")
    assert not equal(toy_ctx, "bb", "BB")
    assert equal(toy_ctx, "bb", "B")


# --- signatures -------------------------------------------------------------

def test_signature_rejects_long_words(toy_ctx):
    with pytest.raises(ValueError):
        signature(toy_ctx, "abab", 3)


def test_signature_reduces_first(toy_ctx):
    assert signature(toy_ctx, "aA", 1) == signature(toy_ctx, "", 1)


def test_signature_equal_iff_equal_in_group(toy_ctx):
    words = list(enumerate_reduced(2))
    sigs = {w: signature(toy_ctx, w, 2) for w in words}
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            same = equal(toy_ctx, u, v)
            assert same == (sigs[u] == sigs[v])
            if same:
                assert hash(sigs[u]) == hash(sigs[v])
            assert same == (sigs[u].digest() == sigs[v].digest())


def test_signature_digest_distinguishes(toy_ctx):
    assert signature(toy_ctx, "ab", 2).digest() != signature(toy_ctx, "ba", 2).digest()
    assert signature(toy_ctx, "bbb", 3).digest() == signature(toy_ctx, "", 3).digest()


# --- witnesses ---------------------------------------------------------------

def test_witness_defining_properties(toy_ctx):
    for m in range(1, 7):
        w = witness(toy_ctx, m)
        R, d = toy_ctx.offset(m), toy_ctx.degree(m)
        assert len(w) == 4 + 4 * R
        assert w_eval(w).is_identity()
        assert coordinate_eval(toy_ctx, w, m) != identity(d)
        for k in range(1, 31):
            if k != m:
                dk = toy_ctx.degree(k)
                assert coordinate_eval(toy_ctx, w, k) == identity(dk)
        assert not is_trivial(toy_ctx, w)


def test_witness_image_structure(toy_ctx):
    # at its own coordinate the witness is the double transposition
    # swapping 0 with 3R and R with 2R
    for m in (1, 2, 5):
        R, d = toy_ctx.offset(m), toy_ctx.degree(m)
        p = coordinate_eval(toy_ctx, witness(toy_ctx, m), m)
        assert support(p) == {0, R, 2 * R, 3 * R}
        assert p(0) == 3 * R and p(3 * R) == 0
        assert p(R) == 2 * R and p(2 * R) == R


# --- balls --------------------------------------------------------------------

def test_ball_sizes(toy_ctx):
    assert [len(ball(toy_ctx, n)) for n in range(4)] == [1, 5, 15, 41]


def test_ball_matches_pairwise_oracle(toy_ctx):
    for n in range(4):
        got = [w for w, _ in ball(toy_ctx, n)]
        reps: list[str] = []
        for w in enumerate_reduced(n):
            if not any(equal(toy_ctx, w, rep) for rep in reps):
                reps.append(w)
        assert got == reps


def test_ball_budget(toy_ctx):
    with pytest.raises(BudgetExceeded):
        ball(toy_ctx, 3, budget=50)


def test_ball_representatives_are_distinct(toy_ctx):
    elems = ball(toy_ctx, 3)
    digests = {sig.digest() for _, sig in elems}
    assert len(digests) == len(elems)
    for (u, _), (v, _) in zip(elems, elems[1:]):
        assert not equal(toy_ctx, u, v)
