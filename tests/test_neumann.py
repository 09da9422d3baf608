"""Word problem, cutoff, witnesses and balls against brute-force oracles."""

import random

import numpy as np
import pytest

from bhneumann import (
    BHNeumannError,
    BudgetExceeded,
    DegreeTooLarge,
    GroupContext,
    GrowthProfile,
    Permutation,
    SequenceSet,
    SpreadAssertionFailed,
    _kernels,
    ball,
    commutator,
    compose,
    conjugate,
    coordinate_eval,
    cutoff,
    enumerate_reduced,
    equal,
    free_reduce,
    identity,
    inverse,
    invert,
    is_trivial,
    lamp_data,
    make_generators,
    next_prime,
    random_reduced,
    signature,
    span_cutoff,
    spread_ok,
    support,
    w_eval,
    witness,
)
from bhneumann.perm import MAX_DEGREE


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


def test_preset_is_read_as_the_first_coordinates_of_a_tower():
    # identity at the one preset coordinate, but later coordinates of the
    # tower see the lamps at shifts 0 and 7
    ctx = GroupContext(SequenceSet.preset([7], [2]))
    w = "b" + "a" * 7 + "B" + "A" * 7
    assert coordinate_eval(ctx, w, 1) == identity(7)
    assert not w_eval(w).is_identity()
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


def test_cutoff_degenerate_preset_answers():
    # d - 2r = 1 everywhere: no index clears span 2, and a preset has no
    # boundary past its last index to assert
    squeezed = GroupContext(SequenceSet.preset(d=[7] * 4, r=[3] * 4))
    assert cutoff(squeezed, 1) == 4 == span_cutoff(squeezed, 2)


def test_cutoff_memo_agrees_with_fresh_contexts(toy_seqs):
    ctx = GroupContext(toy_seqs)
    first = [cutoff(ctx, n) for n in range(13)]
    assert [cutoff(ctx, n) for n in range(13)] == first
    assert first == [cutoff(GroupContext(toy_seqs), n) for n in range(13)]
    preset = GroupContext(SequenceSet.preset([101] * 20, [40] * 19 + [1]))
    assert cutoff(preset, 8) == cutoff(preset, 8) == 20
    assert not is_trivial(preset, "BaBAbabA")
    assert not is_trivial(preset, "BaBAbabA")


def test_cutoff_answers_on_short_presets():
    # 5 indices: fewer than 2n + 2, the scan bound of a derived sequence
    ctx = GroupContext(SequenceSet.preset([101] * 5, [40] * 5))
    assert len(ball(ctx, 1)) == 5
    assert signature(ctx, "bbb", 3) == signature(ctx, "", 3)
    assert signature(ctx, "ab", 2) != signature(ctx, "ba", 2)


def test_cutoff_matches_brute_scan_on_presets_and_derived(toy_seqs):
    # a preset is scanned at every index; a derived sequence keeps
    # r(m) > m, so every index past 2n + 1 clears span 2n
    def brute(ctx, n):
        last = ctx.seqs.known if ctx.seqs.is_preset else 2 * n + 1
        return max((m for m in range(1, last + 1) if not spread_ok(ctx, m, n)), default=0)

    rng = random.Random(21)
    ctxs = [
        GroupContext(SequenceSet.preset([101] * 5, [40] * 5)),
        GroupContext(SequenceSet.preset([7] * 4, [3] * 4)),
        GroupContext(toy_seqs),
        GroupContext(SequenceSet(GrowthProfile.builtin())),
    ]
    for _ in range(40):
        d = [next_prime(rng.randint(7, 60)) for _ in range(rng.randint(1, 8))]
        r = [rng.randint(1, (x - 1) // 2) for x in d]  # d - 2r may be 1
        ctxs.append(GroupContext(SequenceSet.preset(d, r)))
    for ctx in ctxs:
        for n in range(12):
            assert cutoff(ctx, n) == brute(ctx, n), (ctx.seqs, n)


def test_negative_arguments_raise(toy_ctx):
    preset = GroupContext(SequenceSet.preset([101] * 5, [40] * 5))
    for ctx in (toy_ctx, preset):
        with pytest.raises(ValueError, match="span"):
            cutoff(ctx, -1)
        with pytest.raises(ValueError, match="span"):
            span_cutoff(ctx, -1)


def b_shift_span(word: str) -> int:
    """max - min of the shifts at which the word reads b or B."""
    shifts, s = [], 0
    for ch in word:
        if ch in "aA":
            s += 1 if ch == "a" else -1
        else:
            shifts.append(s)
    return max(shifts) - min(shifts)


def test_span_cutoff_toy_values(toy_ctx):
    spans = (0, 1, 2, 3, 4, 5, 8)
    assert [span_cutoff(toy_ctx, W) for W in spans] == [0, 0, 1, 2, 2, 3, 5]


def test_span_cutoff_matches_brute_scan(toy_ctx):
    for W in range(41):
        clash = [
            m for m in range(1, 101)
            if toy_ctx.offset(m) <= W or toy_ctx.degree(m) - 2 * toy_ctx.offset(m) <= W
        ]
        assert span_cutoff(toy_ctx, W) == max(clash, default=0)
        assert span_cutoff(toy_ctx, W) <= cutoff(toy_ctx, W)


def test_span_cutoff_scans_whole_preset():
    ctx = GroupContext(SequenceSet.preset([101] * 20, [40] * 19 + [1]))
    assert span_cutoff(ctx, 1) == 20
    assert span_cutoff(ctx, 0) == 0
    squeezed = GroupContext(SequenceSet.preset(d=[7] * 4, r=[3] * 4))
    assert span_cutoff(squeezed, 1) == 4  # d - 2r = 1 everywhere; no boundary to assert


def test_span_cutoff_failure_is_not_memoised(monkeypatch):
    # a derived sequence whose index 3 breaks r(m) > m: the scan for span 2
    # stops at m = 3 and must refuse, on every call
    seqs = SequenceSet(GrowthProfile.toy())
    monkeypatch.setattr(seqs, "r_of", lambda n: 2 if n == 3 else SequenceSet.r_of(seqs, n))
    ctx = GroupContext(seqs)
    w = "BaaBAAbaabAA"  # b-shifts 0 and 2, trivial lamp state
    assert w_eval(w).is_identity() and b_shift_span(w) == 2
    for _ in range(2):
        with pytest.raises(SpreadAssertionFailed):
            is_trivial(ctx, w)
        with pytest.raises(SpreadAssertionFailed):
            span_cutoff(ctx, 2)
    assert 2 not in ctx._spans
    assert span_cutoff(ctx, 1) == 0


def test_cutoff_failure_is_not_memoised(monkeypatch):
    # cutoff(n) is span_cutoff(2n): the same broken index 3 refuses length 1
    # on every call and leaves no memo entry behind
    seqs = SequenceSet(GrowthProfile.toy())
    monkeypatch.setattr(seqs, "r_of", lambda n: 2 if n == 3 else SequenceSet.r_of(seqs, n))
    ctx = GroupContext(seqs)
    for _ in range(2):
        with pytest.raises(SpreadAssertionFailed):
            cutoff(ctx, 1)
    assert 2 not in ctx._spans
    assert cutoff(ctx, 0) == 0


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


def dense_images(seqs: SequenceSet, word: str):
    """Image of the word at each coordinate of a preset, by perm.compose per letter."""
    for m in range(1, seqs.known + 1):
        d, r = seqs.d_of(m), seqs.r_of(m)
        alpha, beta = make_generators(d, r, r)
        gens = {"a": alpha, "A": inverse(alpha), "b": beta, "B": inverse(beta)}
        p = identity(d)
        for ch in word:
            p = compose(p, gens[ch])
        yield p


def dense_trivial(seqs: SequenceSet, word: str) -> bool:
    """Identity at every coordinate of a preset."""
    return all(p == identity(p.degree) for p in dense_images(seqs, word))


def lamp_trivial_word(rng: random.Random) -> str:
    """Product of conjugates of [b, b^(a^k)], sometimes commuted with a random word.

    Half the words are narrow (small k, short conjugators), so that their
    b-shift span is below the top indices of a preset.
    """
    k_max, reach = (3, 2) if rng.random() < 0.5 else (12, 8)
    w = ""
    for _ in range(rng.randint(1, 4)):
        c = commutator("b", conjugate("b", "a" * rng.randint(1, k_max)))
        if rng.random() < 0.5:
            c = invert(c)
        g = random_reduced(rng.randint(0, reach), rng.randrange(2**32))
        w = free_reduce(w + conjugate(c, g))
    if w and rng.random() < 0.4:
        w = commutator(w, random_reduced(rng.randint(1, 20), rng.randrange(2**32)))
    return w


def test_is_trivial_matches_dense_compose_on_random_presets():
    # presets break r(m) > m and squeeze d - 2r freely: r is anything in [1, (d-1)/2]
    rng = random.Random(12)
    answers = []
    skipped = 0
    for _ in range(60):
        d = [next_prime(rng.randint(7, 60)) for _ in range(rng.randint(2, 8))]
        r = [rng.randint(1, min(rng.choice((6, 30)), (x - 1) // 2)) for x in d]
        ctx = GroupContext(SequenceSet.preset(d, r))
        for _ in range(5):
            w = lamp_trivial_word(rng)
            assert w_eval(w).is_identity()
            got = is_trivial(ctx, w)
            assert got == dense_trivial(ctx.seqs, w), (d, r, w)
            for k in (len(w) // 3, len(w) // 2):
                u, v = w[:k], invert(w[k:])  # u v^-1 = w
                pairs = zip(dense_images(ctx.seqs, u), dense_images(ctx.seqs, v))
                dense_same = all(p == q for p, q in pairs)
                assert equal(ctx, u, v) == dense_same == got, (d, r, u, v)
            answers.append(got)
            if got and w and span_cutoff(ctx, b_shift_span(w)) < len(d):
                skipped += 1
    assert answers.count(True) >= 50 and answers.count(False) >= 50
    assert skipped >= 25  # trivial words decided without their top coordinates


def perfbench_trivial_word(rng: random.Random, maxlen: int) -> str:
    """Conjugates of [b, abA] by short random words, length in [7/8 maxlen, maxlen]."""
    base = commutator("b", "abA")
    w = ""
    while len(w) < maxlen - maxlen // 8:
        g = random_reduced(rng.randint(0, maxlen // 12), rng.randrange(2**32))
        c = base if rng.random() < 0.5 else invert(base)
        longer = free_reduce(w + g + c + invert(g))
        if len(longer) <= maxlen:
            w = longer
    return w


def test_is_trivial_work_is_the_span_cutoff(toy_ctx, monkeypatch):
    sizes = []
    eval_word = _kernels.eval_word

    def counted(tabs, codes):
        sizes.append(tabs.shape[1])
        return eval_word(tabs, codes)

    monkeypatch.setattr(_kernels, "eval_word", counted)
    rng = random.Random(5)
    for _ in range(40):
        w = perfbench_trivial_word(rng, 64)
        sizes.clear()
        assert is_trivial(toy_ctx, w)
        assert len(sizes) == span_cutoff(toy_ctx, b_shift_span(w)) <= 5
        assert cutoff(toy_ctx, len(w)) >= 65  # what the length cutoff would walk
    for m in (1, 4, 9):
        w = witness(toy_ctx, m)
        w = commutator(w, "ab")  # nontrivial at m only: every lower coordinate is walked
        sizes.clear()
        assert not is_trivial(toy_ctx, w)
        assert len(sizes) == m


def test_is_trivial_small_span_on_bprime():
    # d(1) is far past the dense table limit; a span-1 word never needs it
    ctx = GroupContext(SequenceSet(GrowthProfile.bprime()))
    assert is_trivial(ctx, "BaBAbabA")
    assert ctx.degree(1) > MAX_DEGREE
    assert ctx._tabs == {}


def test_bprime_witness_word_raises_degree_too_large():
    ctx = GroupContext(SequenceSet(GrowthProfile.bprime()))
    w = commutator("b", conjugate("b", "a" * ctx.offset(1)))
    with pytest.raises(DegreeTooLarge) as exc:
        is_trivial(ctx, w)
    assert isinstance(exc.value, BHNeumannError)
    with pytest.raises(DegreeTooLarge):
        witness(ctx, 1)
    assert ctx._tabs == {}


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


def test_signature_matches_dense_images_on_short_presets():
    # presets of 1-4 indices, all shorter than the 2n + 2 = 10 indices a
    # derived scan for cutoff(4) would read; several break r(m) > m
    rng = random.Random(13)
    words = list(enumerate_reduced(2))
    broken = equal_pairs = 0
    for _ in range(8):
        d = [next_prime(rng.randint(7, 40)) for _ in range(rng.randint(1, 4))]
        r = [rng.randint(1, min(rng.choice((3, 20)), (x - 1) // 2)) for x in d]
        broken += any(r[m - 1] <= m for m in range(1, len(r) + 1))
        ctx = GroupContext(SequenceSet.preset(d, r))
        sigs = [signature(ctx, w, 2) for w in words]
        images = [list(dense_images(ctx.seqs, w)) for w in words]
        for i, u in enumerate(words):
            for j in range(i + 1, len(words)):
                same = images[i] == images[j]
                assert (sigs[i] == sigs[j]) == same == equal(ctx, u, words[j]), (d, r, u, words[j])
                equal_pairs += same
    assert broken >= 2 and equal_pairs >= 16  # bb = B and BB = b on every preset


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


def test_witness_span_cutoff_is_its_coordinate(toy_ctx):
    # offsets grow with the index, so witness(m) walks coordinates 1..m only
    for m in range(1, 51):
        assert span_cutoff(toy_ctx, toy_ctx.offset(m)) == m


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
