"""Word problem, cutoff, witnesses and balls against brute-force oracles."""

import importlib.util
import random
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bhneumann.neumann as neumann
from bhneumann import (
    BHNeumannError,
    BudgetExceeded,
    DegreeTooLarge,
    GroupContext,
    GrowthProfile,
    InvalidGenerators,
    Permutation,
    SequenceSet,
    SpreadAssertionFailed,
    WitnessCheckFailed,
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
from bhneumann.words import to_codes
from conftest import enumerate_dfs, lamp_oracle


def dense_trivial_bitmap(tabs, depth: int) -> np.ndarray:
    """Preorder flags over all nonempty reduced words of length <= depth.

    Walks the prefix tree with child order a, A, b, B and composes the
    dense letter tables along each path; a flag is set where the prefix
    image is the identity.  Independent of the sparse kernels.
    """
    tabs = np.asarray(tabs)
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


def b_shift_window(word: str) -> tuple[int, int]:
    """(min, max - min) of the shifts at which the word reads b or B; (0, 0) if none."""
    shifts, s = [], 0
    for ch in word:
        if ch in "aA":
            s += 1 if ch == "a" else -1
        else:
            shifts.append(s)
    lo = min(shifts, default=0)
    return lo, max(shifts, default=0) - lo


def b_shift_span(word: str) -> int:
    """max - min of the shifts at which the word reads b or B; 0 if none."""
    return b_shift_window(word)[1]


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
    with pytest.raises(TypeError):
        tabs[0, 0] = 7
    d = tabs.shape[1]
    rows = np.asarray(tabs)
    assert np.array_equal(rows[0][rows[1]], np.arange(d))
    assert np.array_equal(rows[2][rows[3]], np.arange(d))
    # rows a, A, b, B are the generator images and their inverses
    builtin = GroupContext(SequenceSet(GrowthProfile.builtin()))
    for ctx, m in [(toy_ctx, m) for m in range(1, 6)] + [(builtin, 7)]:
        tabs = ctx.letter_tables(m)
        alpha, beta = make_generators(ctx.degree(m), ctx.offset(m), ctx.offset(m))
        rows = np.asarray(tabs)
        assert rows.dtype == np.int32 and not rows.flags.writeable
        want = [alpha.images, inverse(alpha).images, beta.images, inverse(beta).images]
        assert tabs.tolist() == [list(row) for row in want]


def test_letter_tables_check_each_coordinate_once(toy_seqs, monkeypatch):
    checked = []
    check = neumann.check_generators

    def counted(d, r1, r2):
        checked.append(d)
        check(d, r1, r2)

    monkeypatch.setattr(neumann, "check_generators", counted)
    ctx = GroupContext(toy_seqs)
    ctx.letter_tables(3)
    ctx.generator_pairs(4)
    ctx.letter_tables(2)
    ctx.letter_tables(4)
    assert checked == [ctx.degree(m) for m in range(1, 5)]


def test_checked_pairs_are_read_in_place(toy_seqs):
    # letter tables, signatures and generator_pairs all read the context's
    # own list: nothing is copied per lookup, and it is filled only to
    # the largest count asked for
    ctx = GroupContext(toy_seqs)
    ctx.letter_tables(4)
    assert ctx.generator_pairs(2) is ctx._pairs and len(ctx._pairs) == 4
    pairs = ctx.generator_pairs(6)
    assert pairs is ctx._pairs
    assert pairs == [(ctx.degree(m), ctx.offset(m)) for m in range(1, 7)]
    signature(ctx, "ab", 2)
    assert ctx.generator_pairs(0) is ctx._pairs
    assert len(ctx._pairs) == max(6, cutoff(ctx, 4))


def test_letter_tables_and_generator_pairs_reject_nonpositive_indices(toy_seqs):
    ctx = GroupContext(toy_seqs)
    ctx.letter_tables(3)
    tabs, pairs = dict(ctx._tabs), list(ctx._pairs)
    for m in (0, -1, -3):
        with pytest.raises(ValueError):
            ctx.letter_tables(m)
    for m0 in (-1, -2):
        with pytest.raises(ValueError):
            ctx.generator_pairs(m0)
    assert ctx._tabs == tabs and ctx._pairs == pairs
    assert GroupContext(toy_seqs).generator_pairs(0) == []
    assert ctx.letter_tables(1).shape == (4, ctx.degree(1))


@pytest.mark.parametrize("call", [
    lambda ctx: is_trivial(ctx, "abx"),
    lambda ctx: equal(ctx, "abx", "ab"),
    lambda ctx: equal(ctx, "ab", "abx"),
    lambda ctx: signature(ctx, "abx", 3),
    lambda ctx: coordinate_eval(ctx, "abx", 1),
    lambda ctx: _kernels.skeleton("abx"),
    lambda ctx: w_eval("abx"),
], ids=["is_trivial", "equal", "equal_inverted", "signature", "coordinate_eval", "skeleton",
        "w_eval"])
def test_word_readers_reject_letters_outside_the_alphabet(toy_ctx, call):
    with pytest.raises(ValueError, match="'x'"):
        call(toy_ctx)


def test_reconstruction_oracle_at_spread_coords(toy_ctx):
    # rebuild the coordinate image from the lamp state alone and compare
    def reconstruct(w: str, m: int) -> Permutation:
        x = w_eval(w)
        lamps, shift = dict(x.lamps), x.shift
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
    words = enumerate_dfs(depth)[1:]
    coord_triv = np.ones(len(words), dtype=bool)
    for m in range(1, 31):
        tabs = toy_ctx.letter_tables(m)
        coord_triv &= dense_trivial_bitmap(tabs, depth)
    wreath_triv = np.fromiter(
        (lamp_oracle(w).is_identity() for w in words), dtype=bool, count=len(words)
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
            assert lamp_oracle(w).is_identity()
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


def reader_words(rng: random.Random, rounds: int):
    """Seeded words for the reader: reduced, unreduced, b-free, only b/B, lamp-trivial."""
    for _ in range(rounds):
        n = rng.randint(0, 40)
        yield random_reduced(n, rng.randrange(2**32))
        yield "".join(rng.choice("aAbB") for _ in range(n))
        yield "".join(rng.choice("aA") for _ in range(n))
        yield "".join(rng.choice("bB") for _ in range(n))
        w = lamp_trivial_word(rng)
        k = rng.randint(0, len(w))
        yield w[:k] + rng.choice(("aA", "Bb", "bbbAa")) + w[k:]  # unreduced, same element


def skeleton_of_codes(codes: list[int]) -> tuple[list[tuple[int, int]], int]:
    """(shift, code) of each b/B in a code list, and the final shift."""
    pairs, s = [], 0
    for c in codes:
        if c < 2:
            s += 1 - 2 * c
        else:
            pairs.append((s, c))
    return pairs, s


def test_reader_matches_lamp_state_span_and_codes():
    seen = {"trivial": 0, "nontrivial": 0, "unreduced": 0, "no_b": 0, "only_b": 0}
    for word in reader_words(random.Random(21), 60):
        w = free_reduce(word)
        trivial = lamp_oracle(word).is_identity()
        for x in (w, word):
            assert _kernels.skeleton(x) == skeleton_of_codes(to_codes(free_reduce(x))), x
        skeleton, shift = _kernels.skeleton(w)
        window = neumann._lamp_window(skeleton, shift)
        assert window == (b_shift_window(w) if trivial else None), word
        seen["trivial" if trivial else "nontrivial"] += 1
        seen["unreduced"] += w != word
        seen["no_b"] += bool(w) and "b" not in w.lower()
        seen["only_b"] += bool(w) and "a" not in w.lower()
    assert min(seen.values()) >= 40, seen


def test_is_trivial_matches_dense_compose_on_toy_and_short_presets(toy_ctx):
    words = [w for w in reader_words(random.Random(22), 150) if len(w) <= 24]
    # on toy, span_cutoff(W) <= W < 25 for these words: coordinates 1..25 decide
    toy_head = SequenceSet.preset(
        [toy_ctx.degree(m) for m in range(1, 26)], [toy_ctx.offset(m) for m in range(1, 26)]
    )
    short_a = SequenceSet.preset([11, 13], [2, 3])
    short_b = SequenceSet.preset([7, 17, 19], [3, 2, 5])
    for ctx, seqs in ((toy_ctx, toy_head), (GroupContext(short_a), short_a),
                      (GroupContext(short_b), short_b)):
        trivial = seen_by_coordinates = 0
        for w in words:
            lamps_trivial = lamp_oracle(w).is_identity()
            got = is_trivial(ctx, w)
            assert got == (lamps_trivial and dense_trivial(seqs, w)), (seqs, w)
            trivial += got
            seen_by_coordinates += lamps_trivial and not got
        assert trivial >= 50 and seen_by_coordinates >= 10


def unreduced_words(rng: random.Random, count: int):
    """Seeded words of length 0-40 with blocks inserted that free reduction must cancel.

    A base word, reduced, lamp-trivial or raw, gets one or more blocks
    inserted at random places: x x^-1 for x in a, b, a^k b A^k B and
    a^k b A^k (0 <= k <= 3), or, in bases that are not lamp-trivial,
    sometimes x alone.
    """
    pool = [w for w in (lamp_trivial_word(rng) for _ in range(600)) if len(w) <= 28]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            w = random_reduced(rng.randint(0, 28), rng.randrange(2**32))
        elif kind == 1:
            w = rng.choice(pool)
        else:
            w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 28)))
        while True:
            k = rng.randint(0, 3)
            x = rng.choice(("a", "b", "a" * k + "b" + "A" * k + "B", "a" * k + "b" + "A" * k))
            block = x if kind != 1 and rng.random() < 0.3 else x + invert(x)
            if len(w) + len(block) > 40:
                break
            pos = rng.randint(0, len(w))
            w = w[:pos] + block + w[pos:]
            if rng.random() < 0.5:
                break
        yield w


def test_reducing_reader_matches_free_reduce_then_read(toy_ctx, monkeypatch):
    # skeleton and is_trivial of a raw word against the same calls on its
    # free reduction, signature on every 4th word; dense perm.compose on
    # the raw word decides is_trivial on the short presets for every 10th
    # word and on the toy head for every 50th, and coordinate_eval on the
    # short presets for every 40th
    rng = random.Random(23)
    words = list(unreduced_words(rng, 20_000))
    toy_head = SequenceSet.preset(
        [toy_ctx.degree(m) for m in range(1, 26)], [toy_ctx.offset(m) for m in range(1, 26)]
    )
    short_a = SequenceSet.preset([11, 13], [2, 3])
    short_b = SequenceSet.preset([7, 17, 19], [3, 2, 5])
    contexts = ((toy_ctx, toy_head), (GroupContext(short_a), short_a),
                (GroupContext(short_b), short_b))
    seen = {"unreduced": 0, "trivial": 0, "lamp_trivial_nontrivial": 0, "dense": 0}
    answers = []
    for i, w in enumerate(words):
        assert len(w) <= 40
        reduced = free_reduce(w)
        assert _kernels.skeleton(w) == skeleton_of_codes(to_codes(reduced)), w
        lamps_trivial = lamp_oracle(w).is_identity()
        row = []
        for ctx, seqs in contexts:
            got = is_trivial(ctx, w)
            assert got == is_trivial(ctx, reduced), (seqs, w)
            if i % (50 if seqs is toy_head else 10) == 0:
                # a lamp-trivial word of length <= 40 has span <= 20, and on
                # toy span_cutoff(W) <= W: toy's first 25 coordinates decide
                assert got == (lamps_trivial and dense_trivial(seqs, w)), (seqs, w)
                seen["dense"] += 1
            row.append(got)
        answers.append(row)
        n = len(reduced)
        if n:
            with pytest.raises(ValueError, match=f"reduced length {n} exceeds"):
                signature(toy_ctx, w, n - 1)
        if i % 4 == 0:
            assert signature(contexts[2][0], w, n) == signature(contexts[2][0], reduced, n), w
        if i % 40 == 0:
            for ctx, seqs in contexts[1:]:
                for m, p in enumerate(dense_images(seqs, w), 1):
                    assert coordinate_eval(ctx, w, m) == p, (seqs, w, m)
        seen["unreduced"] += reduced != w
        seen["trivial"] += row[0]
        seen["lamp_trivial_nontrivial"] += lamps_trivial and not row[0]
    assert seen["unreduced"] >= 15_000 and seen["dense"] == 4400, seen
    assert seen["trivial"] >= 1500 and seen["lamp_trivial_nontrivial"] >= 1000, seen

    # one pass: no call reaches words.free_reduce, under any name that binds it
    def no_free_reduce(word):
        raise AssertionError("free_reduce called")

    original = free_reduce
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if (name == "bhneumann" or name.startswith("bhneumann.")) and \
                getattr(mod, "free_reduce", None) is original:
            monkeypatch.setattr(mod, "free_reduce", no_free_reduce)
    assert sys.modules["bhneumann.words"].free_reduce is no_free_reduce
    for w, row in zip(words[:2000], answers):
        k = len(w) // 2
        for (ctx, _), want in zip(contexts, row):
            assert is_trivial(ctx, w) == want
            assert equal(ctx, w[:k], invert(w[k:])) == want


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

    def counted(tabs, *args):
        sizes.append(tabs.shape[1])
        return eval_word(tabs, *args)

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


def test_tracer_reads_eval_word_per_coordinate_and_b_letter(toy_ctx):
    # perfbench's tracer counts eval_word's children of each is_trivial
    # span and len(args[1]) letters per call; both must stay readable
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lib = SimpleNamespace(**{name: importlib.import_module(f"bhneumann.{name}") for name in (
        "cli", "seqgen", "schreier", "growth", "neumann", "_kernels", "wreath", "words", "perm")})
    rng = random.Random(5)
    words = [perfbench_trivial_word(rng, 64) for _ in range(20)]
    c = commutator("b", conjugate("b", "a"))  # trivial at every toy coordinate
    words += [c + conjugate(c, "a" * k) for k in (3, 6, 9)]  # b-spans 4, 7, 10
    tracer = tracing.Tracer()
    tracing.install(tracer, lib)
    try:
        answers = [neumann.is_trivial(toy_ctx, w) for w in words]
    finally:
        tracer.uninstall()
    assert neumann.is_trivial is is_trivial
    assert not hasattr(_kernels.eval_word, "__wrapped__")
    assert answers == [True] * len(words)
    cutoffs = [span_cutoff(toy_ctx, b_shift_span(free_reduce(w))) for w in words]
    assert tracer.children_of("neumann.is_trivial", "kernels.eval_word") == cutoffs
    assert cutoffs[20:] == [2, 4, 6]
    b_letters = sum(k * sum(ch in "bB" for ch in free_reduce(w)) for w, k in zip(words, cutoffs))
    assert tracer.counts["kernels.eval_word_letters"] == b_letters


def test_abelian_pre_check_rejects_only_lamp_rejected_words(toy_ctx, monkeypatch):
    # is_trivial answers False from the letter counts alone, without reading
    # the word, exactly when the image of the lamp state in Z x Z/3 (the
    # shift, the lamp sum mod 3) is nonzero; each such word has _lamp_window None
    rng = random.Random(24)
    short = GroupContext(SequenceSet.preset([7, 17, 19], [3, 2, 5]))
    read = []
    skeleton = _kernels.skeleton

    def counted(word):
        read.append(word)
        return skeleton(word)

    monkeypatch.setattr(_kernels, "skeleton", counted)
    seen = {"skipped": 0, "read_lamp_rejected": 0, "read_lamp_trivial": 0, "equal": 0}
    words = list(unreduced_words(rng, 2000))
    for _ in range(500):  # lamps 1 and 2 at shifts 0 and k: sums 0, lamp state not
        k = rng.randint(1, 6)
        block = rng.choice(("b" + "a" * k + "B" + "A" * k, "B" + "A" * k + "b" + "a" * k))
        w = lamp_trivial_word(rng)
        pos = rng.randint(0, len(w))
        words.append(w[:pos] + block + w[pos:])
    for w in words:
        lamps = lamp_oracle(w)
        abelian = lamps.shift != 0 or sum(v for _, v in lamps.lamps) % 3 != 0
        k = rng.randint(0, len(w))
        u, v = w[:k], invert(w[k:])  # equal(u, v) asks is_trivial(u v^-1) = is_trivial(w)
        for ctx in (toy_ctx, short):
            for ask in (lambda: is_trivial(ctx, w), lambda: equal(ctx, u, v)):
                read.clear()
                got = ask()
                assert (not read) == abelian, w
                if abelian:
                    assert not got
                    assert neumann._lamp_window(*skeleton(w)) is None, w
        seen["skipped"] += abelian
        seen["read_lamp_rejected"] += not abelian and not lamps.is_identity()
        seen["read_lamp_trivial"] += lamps.is_identity()
        seen["equal"] += 0 < k < len(w)
    assert min(seen.values()) >= 300, seen


@pytest.mark.parametrize("word", ["ax", "xa", "abx", "bbx", "aaAbBy", "éb"])
def test_pre_check_raises_on_bad_letters_before_counting(toy_ctx, word):
    # every word here is rejected by its counts once the bad letter is dropped
    bad = next(ch for ch in word if ch not in "aAbB")
    with pytest.raises(ValueError, match=repr(bad)):
        is_trivial(toy_ctx, word)
    with pytest.raises(ValueError, match=repr(bad)):
        equal(toy_ctx, word, "")


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


def test_word_problem_refuses_presets_outside_the_generator_precondition():
    # d = 9 is not prime; r = 0 puts the 3-cycle's points together
    for d, r in (([9], [2]), ([101], [0])):
        ctx = GroupContext(SequenceSet.preset(d, r))
        calls = [
            lambda: is_trivial(ctx, "BaaBAAbaabAA"),
            lambda: equal(ctx, "BaaBAA", "aaBAAB"),
            lambda: signature(ctx, "ab", 2),
        ]
        if r == [2]:
            calls.append(lambda: witness(ctx, 1))
        for call in calls:
            with pytest.raises(InvalidGenerators) as exc:
                call()
            assert isinstance(exc.value, BHNeumannError)
            assert isinstance(exc.value, ValueError)
        # a word that reduces to the empty word is trivial before any coordinate is read
        assert is_trivial(ctx, "") and is_trivial(ctx, "abBA") and equal(ctx, "bAa", "b")
        assert ctx._tabs == {}
    # r = 0 makes the witness word collapse before any coordinate is read
    with pytest.raises(WitnessCheckFailed):
        witness(GroupContext(SequenceSet.preset([101], [0])), 1)


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


def reference_signature(ctx: GroupContext, word: str, n_class: int):
    """Canonical bytes and per-coordinate images of a signature, by perm.compose.

    The layout is fixed: n_class and the number of coordinates, then per
    coordinate d and the d images as little-endian int32, then the lamp
    state.
    """
    w = free_reduce(word)
    m0 = cutoff(ctx, 2 * n_class)
    parts = [n_class.to_bytes(4, "big"), m0.to_bytes(4, "big")]
    images = []
    for m in range(1, m0 + 1):
        d, r = ctx.degree(m), ctx.offset(m)
        alpha, beta = make_generators(d, r, r)
        gens = {"a": alpha, "A": inverse(alpha), "b": beta, "B": inverse(beta)}
        p = identity(d)
        for ch in w:
            p = compose(p, gens[ch])
        images.append(p.images)
        parts.append(d.to_bytes(4, "big"))
        parts.append(struct.pack(f"<{d}i", *p.images))
    lamps = lamp_oracle(w)
    parts.append(lamps.shift.to_bytes(8, "big", signed=True))
    for pos, val in lamps.lamps:
        parts.append(pos.to_bytes(8, "big", signed=True))
        parts.append(val.to_bytes(1, "big"))
    return b"".join(parts), images


@pytest.mark.parametrize("which", ["toy", "builtin", "preset_a", "preset_b"])
def test_signature_bytes_match_dense_composition(which, toy_ctx):
    # both presets break r(m) > m; (5, 2) and (7, 2) make one or two
    # 3-cycles move half the points, so the normal form goes dense there
    ctx = {
        "toy": toy_ctx,
        "builtin": GroupContext(SequenceSet(GrowthProfile.builtin())),
        "preset_a": GroupContext(SequenceSet.preset([5, 7], [1, 2])),
        "preset_b": GroupContext(SequenceSet.preset([5, 11, 13], [2, 1, 3])),
    }[which]
    words = list(enumerate_reduced(3))
    sigs = [signature(ctx, w, 3) for w in words]
    refs = [reference_signature(ctx, w, 3) for w in words]
    for w, sig, (want, _) in zip(words, sigs, refs):
        assert sig.canonical_bytes() == want, w
    # the stored normal forms are equal exactly where the images are
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            same = refs[i][1] == refs[j][1]
            assert (sigs[i].low_coords == sigs[j].low_coords) == same, (words[i], words[j])


def test_signature_normal_form_is_canonical():
    # at (5, 2), aBaB has s = 2 and sigma = rho^-2, yet its image is trivial
    ctx = GroupContext(SequenceSet.preset([5], [2]))
    assert signature(ctx, "aBaB", 4).low_coords == signature(ctx, "", 4).low_coords == ((5, 0, ()),)
    assert signature(ctx, "aBaB", 4) != signature(ctx, "", 4)  # the lamp states differ


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


def test_witness_matches_dense_compose_on_presets():
    # witness(ctx, m) returns exactly when dense composition shows its word
    # nontrivial at coordinate m and the identity at every other preset coordinate
    rng = random.Random(23)
    found = refused = 0
    for _ in range(40):
        d = [next_prime(rng.randint(11, 70)) for _ in range(rng.randint(1, 5))]
        r = [rng.randint(1, min(12, (x - 1) // 2)) for x in d]
        ctx = GroupContext(SequenceSet.preset(d, r))
        for m in range(1, len(d) + 1):
            images = list(dense_images(ctx.seqs, neumann._witness_word(r[m - 1])))
            only_m = all((p == identity(p.degree)) == (k != m) for k, p in enumerate(images, 1))
            try:
                w = witness(ctx, m)
            except WitnessCheckFailed:
                assert not only_m, (d, r, m)
                refused += 1
            else:
                assert only_m and w == neumann._witness_word(r[m - 1]), (d, r, m)
                found += 1
    assert found >= 40 and refused >= 10


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


def counted_signature(monkeypatch) -> list[str]:
    """Patch neumann.signature to record each word it is asked for; returns the record."""
    calls: list[str] = []
    real = neumann.signature

    def counted(ctx, word, n_class):
        calls.append(word)
        return real(ctx, word, n_class)

    monkeypatch.setattr(neumann, "signature", counted)
    return calls


def full_ball(ctx, n: int) -> list:
    """The reference ball: every reduced word of length <= n signed, the first signature wins."""
    first = {}
    for w in enumerate_reduced(n):
        first.setdefault(signature(ctx, w, n), w)
    return [(w, sig) for sig, w in first.items()]


def shortlex(word: str) -> tuple:
    return len(word), ["aAbB".index(c) for c in word]


def test_ball_calls_signature_once_per_candidate(toy_ctx, monkeypatch):
    # ball extends only the words it returns: the empty word, then each
    # one-letter reduced extension of a returned word shorter than 3
    calls = counted_signature(monkeypatch)
    elems = ball(toy_ctx, 3)
    assert len(elems) == 41
    reps = [w for w, _ in elems]
    extensions = {
        w + c for w in reps if len(w) < 3 for c in "aAbB" if free_reduce(w + c) == w + c
    }
    assert calls[0] == ""
    assert set(calls[1:]) == extensions
    assert len(set(calls)) == len(calls) == 47
    assert calls == sorted(calls, key=shortlex)


def test_ball_signature_call_counts(toy_ctx, monkeypatch):
    calls = counted_signature(monkeypatch)
    counts = []
    for n in range(1, 7):
        calls.clear()
        ball(toy_ctx, n)
        counts.append(len(calls))
    assert counts == [5, 17, 47, 125, 299, 689]


def test_ball_matches_full_enumeration(toy_ctx):
    # the pruned walk returns the reference list, words and signatures in order
    builtin = GroupContext(SequenceSet(GrowthProfile.builtin()))
    for ctx, top in ((toy_ctx, 6), (builtin, 5)):
        for n in range(top + 1):
            assert ball(ctx, n) == full_ball(ctx, n), n


def test_ball_matches_full_enumeration_on_short_presets():
    # r(m) <= m: coordinates with small offsets identify many words
    rng = random.Random(28)
    for _ in range(8):
        d = [rng.choice((5, 7, 11, 13)) for _ in range(rng.randint(1, 4))]
        r = [rng.randint(1, min(m, (x - 1) // 2)) for m, x in enumerate(d, 1)]
        ctx = GroupContext(SequenceSet.preset(d, r))
        for n in range(6):
            got, want = ball(ctx, n), full_ball(ctx, n)
            assert got == want, (d, r, n)
        assert len(got) < 2 * (3**5 - 1) + 1


def test_ball_radius_zero_and_negative(toy_ctx):
    assert ball(toy_ctx, 0) == [("", signature(toy_ctx, "", 0))]
    with pytest.raises(ValueError):
        ball(toy_ctx, -1)


def test_ball_budget(toy_ctx):
    with pytest.raises(BudgetExceeded):
        ball(toy_ctx, 3, budget=50)


def test_ball_representatives_are_distinct(toy_ctx):
    elems = ball(toy_ctx, 3)
    digests = {sig.digest() for _, sig in elems}
    assert len(digests) == len(elems)
    for (u, _), (v, _) in zip(elems, elems[1:]):
        assert not equal(toy_ctx, u, v)
