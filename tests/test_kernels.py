"""Sparse coordinate kernels against dense table composition."""

import random
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import bhneumann._kernels as K
from bhneumann import (
    DegreeTooLarge, GroupContext, GrowthProfile, SequenceSet, commutator, conjugate,
    enumerate_reduced, inverse, make_generators, random_reduced, span_cutoff,
)
from bhneumann.perm import MAX_DEGREE, Permutation, compose, cycle_from, identity, power
from bhneumann.words import to_codes
from conftest import enumerate_dfs, lamp_oracle
from test_neumann import dense_images, dense_trivial_bitmap, lamp_trivial_word


def tabs_of(d: int, r: int) -> np.ndarray:
    alpha, beta = make_generators(d, r, r)
    tabs = np.empty((4, d), dtype=np.int32)
    tabs[0] = alpha.images
    tabs[1] = inverse(alpha).images
    tabs[2] = beta.images
    tabs[3] = inverse(beta).images
    return tabs


def dense_image(d: int, r: int, w: str):
    alpha, beta = make_generators(d, r, r)
    by_letter = {"a": alpha, "A": inverse(alpha), "b": beta, "B": inverse(beta)}
    cur = identity(d)
    for ch in w:
        cur = compose(cur, by_letter[ch])
    return cur


def eval_form(tabs, w: str) -> tuple[int, dict]:
    """(final shift, sigma) of w at the coordinate of tabs; its image is sigma o rho^shift."""
    skeleton, shift = K.skeleton(w)
    return shift, K.eval_word(tabs, skeleton, *K.window(skeleton))


def word_batch(nwords: int, length: int, seed0: int) -> np.ndarray:
    rows = [to_codes(random_reduced(length, seed0 + i)) for i in range(nwords)]
    return np.stack(rows).astype(np.int8)


def test_scan_tree_clean_under_support_separation():
    # r = 11, depth 4: 11 >= 9 and 83 - 22 >= 9, so no check may fail
    tabs = tabs_of(83, 11)
    nodes, fails = K.scan_tree(tabs, 11, 4)
    assert nodes == 160
    assert fails == 0


def test_scan_tree_detects_collisions():
    # r = 2 on 13 points: lamps two apart have overlapping overlays
    # (e.g. the prefix "baab"), so a depth-4 scan must report failures.
    # The counts were measured with dense table composition.
    tabs = tabs_of(13, 2)
    nodes, fails = K.scan_tree(tabs, 2, 4)
    assert nodes == 160
    assert fails > 0
    assert (nodes, fails) == (160, 8)
    assert K.scan_tree(tabs_of(5, 2), 2, 4) == (160, 64)


def test_dfs_order_matches_word_enumeration():
    tabs = tabs_of(83, 11)
    bitmap = dense_trivial_bitmap(tabs, 4)
    words = enumerate_dfs(4)[1:]
    assert len(words) == len(bitmap)
    idx = np.arange(83, dtype=np.int32)
    for k, w in enumerate(words):
        s, sigma = eval_form(tabs, w)
        images = K.image(83, s, sigma.items())
        assert bitmap[k] == bool((images == idx).all())


def test_eval_word_matches_permutation_composition():
    # on 13 points, words of length 200 carry the shift past d
    for d, r, length in ((97, 3, 30), (13, 2, 200), (13, 4, 200)):
        tabs = tabs_of(d, r)
        max_shift = 0
        for seed in range(8):
            w = random_reduced(length, seed)
            skeleton, shift = K.skeleton(w)
            sigma = K.eval_word(tabs, skeleton, *K.window(skeleton))
            assert sigma == K.skeleton_form(skeleton, r, d)
            got = K.image(d, shift, sigma.items())
            assert np.array_equal(got, dense_image(d, r, w).images)
            shifts = np.cumsum([(ch == "a") - (ch == "A") for ch in w])
            max_shift = max(max_shift, int(np.abs(shifts).max()))
        assert max_shift >= d or d > length


def test_skeleton_form_matches_eval_word():
    # eval_word reads (d, r) off its tables; skeleton_form takes them as given
    for d, r, length in ((97, 3, 30), (13, 2, 200), (13, 4, 200)):
        tabs = tabs_of(d, r)
        for seed in range(8):
            skeleton, _ = K.skeleton(random_reduced(length, seed))
            sigma = K.eval_word(tabs, skeleton, *K.window(skeleton))
            assert K.skeleton_form(skeleton, r, d) == sigma


def eval_branch(d: int, r: int, skeleton) -> str:
    """The path eval_word takes: the window over lo .. lo + span + 2r, or skeleton_form's dict.

    The dict is taken when r > span, when the window wraps mod d, or when
    it holds more than 8 entries per b letter.
    """
    shifts = [t for t, _ in skeleton]
    span = max(shifts) - min(shifts)
    if r > span:
        return "r > span"
    if span + 2 * r >= d:
        return "span + 2r >= d"
    if span + 2 * r + 1 > 8 * len(skeleton):
        return "window > 8k"
    return "window"


def spread_cube_word(rng: random.Random) -> str:
    """A product of conjugates of b^3 and B^3 by powers of a: the identity, any span."""
    w = ""
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-12, 12)
        g, g_inv = ("a" * k, "A" * k) if k >= 0 else ("A" * -k, "a" * -k)
        w += g + rng.choice(("bbb", "BBB")) + g_inv
    return w


def test_eval_word_window_and_fallback_match_dense():
    # seeded (d, r, word) triples on both sides of the window condition;
    # on 13 points, 200-letter words carry their shifts past d, and
    # random words reach negative shifts
    rng = random.Random(31)
    seen = Counter()
    for _ in range(400):
        d = rng.choice((7, 11, 13, 13, 29, 61, 211))
        r = rng.randint(1, (d - 1) // 2)
        kind = rng.randrange(3)
        if kind == 0:
            w = random_reduced(rng.randint(1, 200 if d == 13 else 60), rng.randrange(2**32))
        elif kind == 1:
            w = lamp_trivial_word(rng) or "b"
        else:
            w = spread_cube_word(rng)
        skeleton, shift = K.skeleton(w)
        if not skeleton:
            continue
        sigma = K.eval_word(tabs_of(d, r), skeleton, *K.window(skeleton))
        assert sigma == K.skeleton_form(skeleton, r, d), (d, r, w)
        assert np.array_equal(K.image(d, shift, sigma.items()), dense_image(d, r, w).images)
        branch = eval_branch(d, r, skeleton)
        seen[branch, bool(sigma)] += 1
        seen["negative shift"] += min(skeleton)[0] < 0
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 7, seen


def test_eval_word_on_presets_squeezed_below_the_span():
    # d - 2r <= span at the first coordinates: eval_word on the context's
    # own letter tables falls back to the dict and still matches perm.compose
    rng = random.Random(32)
    presets = [SequenceSet.preset([7, 17, 19], [3, 2, 5]), SequenceSet.preset([11, 13], [5, 6])]
    seen = Counter()
    for seqs in presets:
        ctx = GroupContext(seqs)
        for _ in range(40):
            w = lamp_trivial_word(rng) or "b"
            skeleton, shift = K.skeleton(w)
            for m, want in enumerate(dense_images(seqs, w), 1):
                d, r = seqs.d_of(m), seqs.r_of(m)
                sigma = K.eval_word(ctx.letter_tables(m), skeleton, *K.window(skeleton))
                assert sigma == K.skeleton_form(skeleton, r, d)
                assert np.array_equal(K.image(d, shift, sigma.items()), want.images), (m, w)
                if skeleton:
                    seen[eval_branch(d, r, skeleton)] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_eval_word_shift_past_int8_range():
    # the skeleton's shifts reach 200 and are plain ints: an int8 shift
    # would wrap at 127
    d, r = 257, 5
    w = "a" * 200 + "b" + "A" * 150 + "B"
    skeleton, s = K.skeleton(w)
    assert skeleton == [(200, 2), (50, 3)] and s == 50
    assert all(type(x) is int for pair in skeleton for x in pair)
    sigma = K.eval_word(tabs_of(d, r), skeleton, *K.window(skeleton))
    assert list(K.image(d, s, sigma.items())) == list(dense_image(d, r, w).images)


def test_normal_form_contract():
    # s = 0 (mod d) with sigma empty implies the identity, not conversely:
    # at (5, 2), aBaB has s = 2 and sigma = rho^-2, yet its image is trivial
    s, sigma = eval_form(tabs_of(5, 2), "aBaB")
    assert s == 2 and sigma
    assert dense_image(5, 2, "aBaB") == identity(5)
    assert np.array_equal(K.image(5, s, sigma.items()), identity(5).images)
    for d, r in ((5, 2), (7, 3)):
        tabs = tabs_of(d, r)
        for w in enumerate_reduced(6):
            cur = dense_image(d, r, w)
            s, sigma = eval_form(tabs, w)
            assert s == w.count("a") - w.count("A")
            assert np.array_equal(K.image(d, s, sigma.items()), cur.images)
            if s % d == 0 and not sigma:
                assert cur == identity(d)


def test_image_reduces_the_shift():
    for d, r in ((5, 2), (13, 4)):
        tabs = tabs_of(d, r)
        for w in enumerate_reduced(4):
            s, sigma = eval_form(tabs, w)
            want = list(dense_image(d, r, w).images)
            for k in (-3, -1, 1, 4):
                assert list(K.image(d, s + k * d, sigma.items())) == want, (w, k)


def test_image_refuses_past_max_degree():
    before = len(K._row)
    with pytest.raises(DegreeTooLarge):
        K.image(MAX_DEGREE + 1, 0, ())
    assert len(K._row) == before


def test_canonical_form_is_one_per_image():
    for d, r in ((5, 2), (7, 3), (11, 2)):
        tabs = tabs_of(d, r)
        forms = {}
        for w in enumerate_reduced(5):
            s, sigma = K.canonical_form(d, *eval_form(tabs, w))
            assert 0 <= s < d
            assert list(K.image(d, s, sigma.items())) == list(dense_image(d, r, w).images)
            forms.setdefault(dense_image(d, r, w).images, set()).add((s, tuple(sorted(sigma.items()))))
        assert all(len(f) == 1 for f in forms.values())
    assert K.canonical_form(5, *eval_form(tabs_of(5, 2), "aBaB")) == (0, {})


def test_check_random_words_counts_every_word():
    tabs = tabs_of(83, 11)
    batch = word_batch(20, 10, seed0=77)
    nwords, fails = K.check_random_words(tabs, 11, batch)
    assert int(nwords) == 20
    assert int(fails) == 0
    # colliding overlays, counts measured with dense table composition
    batch = word_batch(100, 24, seed0=1000)
    assert K.check_random_words(tabs_of(13, 2), 2, batch) == (100, 95)


def test_check_random_words_takes_code_lists():
    batch = word_batch(100, 24, seed0=1000)
    lists = [to_codes(random_reduced(24, 1000 + i)) for i in range(100)]
    assert lists == batch.tolist()
    for d, r in ((13, 2), (83, 11)):
        tabs = tabs_of(d, r)
        assert K.check_random_words(tabs, r, lists) == K.check_random_words(tabs, r, batch)


@pytest.mark.parametrize("d,r", [(13, 2), (5, 2), (7, 2), (11, 3), (83, 11)])
def test_scan_tree_counts_as_each_word_checked_alone(d, r):
    # check_random_words rebuilds the lamp overlay for every word, where
    # scan_tree rebuilds it only below b and B; depth 5 puts a and A
    # below the first colliding b nodes (such as "baab" at r = 2)
    words = [to_codes(w) for w in enumerate_dfs(5)][1:]
    tabs = tabs_of(d, r)
    assert K.scan_tree(tabs, r, 5) == K.check_random_words(tabs, r, words)


def dense_checks(d: int, r: int, words: list[str]) -> tuple[int, int]:
    """(words, failures) of the two scan_tree checks, by dense composition alone.

    Builds the generators without make_generators, so any 1 <= r < d
    works, and takes the lamps from the letter-by-letter oracle.
    """
    alpha = Permutation((*range(1, d), 0))
    beta = cycle_from([0, r, 2 * r % d], d)
    by_letter = {"a": alpha, "A": inverse(alpha), "b": beta, "B": inverse(beta)}
    fails = 0
    for w in words:
        image = identity(d)
        for ch in w:
            image = compose(image, by_letter[ch])
        lamps = lamp_oracle(w)
        s = lamps.shift
        sigma = compose(image, power(alpha, -s)).images  # image o rho^-s
        overlay = list(range(d))
        for i, v in lamps.lamps:  # increasing position: a later lamp overwrites
            x, y, z = i % d, (i + r) % d, (i + 2 * r) % d
            if v == 2:
                y, z = z, y
            overlay[x], overlay[y], overlay[z] = y, z, x
        trivial = sigma == tuple(range(d))
        fails += list(sigma) != overlay or (s % d == 0 and trivial) != (s == 0 and not lamps.lamps)
    return len(words), fails


@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_walks_match_dense_reference_at_every_offset(d):
    tabs = SimpleNamespace(shape=(4, d))  # the walks read only the degree
    tree = enumerate_dfs(4)[1:]
    batch = [random_reduced(12, 300 + i) for i in range(50)]
    codes = [to_codes(w) for w in batch]
    failing = 0
    for r in range(1, d):
        want = dense_checks(d, r, tree)
        assert K.scan_tree(tabs, r, 4) == want, r
        assert K.check_random_words(tabs, r, codes) == dense_checks(d, r, batch), r
        failing += want[1] > 0
    assert failing > 0  # every d here has offsets whose overlays collide


class DegreeOnly:
    """Stands in for letter tables of degree d and offset r: shape and tabs[2, 0] = r only."""

    def __init__(self, d: int, r: int):
        self.shape = (4, d)
        self.r = r

    def __getitem__(self, key):
        assert key == (2, 0)
        return self.r


def test_walks_size_nothing_by_the_degree():
    # bprime's d(1): one dense row of that degree would take about 3 TB
    d, r = 766409539403, 10**11
    tabs = DegreeOnly(d, r)
    rows = [to_codes(random_reduced(10, 40 + i)) for i in range(20)]
    # eval_word at r = 10**11 takes skeleton_form's dict; at r = 3 <= span the window
    skeletons = [K.skeleton(random_reduced(40, 60 + i))[0] for i in range(20)]
    skeletons = [sk for sk in skeletons if eval_branch(d, 3, sk) == "window"]
    assert len(skeletons) >= 15
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert K.scan_tree(tabs, r, 4) == (160, 0)
        assert K.check_random_words(tabs, r, rows) == (20, 0)
        far = [K.eval_word(tabs, sk, *K.window(sk)) for sk in skeletons]
        near = [K.eval_word(DegreeOnly(d, 3), sk, *K.window(sk)) for sk in skeletons]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 1 << 20
    assert far == [K.skeleton_form(sk, r, d) for sk in skeletons]
    assert near == [K.skeleton_form(sk, 3, d) for sk in skeletons]
    assert all(far) and all(near)


def test_eval_word_work_is_bounded_by_the_b_letters(monkeypatch):
    # A witness word of builtin m = 2000 has 4 b letters over a span of
    # r(2000), and the wide word 8 over a span of 1001: at every coordinate
    # its cutoff walks, the window would hold up to 3 span + 1 entries
    # (10**4 for the witness); eval_word must take skeleton_form's dict,
    # O(b letters) whatever span and r are
    ctx = GroupContext(SequenceSet(GrowthProfile.builtin()))
    R = ctx.offset(2000)
    pair_word = [commutator("b", conjugate("b", "a" * k)) for k in (R, 1000, 1001)]
    words = {"witness_2000": pair_word[0], "wide": pair_word[1] + pair_word[2]}
    dict_calls = 0
    skeleton_form = K.skeleton_form

    def counted(skeleton, r, d):
        nonlocal dict_calls
        dict_calls += 1
        return skeleton_form(skeleton, r, d)

    monkeypatch.setattr(K, "skeleton_form", counted)
    for name, w in words.items():
        sk, _ = K.skeleton(w)
        lo, span = K.window(sk)
        assert len(sk) == (4 if name == "witness_2000" else 8) and 3 * span + 1 > 3000
        top = span_cutoff(ctx, span)
        pairs = ctx.generator_pairs(top)[:top]  # the context's list may run past top
        assert top >= 600
        dict_calls = 0
        stand_ins = [DegreeOnly(d, r) for d, r in pairs]
        peaks, got = [], []
        tracemalloc.start()
        try:
            for tabs in stand_ins:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                sigma = K.eval_word(tabs, sk, lo, span)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                got.append(sigma)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 2048, (name, max(peaks))
        assert dict_calls == len(pairs), name
        assert all(eval_branch(d, r, sk) != "window" for d, r in pairs), name
        assert got == [skeleton_form(sk, r, d) for d, r in pairs], name
