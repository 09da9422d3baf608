"""Property tests against dense perm.compose on small degrees.

is_trivial and equal: hypothesis draws the presets and the words.  The
words are products of conjugated blocks; a block [x, y^(a^k)] has 4 b
letters over a span of |k| <= 60, far wider than the degrees here (at
most 43), so the drawn presets sit squeezed below the span (d - 2r <=
span) at most coordinates, and eval_word meets its window, its wrap
fallback and its fallback for windows wider than 8 entries per b letter.

The locality walks: hypothesis draws a prime d <= 61, any offset r in
[1, d - 1], a depth <= 5 and a small batch of words, so most draws have
colliding offsets, where a later lamp overwrites an earlier one in the
overlay.  The runs are derandomized and bounded, with no deadline.
"""

from collections import Counter
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from bhneumann import (
    GroupContext, SequenceSet, commutator, compose, conjugate, equal, free_reduce, identity,
    inverse, invert, is_trivial, make_generators, power, signature,
)
import bhneumann._kernels as K
from bhneumann.words import to_codes
from conftest import enumerate_dfs, lamp_oracle
from test_kernels import DegreeOnly, dense_checks

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
SHORT = st.text(alphabet="aAbB", max_size=6)


@st.composite
def presets(draw) -> SequenceSet:
    d = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=4))
    return SequenceSet.preset(d, [draw(st.integers(1, (x - 1) // 2)) for x in d])


@st.composite
def words(draw) -> str:
    """g c g^-1 ..., c a pair commutator [x, y^(a^k)], a cube b^3 or B^3, or raw letters."""
    w = ""
    for _ in range(draw(st.integers(1, 3))):
        g = draw(SHORT)
        kind = draw(st.sampled_from(("pair", "pair", "cube", "raw")))
        if kind == "pair":
            k = draw(st.integers(-60, 60))
            x, y = draw(st.sampled_from("bB")), draw(st.sampled_from("bB"))
            c = commutator(x, conjugate(y, "a" * k if k >= 0 else "A" * -k))
        elif kind == "cube":
            c = draw(st.sampled_from(("bbb", "BBB")))
        else:
            c = draw(SHORT)
        w += g + c + invert(g)
    return w


def dense_trivial(seqs: SequenceSet, word: str) -> bool:
    """Identity at every preset coordinate, composing a dense power per run of one letter."""
    for m in range(1, seqs.known + 1):
        alpha, beta = make_generators(seqs.d_of(m), seqs.r_of(m), seqs.r_of(m))
        gens = {"a": alpha, "A": inverse(alpha), "b": beta, "B": inverse(beta)}
        p = identity(alpha.degree)
        for ch, run in groupby(word):
            p = compose(p, power(gens[ch], len(list(run))))
        if p != identity(alpha.degree):
            return False
    return True


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(seqs=presets(), w=words(), data=st.data())
def test_is_trivial_and_equal_match_dense_compose(seqs, w, data):
    # on a preset, a word is trivial iff its lamp state is and it is the
    # identity at every preset coordinate (SequenceSet.preset)
    want = lamp_oracle(w).is_identity() and dense_trivial(seqs, w)
    ctx = GroupContext(seqs)
    assert is_trivial(ctx, w) == want
    k = data.draw(st.integers(0, len(w)))
    assert equal(ctx, w[:k], invert(w[k:])) == want


def test_signatures_agree_exactly_on_equal_elements():
    # the "iff" of the ElementSignature docstring: v is u times a drawn
    # word w, which is often trivial on the presets, or drawn apart from u
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(seqs=presets(), u=words(), w=words(), times=st.booleans(), pad=st.integers(0, 2))
    def agree(seqs, u, w, times, pad):
        v = u + w if times else w
        n = max(len(free_reduce(u)), len(free_reduce(v))) + pad
        q = u + invert(v)
        lamps = lamp_oracle(q).is_identity()
        want = lamps and dense_trivial(seqs, q)
        ctx = GroupContext(seqs)
        assert (signature(ctx, u, n) == signature(ctx, v, n)) == want
        seen[lamps, want] += 1

    agree()
    # equal; lamps agree but a coordinate tells u from v; lamps differ
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 10, seen


def test_walks_match_dense_compose():
    seen = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        d=st.sampled_from((*PRIMES, 47, 53, 59, 61)), data=st.data(),
        depth=st.sampled_from((5, 4, 3, 2, 1, 0)),
        batch=st.lists(st.text(alphabet="aAbB", max_size=12), min_size=1, max_size=6),
    )
    def walks_match(d, data, depth, batch):
        r = data.draw(st.integers(1, d - 1))
        tabs = DegreeOnly(d, r)  # the walks read only the degree
        tree = dense_checks(d, r, enumerate_dfs(depth)[1:])
        words = dense_checks(d, r, batch)
        assert K.scan_tree(tabs, r, depth) == tree
        assert K.check_random_words(tabs, r, [to_codes(w) for w in batch]) == words
        # some two positions of the depth window have triples sharing a point
        if len(K._slots(r, d, depth)[0]) < 3 * (2 * depth + 1):
            seen["colliding"] += 1
            seen["tree fails"] += tree[1] > 0
            seen["words fail"] += words[1] > 0

    walks_match()
    assert seen["colliding"] >= 20 and seen["tree fails"] >= 10 and seen["words fail"] >= 10, seen
