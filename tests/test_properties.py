"""Property tests: is_trivial and equal against dense perm.compose on small presets.

Hypothesis draws the presets and the words.  The words are products of
conjugated blocks; a block [x, y^(a^k)] has 4 b letters over a span of
|k| <= 60, far wider than the degrees here (at most 43), so the drawn
presets sit squeezed below the span (d - 2r <= span) at most
coordinates, and eval_word meets its window, its wrap fallback and its
fallback for windows wider than 8 entries per b letter.  The runs are
derandomized and bounded, with no deadline.
"""

from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from bhneumann import (
    GroupContext, SequenceSet, commutator, compose, conjugate, equal, identity, inverse, invert,
    is_trivial, make_generators, power,
)
from conftest import lamp_oracle

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
