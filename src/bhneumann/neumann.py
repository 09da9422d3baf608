"""The two-generator subgroup of a tower of alternating groups.

Coordinate m of the tower is Alt(d(m)); the first generator maps to the
full cycle x -> x+1 there and the second to the 3-cycle at
(0, r(m), 2r(m)).  A word is trivial in the group iff it is trivial in
every coordinate.  Two facts make that decidable:

* The lamp-state evaluation (wreath module) is a quotient of the group.
  A word with trivial lamp state is, at every coordinate, a product of
  the 3-cycles tau_i = (i, i+r, i+2r) mod d over the shifts i at which
  it reads b or B.  If those shifts lie within a span W and both r(m)
  and d(m) - 2r(m) exceed W, the tau_i pairwise commute and the product
  collapses to the lamp state, which is trivial: the coordinate cannot
  tell the word from the identity.
* The offsets grow past their index, so all but finitely many
  coordinates clear any given span; span_cutoff finds the last one that
  does not and asserts the boundary.

So the word problem reduces to one lamp-state check plus the
coordinates up to the word's own span cutoff.  Signatures and balls use
the length cutoff, cutoff(n) = span_cutoff(2n), which covers every
quotient u v^-1 of two words of length n.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from . import _kernels
from .errors import BudgetExceeded, SpreadAssertionFailed, WitnessCheckFailed
from .perm import Permutation, make_generators
from .seqgen import SequenceSet
from .words import commutator as word_commutator
from .words import conjugate as word_conjugate
from .words import enumerate_reduced, free_reduce, invert, to_codes
from .wreath import WreathElement, w_eval

__all__ = [
    "GroupContext",
    "ElementSignature",
    "coordinate_eval",
    "spread_ok",
    "cutoff",
    "span_cutoff",
    "is_trivial",
    "equal",
    "signature",
    "witness",
    "ball",
]


class GroupContext:
    """Sequence data plus caches of letter tables and span cutoffs.

    The table cache maps coordinate index m to an int32 array of shape
    (4, d(m)) whose rows are the image tables of the letters a, A, b, B.
    The one cutoff cache maps a span W to span_cutoff(ctx, W); cutoff(ctx,
    n) reads it at W = 2n.  Derived and preset tables never change at a
    known index, so no cache goes stale.  Contexts are immutable once
    built apart from lazy materialization.
    """

    def __init__(self, seqs: SequenceSet):
        self.seqs = seqs
        self._tabs: dict[int, np.ndarray] = {}
        self._spans: dict[int, int] = {}

    def degree(self, m: int) -> int:
        return self.seqs.d_of(m)

    def offset(self, m: int) -> int:
        return self.seqs.r_of(m)

    def letter_tables(self, m: int) -> np.ndarray:
        tabs = self._tabs.get(m)
        if tabs is None:
            d = self.seqs.d_of(m)
            r = self.seqs.r_of(m)
            alpha, beta = make_generators(d, r, r)
            tabs = np.empty((4, d), dtype=np.int32)
            tabs[0] = alpha.images
            tabs[1] = np.argsort(alpha.images).astype(np.int32)
            tabs[2] = beta.images
            tabs[3] = np.argsort(beta.images).astype(np.int32)
            tabs.setflags(write=False)
            self._tabs[m] = tabs
        return tabs


@dataclass(frozen=True)
class ElementSignature:
    """Faithful finite fingerprint of a word within one length class.

    Holds the int32 image bytes at every coordinate up to cutoff(2 *
    n_class) = span_cutoff(4 * n_class) plus the lamp-state evaluation.
    Words u, v of length <= n_class are equal in the group iff their
    signatures compare (and so hash) equal by value: u v^-1 reads b at
    shifts less than 2 * n_class apart, so past cutoff(n_class), and
    hence past the stored range, the lamp state decides; the stored
    data covers everything else.  The range is twice what equality
    needs; it stays, since it fixes the signature bytes and digests.
    """

    low_coords: tuple[bytes, ...]
    wreath: WreathElement
    n_class: int

    def canonical_bytes(self) -> bytes:
        parts = [self.n_class.to_bytes(4, "big"), len(self.low_coords).to_bytes(4, "big")]
        for images in self.low_coords:
            parts.append((len(images) // 4).to_bytes(4, "big"))
            parts.append(images)
        parts.append(self.wreath.shift.to_bytes(8, "big", signed=True))
        for pos, val in self.wreath.lamps:
            parts.append(pos.to_bytes(8, "big", signed=True))
            parts.append(val.to_bytes(1, "big"))
        return b"".join(parts)

    def digest(self) -> bytes:
        return blake2b(self.canonical_bytes(), digest_size=16).digest()


def coordinate_eval(ctx: GroupContext, word: str, m: int) -> Permutation:
    """Image of the word at coordinate m, from its sparse normal form."""
    s, sigma = _kernels.eval_word(ctx.letter_tables(m), to_codes(word))
    return Permutation(_kernels.image(ctx.degree(m), s, sigma))


def _clears(ctx: GroupContext, m: int, span: int) -> bool:
    """Whether r(m) and d(m) - 2r(m) both exceed span at coordinate m."""
    r = ctx.seqs.r_of(m)
    d = ctx.seqs.d_of(m)
    return r > span and d - 2 * r > span


def spread_ok(ctx: GroupContext, m: int, n: int) -> bool:
    """Support separation at coordinate m for words of length n."""
    return _clears(ctx, m, 2 * n)


def cutoff(ctx: GroupContext, n: int) -> int:
    """Largest coordinate m where spread_ok(ctx, m, n) fails, else 0.

    spread_ok is _clears at span 2n, so this is span_cutoff(ctx, 2n).
    For words u, v of length <= n, u v^-1 has length <= 2n and reads b
    at shifts less than 2n apart, so past cutoff(n) no coordinate tells
    u from v once their lamp states agree (see is_trivial).  Signatures
    use it.
    """
    return span_cutoff(ctx, 2 * n)


def span_cutoff(ctx: GroupContext, span: int) -> int:
    """Largest coordinate m with r(m) <= span or d(m) - 2r(m) <= span, else 0.

    The one scan that decides which coordinates can see a word.  Past
    it, the b-shifts of a word that lie at most span apart give
    pairwise commuting 3-cycles (see is_trivial).  A derived sequence
    keeps m < r(m) and 3r(m) < d(m) (the derivation enforces both), so
    every m >= span clears the span: the scan stops at m = span + 1,
    where the spread is asserted, raising SpreadAssertionFailed if a
    degenerate profile violates it.  A preset table need not keep
    either inequality, so every index of it is scanned.  The result is
    memoised on the context; a raised SpreadAssertionFailed is not, so a
    failing profile fails every call.  A negative span raises ValueError.
    """
    m0 = ctx._spans.get(span)
    if m0 is None:
        m0 = ctx._spans[span] = _scan_span(ctx, span)
    return m0


def _scan_span(ctx: GroupContext, span: int) -> int:
    if span < 0:
        raise ValueError(f"span must be >= 0, got {span}")
    seqs = ctx.seqs
    last = seqs.known if seqs.is_preset else span
    m0 = max((m for m in range(1, last + 1) if not _clears(ctx, m, span)), default=0)
    m = span + 1
    if not seqs.is_preset and not _clears(ctx, m, span):
        r, d = seqs.r_of(m), seqs.d_of(m)
        raise SpreadAssertionFailed(
            f"coordinate {m}: r = {r}, d - 2r = {d - 2 * r}, not both above the span {span}"
        )
    return m0


def _b_span(word: str) -> int:
    """max - min of the shifts at which the word reads b or B; 0 if none."""
    s = 0
    lo = hi = None
    for ch in word:
        if ch == "a":
            s += 1
        elif ch == "A":
            s -= 1
        elif lo is None:
            lo = hi = s
        elif s < lo:
            lo = s
        elif s > hi:
            hi = s
    return 0 if lo is None else hi - lo


def _identity_at(ctx: GroupContext, codes: np.ndarray, m: int) -> bool:
    """Whether the word is the identity at m; exact only for a-exponent sum 0."""
    s, sigma = _kernels.eval_word(ctx.letter_tables(m), codes)
    return not s and not sigma


def is_trivial(ctx: GroupContext, word: str) -> bool:
    """Exact word problem: lamp state plus coordinates up to the span cutoff.

    After free reduction, a word with nontrivial lamp state is
    nontrivial.  Otherwise its shift is 0 and, at every coordinate, its
    image is the product, in word order, of the 3-cycles
    tau_i = (i, i+r, i+2r) mod d, or their inverses, over the shifts i at
    which it reads b or B.  Let W be the span (max - min) of those
    shifts.  For two of them, i != j, the supports of tau_i and tau_j
    meet only if i - j = 0, +-r or +-2r (mod d).  With |i - j| <= W,
    r > W and d - 2r > W, none of these can hold, so all the tau_i
    commute and the image is the product of tau_i to the power of the
    lamp at i, which is the identity because every lamp is 0.  So only the coordinates up to
    span_cutoff(W) can see the word, and exactly those are checked.

    On a preset the answer is for the tower whose first coordinates are
    the preset's and whose later ones clear every span (see
    SequenceSet.preset): the lamp state still decides, so a word that is
    the identity at every preset coordinate can be nontrivial.
    """
    w = free_reduce(word)
    if not w:
        return True
    if not w_eval(w).is_identity():
        return False
    m0 = span_cutoff(ctx, _b_span(w))
    codes = to_codes(w)
    for m in range(1, m0 + 1):
        if not _identity_at(ctx, codes, m):
            return False
    return True


def equal(ctx: GroupContext, u: str, v: str) -> bool:
    """Whether words u and v are the same group element: is_trivial(u v^-1)."""
    return is_trivial(ctx, u + invert(v))


def signature(ctx: GroupContext, word: str, n_class: int) -> ElementSignature:
    """Fingerprint of a word of length <= n_class; see ElementSignature."""
    w = free_reduce(word)
    if len(w) > n_class:
        raise ValueError(
            f"word of reduced length {len(w)} exceeds the class bound {n_class}"
        )
    m0 = cutoff(ctx, 2 * n_class)
    codes = to_codes(w)
    coords = tuple(
        _kernels.image(ctx.degree(m), *_kernels.eval_word(ctx.letter_tables(m), codes)).tobytes()
        for m in range(1, m0 + 1)
    )
    return ElementSignature(coords, w_eval(w), n_class)


def _witness_word(r: int) -> str:
    """[b, b^(a^r)], the word ``witness`` builds for an offset r."""
    return word_commutator("b", word_conjugate("b", "a" * r))


def witness(ctx: GroupContext, m: int) -> str:
    """A word trivial in every coordinate except exactly coordinate m.

    Takes the commutator of the second generator with its conjugate by
    the r(m)-th power of the first.  At coordinate m the two 3-cycles
    share one support point, so they do not commute; at every other
    coordinate the supports are disjoint (this is what the offset
    admissibility conditions buy) and the commutator collapses.  The
    reduced length is exactly 4 + 4 r(m).  The word reads b only at the
    shifts 0 and r(m), so coordinates past span_cutoff(r(m)) cannot see
    it (see is_trivial); on derived sequences that cutoff is m itself
    as long as the offsets grow with the index.  All three defining
    properties are verified up to that cutoff and WitnessCheckFailed
    reports any miss, since a miss would mean the offset data is
    corrupt.
    """
    R = ctx.seqs.r_of(m)
    w = _witness_word(R)
    if len(w) != 4 + 4 * R:
        raise WitnessCheckFailed(f"witness({m}) reduced to length {len(w)}")
    if not w_eval(w).is_identity():
        raise WitnessCheckFailed(f"witness({m}) has nontrivial lamp state")
    m0 = span_cutoff(ctx, R)
    if m > m0:
        raise WitnessCheckFailed(
            f"witness({m}) has span cutoff {m0} below m"
        )
    codes = to_codes(w)
    for k in range(1, m0 + 1):
        triv = _identity_at(ctx, codes, k)
        if k == m and triv:
            raise WitnessCheckFailed(f"witness({m}) trivial at its own coordinate")
        if k != m and not triv:
            raise WitnessCheckFailed(f"witness({m}) nontrivial at coordinate {k}")
    return w


def ball(
    ctx: GroupContext, n: int, budget: int = 100_000
) -> list[tuple[str, ElementSignature]]:
    """Representatives of the distinct group elements of word length <= n.

    Enumerates reduced words in shortlex order and deduplicates by
    signature, so each element keeps its shortlex-least representative.
    Signatures hash and compare by value, so a dict keyed on them is exact.
    """
    candidates = 2 * (3**n - 1) + 1 if n >= 1 else 1
    if candidates > budget:
        raise BudgetExceeded(
            f"ball({n}) needs {candidates} candidate words, budget {budget}"
        )
    first: dict[ElementSignature, str] = {}
    for w in enumerate_reduced(n):
        first.setdefault(signature(ctx, w, n), w)
    return [(w, sig) for sig, w in first.items()]
