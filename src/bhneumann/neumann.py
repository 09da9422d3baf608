"""The two-generator subgroup of a tower of alternating groups.

Coordinate m of the tower is Alt(d(m)); the first generator maps to the
full cycle x -> x+1 there and the second to the 3-cycle at
(0, r(m), 2r(m)).  A word is trivial in the group iff it is trivial in
every coordinate.  Two facts make that decidable:

* The lamp-state evaluation (wreath module) is a quotient of the group.
  The word is read once into its b-skeleton (_kernels.skeleton), and
  wreath.lamp_counts of that skeleton, the one lamp rule, gives both
  the lamp check and the shifts at which the word reads b or B.  A word
  with trivial lamp state is, at every coordinate, a product of the
  3-cycles tau_i = (i, i+r, i+2r) mod d over those shifts.  If they lie
  within a span W and both r(m) and d(m) - 2r(m) exceed W, the tau_i
  pairwise commute and the product collapses to the lamp state, which
  is trivial: the coordinate cannot tell the word from the identity.
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
from itertools import islice

from . import _kernels
from .errors import BudgetExceeded, SpreadAssertionFailed, WitnessCheckFailed
from .perm import Permutation, check_generators
from .seqgen import SequenceSet
from .words import commutator as word_commutator
from .words import conjugate as word_conjugate
from .words import ALPHABET, _SUCCESSORS, _check_letters, invert
from .wreath import WreathElement, lamp_counts, w_eval

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
    """Sequence data plus caches of letter tables, checked (d, r) and span cutoffs.

    The table cache maps coordinate index m to a read-only int32
    memoryview of shape (4, d(m)) whose rows are the image tables of the
    letters a, A, b, B, built by _kernels.image from (d(m), r(m)) alone:
    x + 1, x - 1 mod d, the 3-cycle (0, r, 2r) and its inverse.
    Every coordinate test passes a table to _kernels.eval_word, which
    reads only its (d, r).  generator_pairs returns the context's own
    list of checked (d(m), r(m)) for coordinates 1, 2, ..., which only
    grows; letter tables and signatures read (d, r) from it in place,
    so each coordinate passes perm.check_generators once per context
    and a lookup copies nothing.  m < 1 (m0 < 0 for generator_pairs)
    raises ValueError and caches nothing.
    The one cutoff cache maps a span W to span_cutoff(ctx, W); cutoff(ctx,
    n) reads it at W = 2n.  Derived and preset tables never change at a
    known index, so no cache goes stale.  Contexts are immutable once
    built apart from lazy materialization.
    """

    def __init__(self, seqs: SequenceSet):
        self.seqs = seqs
        self._tabs: dict[int, memoryview] = {}
        self._pairs: list[tuple[int, int]] = []
        self._spans: dict[int, int] = {}

    def degree(self, m: int) -> int:
        return self.seqs.d_of(m)

    def offset(self, m: int) -> int:
        return self.seqs.r_of(m)

    def letter_tables(self, m: int) -> memoryview:
        tabs = self._tabs.get(m)
        if tabs is None:
            if m < 1:
                raise ValueError(f"coordinate index must be >= 1, got {m}")
            d, r = self.generator_pairs(m)[m - 1]
            b = {0: r, r: 2 * r, 2 * r: 0}
            rows = [(1, {}), (-1, {}), (0, b), (0, {v: k for k, v in b.items()})]
            joined = b"".join(_kernels.image(d, s, sigma.items()) for s, sigma in rows)
            tabs = self._tabs[m] = memoryview(joined).cast("i", (4, d))
        return tabs

    def generator_pairs(self, m0: int) -> list[tuple[int, int]]:
        """The context's own list of (d(m), r(m)), filled to at least m0 entries.

        Each pair passes check_generators once; the list is not a copy,
        so callers read it and never change it.
        """
        if m0 < 0:
            raise ValueError(f"coordinate count must be >= 0, got {m0}")
        pairs = self._pairs
        while len(pairs) < m0:
            m = len(pairs) + 1
            d, r = self.seqs.d_of(m), self.seqs.r_of(m)
            check_generators(d, r, r)
            pairs.append((d, r))
        return pairs


@dataclass(frozen=True)
class ElementSignature:
    """Faithful finite fingerprint of a word within one length class.

    Holds, at every coordinate m up to cutoff(2 * n_class) =
    span_cutoff(4 * n_class), the canonical sparse normal form of the
    word's image, (d(m), s, sigma items sorted by point) (see
    _kernels.canonical_form), plus the lamp-state evaluation.  Equal
    images have equal forms.  Comparing and hashing cost O(number of b
    letters) per coordinate, and no dense table is built.  Words u, v
    of length <= n_class are equal in the group iff their signatures
    compare (and so hash) equal by value: u v^-1 reads b at shifts less
    than 2 * n_class apart, so past cutoff(n_class), and hence past the
    stored range, the lamp state decides; the stored data covers
    everything else.  The range is twice what equality needs; it stays,
    since it fixes the signature bytes and digests.

    canonical_bytes builds each coordinate's int32 image with
    _kernels.image only when asked, patched from the stored sorted
    items as they are, in the same layout as when the
    signature held those bytes: n_class and the number of coordinates,
    then per coordinate d and the d int32 images in native byte order
    (little-endian on the hosts the pinned digests come from), then the
    lamp state.
    """

    low_coords: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    wreath: WreathElement
    n_class: int

    def canonical_bytes(self) -> bytes:
        parts = [self.n_class.to_bytes(4, "big"), len(self.low_coords).to_bytes(4, "big")]
        for d, s, items in self.low_coords:
            parts.append(d.to_bytes(4, "big"))
            parts.append(_kernels.image(d, s, items))
        parts.append(self.wreath.shift.to_bytes(8, "big", signed=True))
        for pos, val in self.wreath.lamps:
            parts.append(pos.to_bytes(8, "big", signed=True))
            parts.append(val.to_bytes(1, "big"))
        return b"".join(parts)

    def digest(self) -> bytes:
        return blake2b(self.canonical_bytes(), digest_size=16).digest()


def coordinate_eval(ctx: GroupContext, word: str, m: int) -> Permutation:
    """Image of the word at coordinate m, from its b-skeleton's normal form."""
    skeleton, shift = _kernels.skeleton(word)
    sigma = _kernels.eval_word(ctx.letter_tables(m), skeleton, *_kernels.window(skeleton))
    return Permutation(_kernels.image(ctx.degree(m), shift, sigma.items()))


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


def _lamp_window(skeleton: list[tuple[int, int]], shift: int) -> tuple[int, int] | None:
    """The window (lo, span) of a word with trivial lamp state, from its b-skeleton; else None.

    The lamp state is trivial when the shift ends at 0 and every count
    of wreath.lamp_counts is 0 mod 3.  The counts' keys are the
    skeleton's shifts: lo is the least and span (the b-span) is max -
    min, (0, 0) if it has none.  That is the reduced word's window,
    since ``_kernels.skeleton`` reads the reduced word's pairs, and
    it is what ``_kernels.eval_word`` takes at every coordinate.
    """
    if shift:
        return None
    counts = lamp_counts(skeleton)
    for v in counts.values():
        if v % 3:
            return None
    if not counts:
        return 0, 0
    lo = min(counts)
    return lo, max(counts) - lo


def _identity_at(ctx: GroupContext, skeleton: list[tuple[int, int]], lo: int, span: int,
                 m: int) -> bool:
    """Whether a word of a-exponent sum 0 is the identity at m, from its b-skeleton and window."""
    return not _kernels.eval_word(ctx.letter_tables(m), skeleton, lo, span)


def is_trivial(ctx: GroupContext, word: str) -> bool:
    """Exact word problem: lamp state plus coordinates up to the span cutoff.

    Four str.count calls come first.  When the counts do not add up to
    len(word), some letter lies outside aAbB, and words._check_letters
    raises ValueError naming it, before any answer; otherwise no
    separate letter check runs.  The counts give the image of the lamp
    state in Z x Z/3, the shift (a minus A) and the lamp sum (b minus B
    mod 3); free reduction changes neither, and a word with either one
    nonzero has nontrivial lamp state, so it is answered False before
    any reading.  Otherwise the word is read once, reducing as it goes,
    into the b-skeleton of its free reduction (``_kernels.skeleton``);
    no reduced string is built.  A word with nontrivial lamp state is
    nontrivial (``_lamp_window``, which also bounds the word once: the
    least shift lo and the span W of its b letters, passed to
    ``_kernels.eval_word`` at every coordinate).  Otherwise its shift
    is 0 and, at every coordinate, its image is the product, in word
    order, of the 3-cycles tau_i = (i, i+r, i+2r) mod d, or their
    inverses, over the shifts i at which the reduced word reads b or B.  Let W be the span
    (max - min) of those shifts.  For two of them, i != j, the supports
    of tau_i and tau_j meet only if i - j = 0, +-r or +-2r (mod d).
    With |i - j| <= W, r > W and d - 2r > W, none of these can hold, so
    all the tau_i commute and the image is the product of tau_i to the
    power of the lamp at i, which is the identity because every lamp is
    0.  So only the coordinates up to span_cutoff(W) can see the word,
    and exactly those are checked, each in O(k) steps for k b letters
    over at most min(3W + 1, 8k) window entries (``_kernels.eval_word``).

    On a preset the answer is for the tower whose first coordinates are
    the preset's and whose later ones clear every span (see
    SequenceSet.preset): the lamp state still decides, so a word that is
    the identity at every preset coordinate can be nontrivial.
    """
    a, A, b, B = word.count("a"), word.count("A"), word.count("b"), word.count("B")
    if a + A + b + B != len(word):  # some letter is outside aAbB
        _check_letters(word)
    # the image of the lamp state in Z x Z/3: its shift and its lamp sum
    if a != A or (b - B) % 3:
        return False
    skeleton, shift = _kernels.skeleton(word)
    if not skeleton and not shift:  # the word reduces to the empty word
        return True
    window = _lamp_window(skeleton, shift)
    if window is None:
        return False
    lo, span = window
    for m in range(1, span_cutoff(ctx, span) + 1):
        if not _identity_at(ctx, skeleton, lo, span, m):
            return False
    return True


def equal(ctx: GroupContext, u: str, v: str) -> bool:
    """Whether words u and v are the same group element: is_trivial(u v^-1)."""
    return is_trivial(ctx, u + invert(v))


def signature(ctx: GroupContext, word: str, n_class: int) -> ElementSignature:
    """Fingerprint of a word of length <= n_class; see ElementSignature.

    Reads the word once, reducing as it goes, into the b-skeleton of its
    free reduction (_kernels.skeleton).  The class bound is checked on
    the reduced length, which the skeleton gives: one letter per pair
    plus the shift steps between them.  Then at each coordinate up to
    cutoff(2 * n_class) it applies only the skeleton's 3-cycles
    (_kernels.skeleton_form) and keeps the canonical form.  The lamp
    state is w_eval of the word as given, which free reduction does not
    change.  Every coordinate's (d, r) passes check_generators first
    (GroupContext.generator_pairs), so a preset outside the precondition
    raises InvalidGenerators or DegreeTooLarge.
    """
    skeleton, shift = _kernels.skeleton(word)
    length, t0 = len(skeleton), 0
    for t, _ in skeleton:
        length += abs(t - t0)
        t0 = t
    length += abs(shift - t0)
    if length > n_class:
        raise ValueError(
            f"word of reduced length {length} exceeds the class bound {n_class}"
        )
    coords = []
    top = cutoff(ctx, 2 * n_class)
    for d, r in islice(ctx.generator_pairs(top), top):
        s, sigma = _kernels.canonical_form(d, shift, _kernels.skeleton_form(skeleton, r, d))
        coords.append((d, s, tuple(sorted(sigma.items()))))
    return ElementSignature(tuple(coords), w_eval(word), n_class)


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
    skeleton, shift = _kernels.skeleton(w)
    window = _lamp_window(skeleton, shift)
    if window is None:
        raise WitnessCheckFailed(f"witness({m}) has nontrivial lamp state")
    lo, span = window
    m0 = span_cutoff(ctx, R)
    if m > m0:
        raise WitnessCheckFailed(
            f"witness({m}) has span cutoff {m0} below m"
        )
    for k in range(1, m0 + 1):
        triv = _identity_at(ctx, skeleton, lo, span, k)
        if k == m and triv:
            raise WitnessCheckFailed(f"witness({m}) trivial at its own coordinate")
        if k != m and not triv:
            raise WitnessCheckFailed(f"witness({m}) nontrivial at coordinate {k}")
    return w


def ball(
    ctx: GroupContext, n: int, budget: int = 100_000
) -> list[tuple[str, ElementSignature]]:
    """Representatives of the distinct group elements of word length <= n.

    Walks reduced words in shortlex order, level by level, and extends
    only the words whose signature was new; a dict keyed on the
    signatures keeps each element's shortlex-least representative, in
    the order of first occurrence.  This is exact: every prefix of a
    shortlex-least word is shortlex-least (if p x is least and p = q
    with q before p, then q x reduces to a word before p x), so no
    extension of a duplicate is a first occurrence.  signature is
    called once per generated candidate, through the module name, so a
    wrapped signature sees every call.  Signatures hash and compare
    their sparse normal forms by value, so the dict is exact and builds
    no dense table; digests build image bytes only when asked.

    The budget bounds all 2(3^n - 1) + 1 reduced words of length <= n
    and is checked up front, before any signature; pruning makes fewer
    calls (47 of the 53 words at n = 3 on the toy profile).  n < 0
    raises ValueError.
    """
    if n < 0:
        raise ValueError(f"ball radius must be >= 0, got {n}")
    candidates = 2 * (3**n - 1) + 1
    if candidates > budget:
        raise BudgetExceeded(
            f"ball({n}) needs {candidates} candidate words, budget {budget}"
        )
    first = {signature(ctx, "", n): ""}
    level = [""]
    for _ in range(n):
        grown = []
        for w in level:
            for ch in _SUCCESSORS[w[-1]] if w else ALPHABET:
                u = w + ch
                sig = signature(ctx, u, n)
                if sig not in first:
                    first[sig] = u
                    grown.append(u)
        level = grown
    return [(w, sig) for sig, w in first.items()]
