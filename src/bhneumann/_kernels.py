"""Coordinate kernels over the sparse normal form of a word's image.

At a coordinate of degree d with offset r, the letter a is the d-cycle
rho: x -> x+1 and b is the 3-cycle (0, r, 2r).  Every word's image has
the normal form P = sigma o rho^s: s counts a minus A, and sigma is a
permutation kept as a dict holding only the points it moves.  Appending
a letter to a word with normal form (s, sigma):

* a or A changes s by +1 or -1;
* b composes sigma with the 3-cycle (s, s+r, s+2r) mod d, which is b
  conjugated by rho^s; B composes with its inverse.  This touches at
  most 3 points of sigma.

The cost per letter does not depend on d.  A word's *window* is lo,
the least shift of its b letters, and span, the spread of those
shifts; the caller bounds each word once (``window``, or
``neumann._lamp_window`` from the lamp counts) and passes lo and span
to ``eval_word`` at every coordinate.  When r <= span, span + 2r < d
and the window has at most 8 points per b letter, ``eval_word`` keeps
sigma as a list over the points lo .. lo + span + 2r, indexed by plain
offsets: at most min(3 span + 1, 8k) entries for k b letters, whatever
d is.  Otherwise it is the dict, O(k) per coordinate.  Only
``image`` builds a d-sized table: for letter tables, signature digests,
``neumann.coordinate_eval`` and the rare dense case of
``canonical_form``.

s = 0 (mod d) with sigma empty implies P is the identity.  The converse
holds for a zero a-exponent sum or under spread (sigma moves fewer than
d points), but not in general: at (d, r) = (5, 2), aBaB has s = 2 and
sigma = rho^-2, so P is the identity.  ``canonical_form`` picks the one
(s, sigma) of each P, so equal images have equal forms.

A word's *b-skeleton* is the shift and letter code of each b or B of
its free reduction, plus its final shift.  Free reduction never moves
a surviving letter's shift, so ``skeleton`` reads it from the raw word
in one pass, cancelling inverse b/B pairs as it goes and rejecting
letters outside aAbB.  ``skeleton_form`` applies only its 3-cycles, so
one reading serves every coordinate at O(number of b letters) each.
The pairs (t_1, ...), t_k and final shift s give the reduced length:
k + |t_1| + sum |t_i - t_(i-1)| + |s - t_k| (|s| when k = 0).

Shared conventions:

* ``tabs`` is the letter table of a coordinate,
  ``GroupContext.letter_tables``: a read-only int32 memoryview of shape
  (4, d) whose rows are the images of a, A, b, B.  The kernels read
  only d = ``tabs.shape[1]`` and, in ``eval_word`` (the entry point of
  every coordinate test), r = ``tabs[2, 0]``.  Letter codes are a=0,
  A=1, b=2, B=3, so ``code ^ 1`` is the inverse letter; only
  ``check_random_words`` walks codes (lists of ints, as
  ``words.random_codes`` gives them).
* Words act right to left: the image of l1 l2 ... ln is l1 o ... o ln.
* ``scan_tree`` and ``check_random_words`` read b only at shifts -w..w
  (w the depth, or the longest word): ``_slots`` numbers the points
  (s, s+r, s+2r) mod d there as slots, at most 3(2w+1) whatever d is,
  and sigma is a list over the slots.  Lamp state is the turns at each
  shift, kept mod 3: b adds 1, B adds 2 (``wreath.lamp_counts``).  The
  lamp overlay puts the 3-cycle at (i, i+r, i+2r) mod d, or its inverse,
  at each lit lamp i, in increasing i, so a later lamp overwrites an
  earlier one where supports collide.
* ``scan_tree`` walks the reduced-word prefix tree in preorder, children
  in the order a, A, b, B less the one that cancels the last letter.
* Consistency checks require the caller to guarantee support
  separation: r >= 2*depth+1 and d - 2*r >= 2*depth+1 for every depth
  they scan, so distinct lamp overlays never collide.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress

from .errors import DegreeTooLarge
from .perm import MAX_DEGREE

# Labels only: perfbench/run.py records these two names and --compare
# matches runs on the backend.  No numpy is behind the "numpy" label.
ACTIVE = "numpy"
HAVE_NUMBA = False


def _append_b(sigma: dict, s: int, r: int, d: int, c: int) -> None:
    """sigma o (x y z) in place, (x, y, z) = (s, s+r, s+2r) mod d for b (c = 2), reversed for B.

    The same step is one list assignment on ``eval_word``'s window and on
    ``_slots`` in the locality walks.
    """
    x = s % d
    y = (x + r) % d
    z = (y + r) % d
    if c == 3:
        y, z = z, y
    # all three reads see sigma as it was before this letter
    vx = sigma.get(y, y)
    vy = sigma.get(z, z)
    vz = sigma.get(x, x)
    if vx == x:
        sigma.pop(x, None)
    else:
        sigma[x] = vx
    if vy == y:
        sigma.pop(y, None)
    else:
        sigma[y] = vy
    if vz == z:
        sigma.pop(z, None)
    else:
        sigma[z] = vz


def window(skeleton: list[tuple[int, int]]) -> tuple[int, int]:
    """(lo, span) of a b-skeleton: its least shift and the spread of its shifts; (0, 0) if empty."""
    if not skeleton:
        return 0, 0
    lo = min(skeleton)[0]
    return lo, max(skeleton)[0] - lo


def eval_word(tabs: memoryview, skeleton: list[tuple[int, int]], lo: int, span: int) -> dict:
    """skeleton_form at the (d, r) of tabs; skeleton is the pair list of ``skeleton``.

    lo is the least shift of the skeleton and span the spread of its
    shifts, as ``window`` gives them: the caller bounds a word once and
    passes the bound to every coordinate.  Every 3-cycle moves points
    among lo .. lo + span + 2r, n = span + 2r + 1 of them.  When
    r <= span, n <= d and n <= 8k (k b letters), those points are
    distinct mod d and at most min(3 span + 1, 8k), whatever d is: sigma
    is a list over them, each b or B is one swap at offsets x = t - lo,
    x + r, x + 2r, and the moved entries are mapped back mod d at the
    end.  Otherwise it is skeleton_form's dict, O(k) whatever span and r
    are: r > span, where the window would grow with r; a window that
    wraps mod d; or one more than 8 entries per b letter, as for a
    witness word, 4 b letters over a span of r(m).
    """
    if not skeleton:
        return {}
    d, r = tabs.shape[1], int(tabs[2, 0])
    n = span + 2 * r + 1
    if r > span or n > d or n > 8 * len(skeleton):
        return skeleton_form(skeleton, r, d)
    ident = list(range(n))
    p = ident[:]
    for t, c in skeleton:
        x = t - lo
        y = x + r
        z = y + r
        if c == 2:
            p[x], p[y], p[z] = p[y], p[z], p[x]
        else:
            p[x], p[y], p[z] = p[z], p[x], p[y]
    if p == ident:
        return {}
    return {(lo + x) % d: (lo + v) % d for x, v in enumerate(p) if x != v}


def skeleton(word: str) -> tuple[list[tuple[int, int]], int]:
    """The reduced word's b-skeleton: (shift, code) per b (2) or B (3), and the final shift.

    Reduces as it reads: a b or B whose pair is the inverse of the pair
    on top of the stack, (shift, code ^ 1), pops it.  The letters read
    since that pair are a/A letters and cancelled pairs with a-exponent
    sum 0, so they reduce away and the two letters meet.  The result is
    the skeleton of ``words.free_reduce(word)``.
    """
    s = 0
    pairs = []
    append = pairs.append
    pop = pairs.pop
    top = None  # pairs[-1], or None while pairs is empty
    for ch in word:
        if ch == "a":
            s += 1
        elif ch == "A":
            s -= 1
        elif ch == "b":
            if top == (s, 3):
                pop()
                top = pairs[-1] if pairs else None
            else:
                top = (s, 2)
                append(top)
        elif ch == "B":
            if top == (s, 2):
                pop()
                top = pairs[-1] if pairs else None
            else:
                top = (s, 3)
                append(top)
        else:
            raise ValueError(f"letter {ch!r} is not one of aAbB")
    return pairs, s


def skeleton_form(skeleton, r: int, d: int) -> dict:
    """sigma, the product of a b-skeleton's 3-cycles at (d, r); the image is sigma o rho^shift."""
    sigma: dict[int, int] = {}
    for t, c in skeleton:
        _append_b(sigma, t, r, d, c)
    return sigma


def canonical_form(d: int, s: int, sigma: dict) -> tuple[int, dict]:
    """The one normal form of the image x -> sigma(x + s) on d points.

    Its shift is the most common value of P(x) - x mod d, the least one
    on a tie, and sigma is P o rho^-shift.  When sigma moves fewer than
    d/2 points, s mod d itself is the strict majority and is returned
    with sigma as given; otherwise the dense image decides.
    """
    s %= d
    if 2 * len(sigma) < d:
        return s, sigma
    images = image(d, s, sigma.items())
    counts = Counter((y - x) % d for x, y in enumerate(images))
    s = min(counts, key=lambda k: (-counts[k], k))
    moved = ((y, images[(y - s) % d]) for y in range(d))
    return s, {y: v for y, v in moved if y != v}


# The identity row x -> x, grown to the largest degree image has been
# asked for (at most perm.MAX_DEGREE points, 16 MiB); every table is cut
# from it.
_row = array("i")


def image(d: int, s: int, moved) -> array:
    """Dense int32 table x -> sigma(x + s) of a normal form on d points.

    moved gives the points sigma moves as (point, image) pairs: a
    sigma's ``items()``, or the sorted items a signature stores.  The
    one dense builder: the table is row[s:d] + row[:s] of the shared
    identity row, patched at each pair.  s is reduced mod d
    first.  Past perm.MAX_DEGREE points it raises DegreeTooLarge before
    allocating anything.
    """
    if d > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} exceeds the dense table limit of {MAX_DEGREE} points")
    if len(_row) < d:
        _row.extend(range(len(_row), d))
    s %= d
    images = _row[s:d] + _row[:s]
    for y, v in moved:
        images[(y - s) % d] = v
    return images


def _slots(r: int, d: int, w: int) -> tuple[list, tuple, range]:
    """The identity on slots, the slot triples by letter code, and the window positions.

    Entry 2 (b) lists the slots of (s, s+r, s+2r) mod d at window position
    s + w, s = -w..w; entry 3 (B) the same with its last two swapped.
    """
    slot: dict[int, int] = {}
    b = [tuple(slot.setdefault(v % d, len(slot)) for v in (s, s + r, s + 2 * r))
         for s in range(-w, w + 1)]
    return list(range(len(slot))), (None, None, b, [(i, k, j) for i, j, k in b]), range(2 * w + 1)


def _state(p: list, ident: list, lamp: list, trip: tuple, window: range) -> tuple[bool, bool, bool]:
    """(slot map p differs from the overlay of lamp, p is the identity, no lamp is lit)."""
    lit = list(compress(window, lamp))
    o = ident[:]
    for t in lit:
        i, j, k = trip[lamp[t] + 1][t]
        o[i], o[j], o[k] = j, k, i
    return p != o, p == ident, not lit


def _fails(t: int, w: int, d: int, state: tuple[bool, bool, bool]) -> bool:
    """Whether a walk at window position t, in ``_state`` state, fails a check of ``scan_tree``."""
    differs, trivial, quiet = state
    return differs or (trivial and (t - w) % d == 0) != (quiet and t == w)


def scan_tree(tabs: memoryview, r: int, max_depth: int) -> tuple[int, int]:
    """Walk all reduced words of length <= max_depth; count check failures.

    Two checks per node: the image is the identity exactly when the lamp
    state is trivial, and the image equals the lamp overlay composed
    with the power of the full cycle given by the shift.  A b or B moves
    3 slots and one lamp, undone on the way back.  Returns (nodes
    visited, nodes failing either check).
    """
    d = tabs.shape[1]
    ident, trip, window = _slots(int(r), d, max_depth)
    p = ident[:]
    lamp = [0] * len(window)
    nodes = fails = 0

    def visit(depth: int, last: int, s: int, state: tuple[bool, bool, bool]) -> None:
        nonlocal nodes, fails
        for c in range(4):
            if c == last ^ 1:
                continue
            nodes += 1
            # a or A moves only the shift: the parent's state stands
            t = s + (1, -1, 0, 0)[c]
            child = state
            if c > 1:
                i, j, k = trip[c][s]
                p[i], p[j], p[k] = p[j], p[k], p[i]
                turns = lamp[s]
                lamp[s] = (turns + c - 1) % 3
                child = _state(p, ident, lamp, trip, window)
            fails += _fails(t, max_depth, d, child)
            if depth < max_depth:
                visit(depth + 1, c, t, child)
            if c > 1:
                lamp[s] = turns
                p[i], p[j], p[k] = p[k], p[i], p[j]

    if max_depth > 0:
        visit(1, -1, max_depth, (False, True, True))
    return nodes, fails


def check_random_words(tabs: memoryview, r: int, codes2d) -> tuple[int, int]:
    """Run the two scan_tree checks on each whole word in a batch.

    codes2d is a list of code lists, walked as given, or an integer
    array of shape (words, length), turned into lists once by its
    ``tolist()``.  Only the final state of each word is checked, not its
    prefixes.  Returns (words checked, failures).
    """
    d = tabs.shape[1]
    rows = codes2d.tolist() if hasattr(codes2d, "tolist") else codes2d
    w = max(map(len, rows), default=0)
    ident, trip, window = _slots(int(r), d, w)
    fails = 0
    for codes in rows:
        s = w
        p = ident[:]
        lamp = [0] * len(window)
        for c in codes:
            if c < 2:
                s += 1 - 2 * c
            else:
                i, j, k = trip[c][s]
                p[i], p[j], p[k] = p[j], p[k], p[i]
                lamp[s] = (lamp[s] + c - 1) % 3
        fails += _fails(s, w, d, _state(p, ident, lamp, trip, window))
    return len(rows), fails
