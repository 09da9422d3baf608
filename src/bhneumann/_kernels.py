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

The cost per letter does not depend on d.  Only ``image`` builds a
dense table, an ``array('i')`` cut from one shared identity row;
letter tables, signature digests, ``neumann.coordinate_eval`` and the
rare dense case of ``canonical_form`` ask for one.

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
  only d = ``tabs.shape[1]`` and, in ``eval_word``, r = ``tabs[2, 0]``.
  ``eval_word``, the entry point of every coordinate test, walks a
  b-skeleton at that (d, r) and returns sigma; the word's image is
  sigma o rho^shift.  Letter codes are a=0, A=1, b=2, B=3, so
  ``code ^ 1`` is the inverse letter; only ``check_random_words`` walks
  codes (lists of ints, ``words.to_codes``).
* Words act right to left: the image of l1 l2 ... ln is l1 o ... o ln.
* Lamp state is ``wreath.lamp_counts`` kept mod 3 letter by letter:
  letter a shifts by +1, A by -1, b adds 1 (mod 3) to the lamp at the
  current shift, B adds 2.  The lamp overlay puts the 3-cycle at
  (i, i+r, i+2r) mod d, or its inverse, at each lit lamp i; lamps are
  written in increasing position, so where supports collide a later
  lamp overwrites an earlier one.
* Tree scans walk the reduced-word prefix tree in preorder with child
  order a, A, b, B, skipping the child that cancels the last letter:
  each word comes right after its longest proper prefix, and siblings
  in that letter order.
* Consistency checks require the caller to guarantee support
  separation: r >= 2*depth+1 and d - 2*r >= 2*depth+1 for every depth
  they scan, so distinct lamp overlays never collide.
"""

from __future__ import annotations

from array import array
from collections import Counter

from .errors import DegreeTooLarge
from .perm import MAX_DEGREE

# Labels only: perfbench/run.py records these two names and --compare
# matches runs on the backend.  There is one implementation, in plain
# Python; no numpy is behind the "numpy" label.
ACTIVE = "numpy"
HAVE_NUMBA = False


def _append_b(sigma: dict, lamps: dict | None, s: int, r: int, d: int, c: int) -> None:
    """Append b (c = 2) or B (c = 3) at shift s, in place.

    sigma becomes sigma o (x y z) with (x, y, z) = (s, s+r, s+2r) mod d,
    reversed for B; the lamp at s, if lamps is given, turns by c - 1.
    The lamp step is the incremental form of ``wreath.lamp_counts``,
    kept mod 3: the tree scan undoes it on the way back up, where a
    recount from the pair path would cost a pass per node.
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
    if lamps is not None:
        v = (lamps.get(s, 0) + c - 1) % 3
        if v:
            lamps[s] = v
        else:
            del lamps[s]


def _differs(sigma: dict, lamps: dict, r: int, d: int) -> bool:
    """Whether sigma differs from the lamp overlay."""
    overlay = {}
    for i in sorted(lamps):
        x, y, z = i % d, (i + r) % d, (i + 2 * r) % d
        if lamps[i] == 2:
            y, z = z, y
        overlay[x] = y
        overlay[y] = z
        overlay[z] = x
    # neither map stores a fixed point, so dict equality is pointwise equality
    return sigma != overlay


def _fails(s: int, sigma: dict, lamps: dict, d: int, differs: bool) -> bool:
    """Whether a word fails either check of ``scan_tree``; differs is ``_differs``."""
    return differs or (s % d == 0 and not sigma) != (s == 0 and not lamps)


def eval_word(tabs: memoryview, skeleton: list[tuple[int, int]]) -> dict:
    """skeleton_form at the (d, r) of tabs; skeleton is the pair list of ``skeleton``."""
    return skeleton_form(skeleton, int(tabs[2, 0]), tabs.shape[1])


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
        _append_b(sigma, None, t, r, d, c)
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
    images = image(d, s, sigma)
    counts = Counter((y - x) % d for x, y in enumerate(images))
    s = min(counts, key=lambda k: (-counts[k], k))
    moved = ((y, images[(y - s) % d]) for y in range(d))
    return s, {y: v for y, v in moved if y != v}


# The identity row x -> x, grown to the largest degree image has been
# asked for (at most perm.MAX_DEGREE points, 16 MiB); every table is cut
# from it.
_row = array("i")


def image(d: int, s: int, sigma: dict) -> array:
    """Dense int32 table x -> sigma(x + s) of a normal form on d points.

    The one dense builder: the table is row[s:d] + row[:s] of the shared
    identity row, patched at the points sigma moves.  s is reduced mod d
    first.  Past perm.MAX_DEGREE points it raises DegreeTooLarge before
    allocating anything.
    """
    if d > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} exceeds the dense table limit of {MAX_DEGREE} points")
    if len(_row) < d:
        _row.extend(range(len(_row), d))
    s %= d
    images = _row[s:d] + _row[:s]
    for y, v in sigma.items():
        images[(y - s) % d] = v
    return images


def scan_tree(tabs: memoryview, r: int, max_depth: int) -> tuple[int, int]:
    """Walk all reduced words of length <= max_depth; count check failures.

    Two checks per node: the image is the identity exactly when the lamp
    state is trivial, and the image equals the lamp overlay composed
    with the power of the full cycle given by the shift.  Each step
    changes at most 3 points of sigma and undoes them on the way back.
    Returns (nodes visited, nodes failing either check).
    """
    d = tabs.shape[1]
    r = int(r)
    sigma: dict[int, int] = {}
    lamps: dict[int, int] = {}
    nodes = fails = 0

    def visit(depth: int, last: int, s: int, differs: bool) -> None:
        nonlocal nodes, fails
        for c in range(4):
            if c == last ^ 1:
                continue
            nodes += 1
            if c < 2:
                # a or A moves neither sigma nor the lamps: the parent's
                # overlay comparison stands
                t = s + 1 - 2 * c
                fails += _fails(t, sigma, lamps, d, differs)
                if depth < max_depth:
                    visit(depth + 1, c, t, differs)
            else:
                _append_b(sigma, lamps, s, r, d, c)
                child = _differs(sigma, lamps, r, d)
                fails += _fails(s, sigma, lamps, d, child)
                if depth < max_depth:
                    visit(depth + 1, c, s, child)
                _append_b(sigma, lamps, s, r, d, c ^ 1)

    if max_depth > 0:
        visit(1, -1, 0, False)
    return nodes, fails


def check_random_words(tabs: memoryview, r: int, codes2d) -> tuple[int, int]:
    """Run the two scan_tree checks on each whole word in a batch.

    codes2d is a list of code lists, walked as given, or an integer
    array of shape (words, length), turned into lists once by its
    ``tolist()``.  Only the final state of each word is checked, not its
    prefixes.  Returns (words checked, failures).
    """
    d = tabs.shape[1]
    r = int(r)
    rows = codes2d.tolist() if hasattr(codes2d, "tolist") else codes2d
    fails = 0
    for codes in rows:
        s = 0
        sigma: dict[int, int] = {}
        lamps: dict[int, int] = {}
        for c in codes:
            if c < 2:
                s += 1 - 2 * c
            else:
                _append_b(sigma, lamps, s, r, d, c)
        fails += _fails(s, sigma, lamps, d, _differs(sigma, lamps, r, d))
    return len(rows), fails
