"""Lamp state over the integer line with values mod 3, plus a shift.

An element is a finitely supported function Z -> Z/3 together with an
integer translation; the group is the lamp quotient Z/3 wr Z.  The
two-generator evaluation sends the first letter to the unit shift and
the second letter to the lamp toggle at the origin, so a word's lamp at
position i is 1 per b plus 2 per B read at shift i, mod 3.  That is the
one lamp rule, ``lamp_counts`` over the word's b-skeleton
(``_kernels.skeleton``); ``w_eval`` and the word problem's lamp check
both read it.  Free reduction is invisible to it: a cancelled b/B pair
turns one lamp by 1 + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels

LampItems = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WreathElement:
    """Canonical form: lamps sorted by position, values in {1, 2}."""

    lamps: LampItems
    shift: int

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.lamps


def lamp_counts(skeleton: list[tuple[int, int]]) -> dict[int, int]:
    """Net turns of the lamp at each shift of a b-skeleton: +1 per b, +2 per B.

    Every shift the skeleton reads b or B at is a key, also where its
    count is 0 mod 3.
    """
    counts: dict[int, int] = {}
    for t, c in skeleton:
        counts[t] = counts.get(t, 0) + c - 1
    return counts


def w_eval(word: str) -> WreathElement:
    """The lamp state of a word: its lamp counts mod 3, plus its final shift."""
    skeleton, shift = _kernels.skeleton(word)
    lamps = tuple(sorted([(p, v % 3) for p, v in lamp_counts(skeleton).items() if v % 3]))
    return WreathElement(lamps, shift)
