"""Free words on two generators.

Words are plain strings over the alphabet ``a A b B`` where the upper
case letter is the inverse of the lower case one.  The word problem
reads words through ``_kernels.skeleton``, which reduces as it reads;
``free_reduce`` serves the word builders here.  The random-word kernel
reads integer letter codes a=0, A=1, b=2, B=3, chosen so that
``code ^ 1`` is the code of the inverse letter.  ``random_codes`` gives
them for seeded random reduced words from one splitmix64 pass over all
seeds, one 128-bit lane of a single int per seed; ``random_reduced`` is
its one-seed case in letters.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator

ALPHABET = "aAbB"
CODE_OF = {c: i for i, c in enumerate(ALPHABET)}
INVERSE_OF = {"a": "A", "A": "a", "b": "B", "B": "b"}

_MASK64 = (1 << 64) - 1
# splitmix64: the state increment and the two mixing multipliers
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

# The three letters that may follow each letter in a reduced word, in
# alphabet order.
_SUCCESSORS = {c: "".join(x for x in ALPHABET if x != INVERSE_OF[c]) for c in ALPHABET}

# The codes of the same three letters, indexed by the code of the letter
_NEXT_CODES = tuple(tuple(x for x in range(4) if x != c ^ 1) for c in range(4))

# str.translate tables: drop the alphabet, or swap each letter with its inverse
_DROP_ALPHABET = str.maketrans("", "", ALPHABET)
_SWAP_INVERSE = str.maketrans(INVERSE_OF)


def _check_letters(word: str) -> None:
    """Raise ValueError naming the first letter outside aAbB, if any."""
    bad = word.translate(_DROP_ALPHABET)
    if bad:
        raise ValueError(f"letter {bad[0]!r} is not one of aAbB")


def free_reduce(word: str) -> str:
    """Cancel adjacent inverse pairs until none remain.

    One left-to-right stack pass suffices: a new letter can only cancel
    against the current top of the already reduced prefix.
    """
    out: list[str] = []
    for ch in word:
        if ch not in CODE_OF:
            raise ValueError(f"letter {ch!r} is not one of aAbB")
        if out and out[-1] == INVERSE_OF[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert(word: str) -> str:
    """Inverse word: reversed letters, each inverted, in two ``str.translate`` passes."""
    _check_letters(word)
    return word[::-1].translate(_SWAP_INVERSE)


def commutator(g: str, h: str) -> str:
    """g^-1 h^-1 g h, freely reduced."""
    return free_reduce(invert(g) + invert(h) + g + h)


def conjugate(u: str, v: str) -> str:
    """v u v^-1, freely reduced."""
    return free_reduce(v + u + invert(v))


def enumerate_reduced(max_len: int) -> Iterator[str]:
    """Yield every freely reduced word of length <= max_len exactly once.

    Shortlex order: by length, letters ordered a < A < b < B.  There
    are 4 * 3**(k-1) words of each length k >= 1.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    yield ""
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            blocked = INVERSE_OF[w[-1]] if w else ""
            for ch in ALPHABET:
                if ch == blocked:
                    continue
                u = w + ch
                yield u
                nxt.append(u)
        frontier = nxt


def splitmix64(state: int) -> tuple[int, int]:
    """Advance one splitmix64 step; returns (new_state, output)."""
    state = (state + _GAMMA) & _MASK64
    z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def random_codes(length: int, seeds: Iterable[int]) -> list[list[int]]:
    """Letter codes of ``random_reduced(length, seed)`` for every seed, in order.

    One splitmix64 pass serves all seeds: the state of seed i is bits
    128i..128i+63 of one int, and each step below acts on every lane at
    once.  The lanes stay exact: after each mask a lane is below 2**64,
    a sum is below 2**65 and a product of two 64-bit values fits in 128
    bits; a right shift by 30, 27 or 31 moves a neighbour's low bits
    only into the upper half of a lane, which the next mask, or the
    final read of the low 64 bits, drops.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    seeds = [s & _MASK64 for s in seeds]
    n = len(seeds)
    if not length:
        return [[] for _ in seeds]
    state = int.from_bytes(b"".join(s.to_bytes(16, "little") for s in seeds), "little")
    lanes = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    gamma = int.from_bytes((b"\x01" + bytes(15)) * n, "little") * _GAMMA
    steps = []
    for _ in range(length):
        state = (state + gamma) & lanes
        z = ((state ^ (state >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        steps.append((z ^ (z >> 31)).to_bytes(16 * n, "little"))
    flat = array("Q", b"".join(steps))
    if sys.byteorder == "big":
        flat.byteswap()
    rows = []
    for i in range(n):
        zs = flat[2 * i :: 2 * n]
        c = zs[0] % 4
        row = [c]
        for z in zs[1:]:
            c = _NEXT_CODES[c][z % 3]
            row.append(c)
        rows.append(row)
    return rows


def random_reduced(length: int, seed: int) -> str:
    """Deterministic freely reduced word of exactly the given length.

    The first letter is uniform over the four letters; each later letter
    is uniform over the three letters that do not cancel the previous
    one.  The stream is splitmix64 seeded with ``seed``, so equal seeds
    give equal words on every platform.  This is the one-seed case of
    ``random_codes``, spelled in letters.
    """
    return "".join([ALPHABET[c] for c in random_codes(length, (seed,))[0]])


def to_codes(word: str) -> list[int]:
    """Letter codes as a list of ints (a=0, A=1, b=2, B=3)."""
    _check_letters(word)
    return [CODE_OF[c] for c in word]
