"""Permutations of {0, ..., d-1} stored as tuples of images.

Composition follows function application: (p * q)(x) = p(q(x)), so the
tuple form is ``tuple(map(p.__getitem__, q))`` and q acts first.
``compose_images`` and ``inverse_images`` are the one composition and
inversion rule of the package; the stabilizer chains in ``schreier`` use
them on raw image tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index
from typing import Iterable, Sequence

from ._primes import is_prime
from .errors import DegreeTooLarge, InvalidGenerators

# Largest degree of a generator pair.  Past it a coordinate's four int32
# letter rows (64 MiB) and each generator's image tuple (about 150 MiB of
# Python ints) are too large to build.
MAX_DEGREE = 1 << 22


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...] = field(repr=False)

    def __post_init__(self):
        img = tuple(map(index, self.images))
        if not img or sorted(img) != list(range(len(img))):
            raise ValueError("images must be a nonempty arrangement of 0..d-1")
        object.__setattr__(self, "images", img)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def compose_images(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p * q on image sequences; q applies first."""
    return tuple(map(p.__getitem__, q))


def inverse_images(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def identity(d: int) -> Permutation:
    return Permutation(range(d))


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A Permutation of images known to be one, built without the check."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(x) = p(q(x)); q applies first."""
    if p.degree != q.degree:
        raise ValueError("degrees differ")
    return _trusted(compose_images(p.images, q.images))


def inverse(p: Permutation) -> Permutation:
    return _trusted(inverse_images(p.images))


def power(p: Permutation, k: int) -> Permutation:
    """p composed with itself k times; negative k uses the inverse."""
    if k < 0:
        return power(inverse(p), -k)
    result = identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def _cycle_lengths(p: Permutation) -> list[int]:
    img = p.images
    seen = [False] * p.degree
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = img[x]
            length += 1
        out.append(length)
    return out


def order(p: Permutation) -> int:
    return math.lcm(*_cycle_lengths(p))


def support(p: Permutation) -> frozenset[int]:
    """Points moved by p."""
    return frozenset(x for x, y in enumerate(p.images) if x != y)


def is_even(p: Permutation) -> bool:
    """Parity from the cycle type: even iff degree - #cycles is even."""
    return (p.degree - len(_cycle_lengths(p))) % 2 == 0


def cycle_from(points: Iterable[int], d: int) -> Permutation:
    """The cycle sending points[0] -> points[1] -> ... -> points[0].

    Points must be distinct and lie in range; everything else is fixed.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("cycle points must be distinct")
    img = list(range(d))
    for i, x in enumerate(pts):
        if not 0 <= x < d:
            raise ValueError(f"point {x} out of range for degree {d}")
        img[x] = pts[(i + 1) % len(pts)]
    return Permutation(img)


def check_generators(d: int, r1: int, r2: int) -> None:
    """Refuse a degree and offsets that do not define the generator pair.

    Requires d an odd prime >= 5 and 1 <= r1, r2 with r1 + r2 <= d - 1,
    so the three points 0, r1, r1 + r2 of the 3-cycle are distinct, and
    raises InvalidGenerators otherwise.  Raises DegreeTooLarge past
    MAX_DEGREE points, before any primality test.
    """
    if d > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} exceeds the dense table limit of {MAX_DEGREE} points")
    if d < 5 or d % 2 == 0 or not is_prime(d):
        raise InvalidGenerators(f"degree {d} is not an odd prime >= 5")
    if r1 < 1 or r2 < 1 or r1 + r2 > d - 1:
        raise InvalidGenerators(f"offsets ({r1}, {r2}) invalid for degree {d}")


def make_generators(d: int, r1: int, r2: int) -> tuple[Permutation, Permutation]:
    """The full cycle x -> x+1 and the 3-cycle (0, r1, r1+r2) mod d.

    The arguments must pass check_generators.
    """
    check_generators(d, r1, r2)
    return Permutation((*range(1, d), 0)), cycle_from([0, r1, r1 + r2], d)
