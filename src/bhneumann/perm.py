"""Permutations of {0, ..., d-1} stored as int32 image arrays.

Composition follows function application: (p * q)(x) = p(q(x)), so the
array form is ``p.images[q.images]`` and q acts first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._primes import is_prime
from .errors import DegreeTooLarge

# Largest degree make_generators builds dense tables for: 16 MiB per int32 table.
MAX_DEGREE = 1 << 22


@dataclass(frozen=True)
class Permutation:
    images: np.ndarray = field(repr=False)

    def __post_init__(self):
        img = np.asarray(self.images, dtype=np.int32)
        if img.ndim != 1 or img.size == 0:
            raise ValueError("images must be a nonempty 1-d array")
        seen = np.zeros(img.size, dtype=bool)
        if img.min() < 0 or img.max() >= img.size:
            raise ValueError("images out of range")
        seen[img] = True
        if not seen.all():
            raise ValueError("images do not form a bijection")
        img.setflags(write=False)
        object.__setattr__(self, "images", img)

    @property
    def degree(self) -> int:
        return int(self.images.size)

    def __call__(self, x: int) -> int:
        return int(self.images[x])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.degree == other.degree and bool(
            (self.images == other.images).all()
        )

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.images.tolist()})"


def identity(d: int) -> Permutation:
    if d < 1:
        raise ValueError("degree must be positive")
    return Permutation(np.arange(d, dtype=np.int32))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(x) = p(q(x)); q applies first."""
    if p.degree != q.degree:
        raise ValueError("degrees differ")
    return Permutation(p.images[q.images])


def inverse(p: Permutation) -> Permutation:
    inv = np.empty(p.degree, dtype=np.int32)
    inv[p.images] = np.arange(p.degree, dtype=np.int32)
    return Permutation(inv)


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
    seen = np.zeros(p.degree, dtype=bool)
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(img[x])
            length += 1
        out.append(length)
    return out


def order(p: Permutation) -> int:
    return math.lcm(*_cycle_lengths(p))


def support(p: Permutation) -> frozenset[int]:
    """Points moved by p."""
    moved = np.nonzero(p.images != np.arange(p.degree, dtype=np.int32))[0]
    return frozenset(int(x) for x in moved)


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
    img = np.arange(d, dtype=np.int32)
    for i, x in enumerate(pts):
        if not 0 <= x < d:
            raise ValueError(f"point {x} out of range for degree {d}")
        img[x] = pts[(i + 1) % len(pts)]
    return Permutation(img)


def make_generators(d: int, r1: int, r2: int) -> tuple[Permutation, Permutation]:
    """The full cycle x -> x+1 and the 3-cycle (0, r1, r1+r2) mod d.

    Requires d an odd prime >= 5 and 1 <= r1, r2 with r1 + r2 <= d - 1,
    so the three support points of the second generator are distinct.
    Raises DegreeTooLarge past MAX_DEGREE points.
    """
    if d > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} exceeds the dense table limit of {MAX_DEGREE} points")
    if d < 5 or d % 2 == 0 or not is_prime(d):
        raise ValueError(f"degree {d} is not an odd prime >= 5")
    if r1 < 1 or r2 < 1 or r1 + r2 > d - 1:
        raise ValueError(f"offsets ({r1}, {r2}) invalid for degree {d}")
    alpha = Permutation((np.arange(d, dtype=np.int64) + 1) % d)
    beta = cycle_from([0, r1, r1 + r2], d)
    return alpha, beta
