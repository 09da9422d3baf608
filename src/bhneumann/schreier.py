"""Deterministic stabilizer chains for permutation groups.

Permutations are the image tuples of ``perm.Permutation``, composed by
``perm.compose_images`` ((p * q)(x) = p(q(x))) and inverted by
``perm.inverse_images``.  The chain stores, per level, a base point, the
generators attached so far, and a dict from each orbit point x to an
inverse transversal element (one that sends x to the base point); the
dict's insertion order is the orbit.  Generator attachment is
cumulative: an element attached at level j fixes the base points of all
earlier levels, so it also acts on their orbits and is attached to every
level up to j.  Two facts carry the module:

* The product of the orbit sizes never exceeds the group order, because
  distinct transversal words are distinct group elements.
* Once that product equals the true group order, every orbit is the full
  stabilizer orbit and the base is complete, so sifting is a sound
  membership test.

So a build stops as soon as the product reaches the parity bound, d!/2
for even generators and d! otherwise (a standard exact stop; Seress,
*Permutation Group Algorithms*, 2003, sections 4.3 and 4.5).  When the
generators alone fall short, a random fill sifts a seeded
product-replacement stream of group elements and attaches each
residue.  It stays exact: every element sifted is a product of the
generators, so the orbit product still never exceeds the group order,
and reaching the bound still proves the chain complete.  The fill stops
at the bound or after a run of sifts that reach the identity.  A group
below the bound is then completed by the verification sweep, which
sifts every Schreier generator of a level again after each residue it
attaches; at the bound the sweep returns at once.

The chain is plain Python and meant for small degrees: it runs in the
CLI only for d <= 13, and Alt(d) at the tower's degrees is certified by
the ladder bound instead.  Everything is deterministic: insertion order,
orbit growth order, the fill (splitmix64 seeded with the degree) and
the verification sweep are all fixed functions of the input.
"""

from __future__ import annotations

import math

from .perm import Permutation, compose_images, inverse_images, is_even, make_generators
from .words import splitmix64

__all__ = [
    "StabilizerChain",
    "build_chain",
    "group_order",
    "contains",
    "verify_alt_generation",
]


class _Level:
    __slots__ = ("point", "gens", "inv_reps")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        self.gens: list[tuple] = []
        self.inv_reps: dict[int, tuple] = {point: identity}

    @property
    def pts(self):
        """The orbit of the base point, in the order it was found."""
        return self.inv_reps.keys()

    def attach(self, g: tuple) -> None:
        """Add generator g and close the orbit breadth first.

        y = h(x) joins with the inverse representative w_x * h^-1, which
        sends y to x and x to the base point.  Points already in the
        orbit need only the new generator.  Each generator is inverted
        at most once per closure, and only if it finds a new point.
        """
        gens = self.gens
        gens.append(g)
        reps = self.inv_reps
        inverses: dict[int, tuple] = {}
        frontier, first = list(reps), len(gens) - 1
        while frontier:
            fresh = []
            for x in frontier:
                for i in range(first, len(gens)):
                    y = gens[i][x]
                    if y not in reps:
                        if i not in inverses:
                            inverses[i] = inverse_images(gens[i])
                        reps[y] = compose_images(reps[x], inverses[i])
                        fresh.append(y)
            frontier, first = fresh, 0


class StabilizerChain:
    """See the module docstring for the data layout and invariants."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self.complete = False

    def order(self) -> int:
        return math.prod(len(lv.inv_reps) for lv in self.levels)

    def _sift(self, p: tuple, start: int = 0):
        """Reduce p through the transversals; (residue, level) or (None, _)."""
        for li in range(start, len(self.levels)):
            lv = self.levels[li]
            x = p[lv.point]
            if x == lv.point:
                continue
            w = lv.inv_reps.get(x)
            if w is None:
                return p, li
            p = compose_images(w, p)
        return (None if p == self.identity else p), len(self.levels)

    def _add_gen_at(self, li: int, p: tuple) -> None:
        if li == len(self.levels):
            point = next(x for x, y in enumerate(p) if x != y)
            self.levels.append(_Level(point, self.identity))
        for lv in self.levels[: li + 1]:
            lv.attach(p)

    def _insert(self, p: tuple) -> None:
        residue, li = self._sift(p)
        if residue is not None:
            self._add_gen_at(li, residue)

    def _first_residue(self, li: int):
        """First Schreier generator of level li that does not sift below it.

        Returns (residue, level) or None.  The Schreier generator for an
        orbit point x and a generator g is w_g(x) * g * w_x^-1; every
        (x, g) pair of the level is sifted, in orbit and generator order.
        """
        lv = self.levels[li]
        reps = lv.inv_reps
        for x, w in reps.items():
            u = inverse_images(w)
            for g in lv.gens:
                schreier = compose_images(reps[g[x]], compose_images(g, u))
                residue, rl = self._sift(schreier, li + 1)
                if residue is not None:
                    return residue, rl
        return None

    def _verify_sweep(self, bound: int) -> None:
        """Deterministic completion: check every Schreier generator.

        Works bottom up; a surviving residue is attached at its level
        and the sweep rescans from there.  It stops once no level has a
        residue left or the orbit product reaches bound, an upper bound
        on the group order.
        """
        li = len(self.levels) - 1
        while li >= 0 and self.order() < bound:
            found = self._first_residue(li)
            if found is None:
                li -= 1
            else:
                residue, li = found
                self._add_gen_at(li, residue)


# The fill stops after this many sifts in a row reach the identity.
_FILL_STREAK = 30
# Size of the product-replacement pool: the generators, repeated.
_FILL_POOL = 10


def _filled_chain(generators: list[Permutation]) -> tuple[StabilizerChain, int]:
    """The chain before its sweep, and the parity bound on the group order.

    The generators are inserted until the product reaches the bound.
    If they fall short, a product-replacement stream of group elements
    is sifted and each residue attached, until the product reaches the
    bound or _FILL_STREAK sifts in a row reach the identity.  The stream
    is splitmix64 seeded with the degree: a pool of generator copies,
    where each step replaces a random entry by its product with another
    and multiplies the running element by the new entry.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    bound = math.factorial(degree)
    if degree > 1 and all(map(is_even, generators)):
        bound //= 2
    chain = StabilizerChain(degree)
    for g in generators:
        chain._insert(g.images)
        if chain.order() == bound:
            return chain, bound
    size = max(len(generators), _FILL_POOL)
    pool = [generators[k % len(generators)].images for k in range(size)]
    element = chain.identity
    state, streak = degree, 0
    while streak < _FILL_STREAK:
        state, z = splitmix64(state)
        i = z % size
        j = (i + 1 + (z >> 32) % (size - 1)) % size  # any index but i
        pool[i] = compose_images(pool[i], pool[j])
        element = compose_images(element, pool[i])
        residue, li = chain._sift(element)
        if residue is None:
            streak += 1
        else:
            streak = 0
            chain._add_gen_at(li, residue)
            if chain.order() == bound:
                break
    return chain, bound


def build_chain(generators: list[Permutation]) -> StabilizerChain:
    """Deterministic, complete stabilizer chain for the inputs' group.

    The group lies in Alt(d) when every generator is even and in Sym(d)
    otherwise, so |Alt(d)| (1 at d = 1) or d! bounds its order.  The
    generators and then a seeded random fill grow the chain, and the
    build stops as soon as the transversal product reaches that bound,
    which is exact because the product never exceeds the group order.
    A proper subgroup of the bound never reaches it and is completed by
    the rescanning verification sweep, exact but meant for small degrees.
    """
    chain, bound = _filled_chain(generators)
    chain._verify_sweep(bound)
    chain.complete = True
    return chain


def group_order(chain: StabilizerChain) -> int:
    """Exact order as a Python integer (arbitrary precision)."""
    return chain.order()


def contains(chain: StabilizerChain, p: Permutation) -> bool:
    """Membership by sifting.  The chain must be complete."""
    if not chain.complete:
        raise ValueError("membership needs a completed chain")
    if p.degree != chain.degree:
        raise ValueError("degree mismatch")
    residue, _ = chain._sift(p.images)
    return residue is None


def _ladder_bound(alpha: Permutation, beta: Permutation, r: int) -> int:
    """Lower bound d * prod_j |b_j^H_j| on |<alpha, beta>|, or 0.

    Notation as in verify_alt_generation.  The union-find runs from
    j = d-3 down, so after step j the component of b_j is its H_j-orbit.
    Returns 0 if alpha is not x -> x+1 or some sigma_j moves a base point
    b_i with i < j, since the bound then does not hold.
    """
    d = alpha.degree
    if alpha.images != (*range(1, d), 0):
        return 0
    # r is a unit mod the prime d, so the b_j run through every point once
    base = [j * r % d for j in range(d)]
    pos = [0] * d
    for j, b in enumerate(base):
        pos[b] = j
    arrows = [(x, y) for x, y in enumerate(beta.images) if x != y]
    parent = list(range(d))
    size = [1] * d

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bound = d
    for j in range(d - 3, 0, -1):
        shift = base[j]
        for x, y in arrows:
            # sigma_j sends x + shift to beta(x) + shift
            x, y = (x + shift) % d, (y + shift) % d
            if pos[x] < j:
                return 0
            rx, ry = find(x), find(y)
            if rx != ry:
                if size[rx] < size[ry]:
                    rx, ry = ry, rx
                parent[ry] = rx
                size[rx] += size[ry]
        bound *= size[find(base[j])]
    return bound


def verify_alt_generation(d: int, r1: int, r2: int) -> bool:
    """Whether the standard pair generates the full alternating group.

    Both generators are even permutations (a d-cycle of odd length and a
    3-cycle), so G = <alpha, beta> lies in Alt(d) and d!/2 bounds its
    order from above; any lower bound that reaches d!/2 certifies
    G = Alt(d).

    For r1 == r2 == r the lower bound is an orbit product along the
    conjugate 3-cycle ladder.  Take the base b_j = j*r mod d (every point
    once, as d is prime) and sigma_j = alpha^(j*r) beta alpha^(-j*r), the
    3-cycle at (b_j, b_(j+1), b_(j+2)), for j = 1..d-3.  Checked on the
    actual images, every sigma_i with i >= j fixes b_0..b_(j-1), so
    H_j = <sigma_i : i >= j> lies in the pointwise stabilizer G_j of
    b_0..b_(j-1) in G.  Then |G| = prod_j |b_j^G_j| >= d * prod_j |b_j^H_j|:
    the d-cycle makes the first orbit all d points, and the H_j-orbits
    are connected components of one union-find over the points each
    sigma_j moves.  This is the soundness argument of a stabilizer chain
    (the transversal product never exceeds the order) without building
    one, in O(d) Python-level steps instead of O(d^3).

    If the product falls short, or r1 != r2, a stabilizer chain decides;
    it stops at d!/2 by itself, as both generators are even.  Raises
    InvalidGenerators (a ValueError) when d is not an odd prime >= 5 or
    the offsets do not fit.
    """
    alpha, beta = make_generators(d, r1, r2)
    if not (is_even(alpha) and is_even(beta)):
        return False
    target = math.factorial(d) // 2
    if r1 == r2 and _ladder_bound(alpha, beta, r1) == target:
        return True
    chain = build_chain([alpha, beta])
    return group_order(chain) == target
