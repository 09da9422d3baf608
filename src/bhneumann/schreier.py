"""Deterministic stabilizer chains for permutation groups.

The chain stores, per level, a base point, the orbit of that point under
the generators attached so far, and inverse transversal representatives.
Generator attachment is cumulative: an element attached at level j fixes
the base points of all earlier levels, so it also acts on their orbits
and is attached to every level up to j.  Two facts carry the module:

* The product of the orbit sizes never exceeds the group order, because
  distinct transversal words are distinct group elements.
* Once that product equals the true group order, every orbit is the full
  stabilizer orbit and the base is complete, so sifting is a sound
  membership test.

Everything is deterministic: insertion order, orbit growth order and the
verification sweep are all fixed functions of the input.
"""

from __future__ import annotations

import math

import numpy as np

from .perm import Permutation, is_even, make_generators

__all__ = [
    "StabilizerChain",
    "build_chain",
    "group_order",
    "contains",
    "verify_alt_generation",
]


def _invert_table(p: np.ndarray) -> np.ndarray:
    out = np.empty(p.size, dtype=np.int32)
    out[p] = np.arange(p.size, dtype=np.int32)
    return out


class _Level:
    __slots__ = ("point", "orbit_pos", "pts", "inv_reps", "gens", "ginvs")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.orbit_pos = np.full(degree, -1, dtype=np.int64)
        self.orbit_pos[point] = 0
        self.pts: list[int] = [point]
        self.inv_reps: dict[int, np.ndarray] = {
            point: np.arange(degree, dtype=np.int32)
        }
        self.gens: list[np.ndarray] = []
        self.ginvs: list[np.ndarray] = []

    def _admit(self, x: int, y: int, gi: np.ndarray) -> None:
        # u_y = g u_x, so the stored inverse is u_x^-1 composed after g^-1
        self.orbit_pos[y] = len(self.pts)
        self.pts.append(y)
        self.inv_reps[y] = self.inv_reps[x][gi]

    def extend_with(self, g: np.ndarray, gi: np.ndarray) -> None:
        """Grow the orbit after attaching one more generator.

        One vectorized step of the new generator over the known orbit,
        then closure of any new points under the whole cumulative set.
        """
        pts_arr = np.fromiter(self.pts, dtype=np.int64, count=len(self.pts))
        images = g[pts_arr]
        fresh = pts_arr[self.orbit_pos[images] < 0]
        frontier: list[int] = []
        for x in fresh:
            y = int(g[x])
            self._admit(int(x), y, gi)
            frontier.append(y)
        while frontier:
            x = frontier.pop()
            for g2, gi2 in zip(self.gens, self.ginvs):
                y = int(g2[x])
                if self.orbit_pos[y] < 0:
                    self._admit(x, y, gi2)
                    frontier.append(y)


class StabilizerChain:
    """See the module docstring for the data layout and invariants."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.levels: list[_Level] = []
        self.complete = False
        self._idt = np.arange(degree, dtype=np.int32)

    def order(self) -> int:
        out = 1
        for lv in self.levels:
            out *= len(lv.pts)
        return out

    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def _sift(self, p: np.ndarray, start: int = 0):
        """Reduce p through the transversals; (residue, level) or (None, _)."""
        for li in range(start, len(self.levels)):
            lv = self.levels[li]
            x = int(p[lv.point])
            if x == lv.point:
                continue
            if lv.orbit_pos[x] < 0:
                return p, li
            p = lv.inv_reps[x][p]
        if (p == self._idt).all():
            return None, len(self.levels)
        return p, len(self.levels)

    def _add_gen_at(self, li: int, p: np.ndarray) -> None:
        if li == len(self.levels):
            point = int(np.nonzero(p != self._idt)[0][0])
            self.levels.append(_Level(point, self.degree))
        pi = _invert_table(p)
        for k in range(li + 1):
            lv = self.levels[k]
            lv.gens.append(p)
            lv.ginvs.append(pi)
            lv.extend_with(p, pi)

    def _insert(self, p: np.ndarray) -> None:
        p = np.ascontiguousarray(p, dtype=np.int32)
        residue, li = self._sift(p)
        if residue is not None:
            self._add_gen_at(li, residue)

    def _verify_sweep(self, target: int | None = None) -> None:
        """Deterministic completion: check every Schreier generator.

        Works bottom up; a surviving residue is attached at its level
        and the sweep restarts there.  With a target order the sweep
        stops as soon as the orbit product reaches it.
        """
        li = len(self.levels) - 1
        while li >= 0:
            if target is not None and self.order() == target:
                self.complete = True
                return
            lv = self.levels[li]
            added = False
            xi = 0
            while xi < len(lv.pts) and not added:
                x = lv.pts[xi]
                ux = _invert_table(lv.inv_reps[x])
                gi = 0
                while gi < len(lv.gens):
                    g = lv.gens[gi]
                    y = int(g[x])
                    schreier = lv.inv_reps[y][g[ux]]
                    residue, rl = self._sift(schreier, li + 1)
                    if residue is not None:
                        self._add_gen_at(rl, residue)
                        li = rl
                        added = True
                        break
                    gi += 1
                xi += 1
            if not added:
                li -= 1
        self.complete = True


def build_chain(
    generators: list[Permutation],
    *,
    known_order: int | None = None,
) -> StabilizerChain:
    """Deterministic stabilizer chain for the group the inputs generate.

    known_order may be passed when the exact order is certain from
    structure theory; the build then stops as soon as the transversal
    product reaches it, which is sound because the product can never
    exceed the true order.  Passing a wrong, too small value would end
    the build early and break membership tests, so only certain
    knowledge belongs here.  Without it the chain is completed by the
    full verification sweep, which is exact but meant for small degrees.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    degree = generators[0].degree
    for g in generators:
        if g.degree != degree:
            raise ValueError("generators must share one degree")
    chain = StabilizerChain(degree)
    for g in generators:
        chain._insert(g.images)
        if known_order is not None and chain.order() == known_order:
            chain.complete = True
            return chain
    chain._verify_sweep(known_order)
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
    residue, _ = chain._sift(np.ascontiguousarray(p.images, dtype=np.int32))
    return residue is None


def _ladder_bound(alpha: Permutation, beta: Permutation, r: int) -> int:
    """Lower bound d * prod_j |b_j^H_j| on |<alpha, beta>|, or 0.

    Notation as in verify_alt_generation.  The union-find runs from
    j = d-3 down, so after step j the component of b_j is its H_j-orbit.
    Returns 0 if alpha is not x -> x+1 or some sigma_j moves a base point
    b_i with i < j, since the bound then does not hold.
    """
    d = alpha.degree
    idx = np.arange(d)
    if not np.array_equal(alpha.images, (idx + 1) % d):
        return 0
    # r is a unit mod the prime d, so the b_j run through every point once
    base = ((idx * r) % d).tolist()
    pos = [0] * d
    for j, b in enumerate(base):
        pos[b] = j
    arrows = [(int(x), int(beta.images[x])) for x in np.nonzero(beta.images != idx)[0]]
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

    If the product falls short, or r1 != r2, a stabilizer chain built up
    to the known order d!/2 decides.  Raises ValueError when d is not an
    odd prime >= 5 or the offsets do not fit.
    """
    alpha, beta = make_generators(d, r1, r2)
    if not (is_even(alpha) and is_even(beta)):
        return False
    target = math.factorial(d) // 2
    if r1 == r2 and _ladder_bound(alpha, beta, r1) == target:
        return True
    chain = build_chain([alpha, beta], known_order=target)
    return group_order(chain) == target
