"""Stabilizer chains checked against brute-force closure enumeration."""

import itertools
import math

import numpy as np
import pytest

from bhneumann import GrowthProfile, SequenceSet, cli
from bhneumann import perm as P
from bhneumann import schreier as S
from bhneumann.errors import DegreeTooLarge, InvalidGenerators


def bfs_closure(gens: list[P.Permutation], cap: int = 50_000) -> set[tuple[int, ...]]:
    """Image tuples of every group element, by breadth-first closure."""
    d = gens[0].degree
    start = P.identity(d).images
    seen = {start}
    frontier = [P.identity(d)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = P.compose(p, g)
                key = q.images
                if key not in seen:
                    seen.add(key)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise RuntimeError("closure exceeded cap")
        frontier = nxt
    return seen


def bfs_closure_order(gens: list[P.Permutation], cap: int = 50_000) -> int:
    """Exact group order by breadth-first closure under the generators."""
    return len(bfs_closure(gens, cap))


def assert_membership_matches_closure(chain: S.StabilizerChain, gens) -> None:
    """contains() agrees with the closure on every permutation of the degree."""
    closure = bfs_closure(gens)
    d = gens[0].degree
    for images in itertools.permutations(range(d)):
        p = P.Permutation(np.array(images, dtype=np.int32))
        assert S.contains(chain, p) == (p.images in closure), images


def test_trivial_group():
    assert S.group_order(S.build_chain([P.identity(5)])) == 1


def test_three_cycle():
    chain = S.build_chain([P.cycle_from([0, 1, 2], 3)])
    assert S.group_order(chain) == 3


def test_alt5_vs_bfs():
    gens = list(P.make_generators(5, 2, 2))
    chain = S.build_chain(gens)
    assert S.group_order(chain) == 60 == bfs_closure_order(gens)
    assert_membership_matches_closure(chain, gens)


def test_alt7_vs_bfs():
    gens = list(P.make_generators(7, 2, 2))
    chain = S.build_chain(gens)
    assert S.group_order(chain) == 2520 == bfs_closure_order(gens)
    assert_membership_matches_closure(chain, gens)


@pytest.mark.parametrize(
    "gens,want",
    [
        ([P.cycle_from([0, 1, 2, 3, 4], 5)], 5),  # C5
        ([P.cycle_from([0, 1], 4), P.cycle_from([2, 3], 4)], 4),  # C2 x C2
        (
            [P.cycle_from([0, 1, 2, 3], 4), P.cycle_from([1, 3], 4)],
            8,
        ),  # dihedral on the square
        (
            [P.cycle_from([0, 1], 4), P.cycle_from([0, 1, 2, 3], 4)],
            24,
        ),  # full symmetric group S4
        (
            [
                P.cycle_from([0, 1, 2, 3, 4, 5], 6),
                P.compose(P.cycle_from([1, 5], 6), P.cycle_from([2, 4], 6)),
            ],
            12,
        ),  # dihedral on the hexagon: rotation and a vertex reflection
    ],
)
def test_small_orders_match_bfs(gens, want):
    chain = S.build_chain(gens)
    assert S.group_order(chain) == want == bfs_closure_order(gens)
    assert_membership_matches_closure(chain, gens)


def test_alt11_exact_order():
    gens = list(P.make_generators(11, 3, 3))
    assert S.group_order(S.build_chain(gens)) == 19_958_400 == math.factorial(11) // 2


def test_contains():
    gens = list(P.make_generators(5, 2, 2))
    chain = S.build_chain(gens)
    assert S.contains(chain, gens[0])
    assert S.contains(chain, gens[1])
    assert S.contains(chain, P.compose(gens[0], gens[1]))
    assert S.contains(chain, P.identity(5))
    # odd permutations are excluded by parity
    assert not S.contains(chain, P.cycle_from([0, 1], 5))
    with pytest.raises(ValueError):
        S.contains(chain, P.identity(6))


def test_build_chain_validation():
    with pytest.raises(ValueError):
        S.build_chain([])
    with pytest.raises(ValueError):
        S.build_chain([P.identity(5), P.identity(6)])


def reference_sweep(chain: S.StabilizerChain) -> S.StabilizerChain:
    """Complete chain by a rescanning, unbounded sweep, in place.

    Every pass over a level sifts all of its Schreier generators again,
    and the sweep runs to the end whatever the order already is.
    """

    def first_residue(li):
        lv = chain.levels[li]
        for x, w in lv.inv_reps.items():
            u = P.inverse_images(w)
            for g in lv.gens:
                schreier = P.compose_images(lv.inv_reps[g[x]], P.compose_images(g, u))
                residue, rl = chain._sift(schreier, li + 1)
                if residue is not None:
                    return residue, rl
        return None

    li = len(chain.levels) - 1
    while li >= 0:
        found = first_residue(li)
        if found is None:
            li -= 1
        else:
            residue, li = found
            chain._add_gen_at(li, residue)
    return chain


def reference_chain(gens: list[P.Permutation]) -> S.StabilizerChain:
    """The reference sweep from where build_chain's sweep starts: the
    generators and the seeded fill of ``_filled_chain``."""
    return reference_sweep(S._filled_chain(gens)[0])


def bare_chain(gens: list[P.Permutation]) -> S.StabilizerChain:
    """The generators inserted, with no fill."""
    chain = S.StabilizerChain(gens[0].degree)
    for g in gens:
        chain._insert(g.images)
    return chain


def levels_of(chain: S.StabilizerChain) -> list:
    return [(lv.point, list(lv.pts), lv.gens) for lv in chain.levels]


def affine_7(a: int) -> list[P.Permutation]:
    """x -> x + 1 and x -> a x mod 7."""
    return [P.cycle_from(range(7), 7), P.Permutation([a * x % 7 for x in range(7)])]


SWEEP_CASES = [
    (affine_7(3), 42),  # AGL(1, 7): 3 is a primitive root, so odd
    (affine_7(2), 21),  # the Frobenius group of order 21, even
    ([P.cycle_from([0, 1, 2], 7), P.cycle_from([3, 4, 5], 7)], 9),
    # odd generators: the bound is 5!, and the chain must not stop at 60
    ([P.cycle_from(range(5), 5), P.cycle_from([0, 1], 5)], 120),
    (list(P.make_generators(5, 2, 2)), 60),
    (list(P.make_generators(7, 2, 3)), 2520),
    (list(P.make_generators(11, 3, 3)), math.factorial(11) // 2),
    (list(P.make_generators(13, 4, 4)), math.factorial(13) // 2),
]


@pytest.mark.parametrize("gens,want", SWEEP_CASES)
def test_chain_matches_the_reference_sweep(gens, want):
    chain = S.build_chain(gens)
    assert chain.complete
    assert S.group_order(chain) == want
    assert levels_of(chain) == levels_of(reference_chain(gens))


@pytest.mark.parametrize("gens,want", SWEEP_CASES)
def test_sweep_alone_matches_the_reference_sweep(gens, want):
    # from the bare generators the sweep finds the residues itself, with
    # no fill to find any of them first
    _, bound = S._filled_chain(gens)
    chain = bare_chain(gens)
    chain._verify_sweep(bound)
    assert chain.order() == want
    assert levels_of(chain) == levels_of(reference_sweep(bare_chain(gens)))


@pytest.mark.parametrize(
    "images,want",
    [
        # two even generators, orbits {0, 2} and {1, 3, 4, 5, 6}
        ([[2, 3, 0, 1, 6, 4, 5], [0, 1, 2, 5, 4, 6, 3]], 120),
        # orbits {0, 3} and {1, 2, 4, 5, 6}
        ([[3, 5, 6, 0, 2, 1, 4], [3, 6, 2, 0, 5, 1, 4]], 120),
    ],
)
def test_sweep_alone_resumes_a_point_after_its_residue(images, want):
    # from the bare generators, some residue comes only from a pair after
    # the one that gave an earlier residue at the same orbit point, so the
    # sweep must come back to that point: one that skipped the point's
    # remaining pairs after its first residue would stop at order 48
    # (first case) or 24 (second).  Found by a seeded search over degree
    # 6-8 sets of 2-3 generators.
    gens = [P.Permutation(im) for im in images]
    _, bound = S._filled_chain(gens)
    chain = bare_chain(gens)
    chain._verify_sweep(bound)
    chain.complete = True
    assert chain.order() == want == bfs_closure_order(gens)
    assert levels_of(chain) == levels_of(reference_sweep(bare_chain(gens)))
    assert_membership_matches_closure(chain, gens)


# bprime's d(1) is past perm.MAX_DEGREE: verify ends in a DegreeTooLarge row
@pytest.mark.parametrize("profile,code", [("toy", 0), ("builtin", 0), ("bprime", 1)])
def test_verify_never_reaches_the_sweep(profile, code, capsys, monkeypatch):
    # every chain the verify command builds reaches its parity bound in
    # the generators or the fill, so no Schreier generator is ever swept
    argv = ["verify", "--profile", profile, "--n", "10"]
    assert cli.main(argv) == code
    want = capsys.readouterr().out

    def refuse(chain, li):
        raise AssertionError("the verification sweep ran")

    monkeypatch.setattr(S.StabilizerChain, "_first_residue", refuse)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == want


def test_chain_is_a_fixed_function_of_the_generators():
    for gens in (list(P.make_generators(13, 4, 4)), affine_7(3)):
        assert levels_of(S.build_chain(gens)) == levels_of(S.build_chain(gens))


@pytest.mark.parametrize("d,r", [(11, 3), (13, 4)])
def test_every_schreier_generator_sifts_to_the_identity(d, r):
    chain = S.build_chain(list(P.make_generators(d, r, r)))
    assert S.group_order(chain) == math.factorial(d) // 2
    for li, lv in enumerate(chain.levels):
        for x, w in lv.inv_reps.items():
            u = P.inverse_images(w)
            for g in lv.gens:
                schreier = P.compose_images(lv.inv_reps[g[x]], P.compose_images(g, u))
                assert chain._sift(schreier, li + 1)[0] is None, (li, x)


@pytest.mark.parametrize(
    "gens,want,fill_sifts",
    [
        (affine_7(3), 42, 30),
        (affine_7(2), 21, 30),
        ([P.cycle_from([0, 1, 2], 7), P.cycle_from([3, 4, 5], 7)], 9, 30),
        # S5 reaches its bound 5! inside the fill, after 9 sifts
        ([P.cycle_from(range(5), 5), P.cycle_from([0, 1], 5)], 120, 9),
    ],
)
def test_groups_below_the_bound_stop_the_fill_then_sweep(gens, want, fill_sifts, monkeypatch):
    sift = S.StabilizerChain._sift
    calls = []

    def counted(chain, p, start=0):
        calls.append(start)
        return sift(chain, p, start)

    monkeypatch.setattr(S.StabilizerChain, "_sift", counted)
    filled, bound = S._filled_chain(gens)
    # one sift per generator, then the fill: it ends after _FILL_STREAK
    # identity sifts in a row, or on reaching the bound
    assert len(calls) - len(gens) == fill_sifts
    assert (filled.order() == bound) == (want == bound)
    monkeypatch.undo()
    chain = S.build_chain(gens)
    assert S.group_order(chain) == want == bfs_closure_order(gens)
    assert_membership_matches_closure(chain, gens)
    # with no fill at all, the sweep after it still completes the chain
    monkeypatch.setattr(S, "_FILL_STREAK", 0)
    assert S.group_order(S.build_chain(gens)) == want


def test_degrees_one_and_two():
    assert S.group_order(S.build_chain([P.identity(1)])) == 1
    assert S.group_order(S.build_chain([P.identity(2)])) == 1
    assert S.group_order(S.build_chain([P.cycle_from([0, 1], 2)])) == 2


def test_transversal_product_invariant():
    chain = S.build_chain(list(P.make_generators(7, 2, 3)))
    sizes = [len(level.pts) for level in chain.levels]
    prod = 1
    for s in sizes:
        prod *= s
    assert prod == S.group_order(chain)


def test_verify_alt_generation_fixed_tuples():
    assert S.verify_alt_generation(5, 2, 2)
    assert S.verify_alt_generation(7, 2, 3)
    assert S.verify_alt_generation(11, 3, 3)
    assert S.verify_alt_generation(13, 4, 4)


def ladder_bound(alpha: P.Permutation, beta: P.Permutation, r: int) -> int:
    """Lower bound d * prod_j |b_j^H_j| on |<alpha, beta>|, or 0.

    A computed certificate of Alt(d) at degrees no chain reaches, with
    no appeal to Jordan's theorem.  Take the base b_j = j*r mod d (every
    point once, as d is prime) and sigma_j = alpha^(j*r) beta
    alpha^(-j*r), for j = 1..d-3.  When every sigma_i with i >= j fixes
    b_0..b_(j-1), H_j = <sigma_i : i >= j> lies in the pointwise
    stabilizer G_j of those points, so |G| = prod_j |b_j^G_j| >=
    d * prod_j |b_j^H_j|: the d-cycle makes the first orbit all d
    points, and the H_j-orbits are the components of one union-find run
    from j = d-3 down.  Returns 0 if alpha is not x -> x+1 or some
    sigma_j moves an earlier base point, since the bound then does not
    hold.  With both generators even, a bound of d!/2 proves G = Alt(d).
    """
    d = alpha.degree
    if alpha.images != (*range(1, d), 0):
        return 0
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


@pytest.fixture(scope="module")
def tower_prefixes(toy_seqs):
    """(d, r) of toy indices 1..40 and builtin indices 1..10."""
    builtin = SequenceSet(GrowthProfile.builtin())
    return [(s.d_of(k), s.r_of(k)) for s, top in ((toy_seqs, 40), (builtin, 10))
            for k in range(1, top + 1)]


def test_verify_alt_generation_toy_prefix(tower_prefixes):
    # toy reaches d = 709 at index 40 and builtin d > 2300 at index 1, far
    # past what a chain can build; the ladder certifies Alt(d) there by an
    # orbit product, independently of the theorem that verify_alt_generation
    # rests on
    assert max(d for d, _ in tower_prefixes) > 2300
    for d, r in tower_prefixes:
        assert S.verify_alt_generation(d, r, r), (d, r)
        alpha, beta = P.make_generators(d, r, r)
        assert ladder_bound(alpha, beta, r) == math.factorial(d) // 2, (d, r)


def test_verify_alt_generation_builds_no_permutation(tower_prefixes, monkeypatch):
    # the theorem needs only check_generators: no generator, permutation or
    # chain is built, whatever the degree
    def refuse(*args, **kwargs):
        raise AssertionError("verify_alt_generation built a permutation")

    monkeypatch.setattr(P, "make_generators", refuse)
    monkeypatch.setattr(P.Permutation, "__post_init__", refuse)
    monkeypatch.setattr(S, "build_chain", refuse)
    for d, r in tower_prefixes:
        assert S.verify_alt_generation(d, r, r), (d, r)


ODD_PRIMES_TO_31 = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_verify_alt_generation_answers_exactly_the_accepted_triples():
    # True on every triple check_generators accepts, InvalidGenerators on
    # every other, over all degrees <= 31 and offsets just past each end
    for d in range(32):
        for r1 in range(-1, d + 2):
            for r2 in range(-1, d + 2):
                if d in ODD_PRIMES_TO_31 and r1 >= 1 and r2 >= 1 and r1 + r2 <= d - 1:
                    P.check_generators(d, r1, r2)
                    assert S.verify_alt_generation(d, r1, r2) is True
                else:
                    with pytest.raises(InvalidGenerators):
                        P.check_generators(d, r1, r2)
                    with pytest.raises(InvalidGenerators):
                        S.verify_alt_generation(d, r1, r2)


def test_verify_alt_generation_refuses_bprime_past_the_dense_limit():
    seqs = SequenceSet(GrowthProfile.bprime())
    d, r = seqs.d_of(1), seqs.r_of(1)
    assert d > P.MAX_DEGREE
    with pytest.raises(DegreeTooLarge, match=str(P.MAX_DEGREE)):
        S.verify_alt_generation(d, r, r)


# every triple check_generators accepts with d <= 17; the two tests below
# split them by r1 == r2 and compute the order d!/2 for each by a chain
ACCEPTED = [
    (d, r1, r2)
    for d in (5, 7, 11, 13, 17)
    for r1 in range(1, d - 1)
    for r2 in range(1, d - r1)
]
SMALL_LADDERS = [(d, r1) for d, r1, r2 in ACCEPTED if r1 == r2]
UNEQUAL_PAIRS = [t for t in ACCEPTED if t[1] != t[2]]


@pytest.mark.parametrize("d,r", SMALL_LADDERS)
def test_ladder_certificate_matches_full_sweep(d, r):
    want = math.factorial(d) // 2
    assert S.verify_alt_generation(d, r, r)
    assert ladder_bound(*P.make_generators(d, r, r), r) == want
    assert S.group_order(S.build_chain(list(P.make_generators(d, r, r)))) == want


@pytest.mark.parametrize("d,r1,r2", UNEQUAL_PAIRS)
def test_unequal_offsets_take_the_chain_and_generate_alt(d, r1, r2):
    # no ladder for r1 != r2: the chain alone computes the order
    assert S.verify_alt_generation(d, r1, r2)
    want = math.factorial(d) // 2
    assert S.group_order(S.build_chain(list(P.make_generators(d, r1, r2)))) == want


def test_ladder_bound_refuses_a_prefix_it_does_not_fix():
    # the 3-cycle (0, 1, 2) against the ladder of r = 2: sigma_j moves
    # 2j + 1, which is an earlier base point for some j, so no bound
    alpha, _ = P.make_generators(11, 2, 2)
    assert ladder_bound(alpha, P.cycle_from([0, 1, 2], 11), 2) == 0
    assert ladder_bound(P.power(alpha, 2), P.make_generators(11, 2, 2)[1], 2) == 0


def test_verify_rejects_bad_degree():
    with pytest.raises(ValueError):
        S.verify_alt_generation(9, 2, 2)
