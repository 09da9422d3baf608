"""Dense permutation arithmetic: group laws, cycle facts, generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhneumann import perm as P


def cycles_oracle(p: P.Permutation) -> list[list[int]]:
    """Cycle decomposition by naive pointer chasing."""
    seen = [False] * p.degree
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p(start)
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p(x)
        out.append(cyc)
    return out


def random_perm(d: int, seed: int) -> P.Permutation:
    return P.Permutation(np.random.default_rng(seed).permutation(d))


perm_strategy = st.builds(
    random_perm, st.sampled_from([5, 8, 12, 83]), st.integers(0, 10_000)
)


def test_compose_convention():
    a5 = P.make_generators(5, 2, 2)[0]
    sq = P.compose(a5, a5)
    assert [sq(x) for x in range(5)] == [(x + 2) % 5 for x in range(5)]


def test_compose_right_factor_first():
    # q applies first: (p.q)(x) = p(q(x))
    p = P.cycle_from([0, 1], 5)
    q = P.cycle_from([1, 2], 5)
    assert P.compose(p, q)(1) == p(q(1)) == p(2) == 2
    assert P.compose(q, p)(1) == q(p(1)) == q(0) == 0


def test_noncommuting_example():
    a5, b = P.make_generators(5, 2, 2)
    assert P.compose(a5, b) != P.compose(b, a5)


def test_inverse_law():
    p = random_perm(12, 3)
    assert P.compose(p, P.inverse(p)) == P.identity(12)
    assert P.compose(P.inverse(p), p) == P.identity(12)


def test_order_of_full_cycle():
    for d in (5, 7, 83):
        alpha = P.make_generators(d, 2, 2)[0]
        assert P.order(alpha) == d


@settings(max_examples=60)
@given(perm_strategy)
def test_order_annihilates(p):
    k = P.order(p)
    assert P.power(p, k) == P.identity(p.degree)
    assert k == math.lcm(*(len(c) for c in cycles_oracle(p)))


@settings(max_examples=40)
@given(perm_strategy, st.integers(-12, 12))
def test_power_matches_repeated_compose(p, k):
    acc = P.identity(p.degree)
    step = p if k >= 0 else P.inverse(p)
    for _ in range(abs(k)):
        acc = P.compose(acc, step)
    assert P.power(p, k) == acc


@settings(max_examples=60)
@given(
    st.sampled_from([5, 8, 12]),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
def test_associativity(d, s1, s2, s3):
    p, q, r = random_perm(d, s1), random_perm(d, s2), random_perm(d, s3)
    assert P.compose(P.compose(p, q), r) == P.compose(p, P.compose(q, r))


@settings(max_examples=60)
@given(perm_strategy)
def test_parity_matches_cycle_structure(p):
    want = (p.degree - len(cycles_oracle(p))) % 2 == 0
    assert P.is_even(p) == want


def test_support_and_parity_examples():
    beta = P.make_generators(7, 2, 2)[1]
    assert P.support(beta) == {0, 2, 4}
    assert P.is_even(beta)
    assert P.support(P.identity(7)) == set()


def test_make_generators_shape():
    alpha, beta = P.make_generators(5, 2, 2)
    assert list(alpha.images) == [1, 2, 3, 4, 0]
    assert beta == P.cycle_from([0, 2, 4], 5)
    assert P.is_even(alpha) and P.is_even(beta)


def test_make_generators_asymmetric_offsets():
    _, beta = P.make_generators(11, 2, 3)
    assert P.support(beta) == {0, 2, 5}


def test_conjugation_formula():
    # alpha^i beta alpha^-i is the translated 3-cycle, for |i| <= 16
    for d, r1, r2 in ((83, 2, 2), (13, 4, 4), (11, 2, 3)):
        alpha, beta = P.make_generators(d, r1, r2)
        for i in range(-16, 17):
            lhs = P.compose(P.power(alpha, i), P.compose(beta, P.power(alpha, -i)))
            rhs = P.cycle_from([i % d, (r1 + i) % d, (r1 + r2 + i) % d], d)
            assert lhs == rhs


def test_validation_errors():
    with pytest.raises(ValueError):
        P.Permutation(np.array([0, 0, 1], dtype=np.int32))
    with pytest.raises(ValueError):
        P.cycle_from([1, 1, 2], 5)
    with pytest.raises(ValueError):
        P.cycle_from([0, 9], 5)
    with pytest.raises(ValueError):
        P.make_generators(9, 2, 2)  # not prime
    with pytest.raises(ValueError):
        P.make_generators(5, 3, 2)  # r1 + r2 > d - 1
    with pytest.raises(ValueError):
        P.compose(P.identity(5), P.identity(6))


def test_images_are_frozen():
    p = P.identity(5)
    with pytest.raises(TypeError):
        p.images[0] = 3
