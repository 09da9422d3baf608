"""Lamp-and-shift evaluation checked against two independent oracles."""

from hypothesis import given
from hypothesis import strategies as st

from bhneumann import _kernels
from bhneumann import wreath as Wr
from bhneumann import words as W
from conftest import lamp_oracle


def w_mul(x: Wr.WreathElement, y: Wr.WreathElement) -> Wr.WreathElement:
    """(f, s) * (g, t) = (f + s.g, s + t), where (s.g)(i) = g(i - s)."""
    acc = dict(x.lamps)
    for p, v in y.lamps:
        acc[p + x.shift] = (acc.get(p + x.shift, 0) + v) % 3
    return Wr.WreathElement(tuple(sorted((p, v) for p, v in acc.items() if v)), x.shift + y.shift)


# a second route: multiply letter atoms instead of folding letters
_ATOMS = {
    "a": Wr.WreathElement(lamps=(), shift=1),
    "A": Wr.WreathElement(lamps=(), shift=-1),
    "b": Wr.WreathElement(lamps=((0, 1),), shift=0),
    "B": Wr.WreathElement(lamps=((0, 2),), shift=0),
}


def atom_product(word: str) -> Wr.WreathElement:
    acc = Wr.WreathElement((), 0)
    for ch in word:
        acc = w_mul(acc, _ATOMS[ch])
    return acc


letters = st.text(alphabet="aAbB", max_size=20)


def lamp_data(x: Wr.WreathElement) -> tuple[dict[int, int], int]:
    return dict(x.lamps), x.shift


def test_eval_matches_oracle_exhaustive():
    for w in W.enumerate_reduced(6):
        assert Wr.w_eval(w) == lamp_oracle(w) == atom_product(w)


@given(letters)
def test_eval_matches_oracle_random(raw):
    assert Wr.w_eval(raw) == lamp_oracle(raw) == atom_product(raw)


def test_lamp_counts_keep_every_shift_read():
    # the lamp at 0 turns three times: 0 mod 3, but still a key
    assert Wr.lamp_counts(_kernels.skeleton("bbbaB")[0]) == {0: 3, 1: 2}
    assert Wr.lamp_counts(_kernels.skeleton("bAbBab")[0]) == {0: 2}
    assert Wr.lamp_counts([]) == {}


def test_lamp_exponent_three():
    assert Wr.w_eval("bbb").is_identity()


def test_shift_conjugation_moves_lamp():
    got = Wr.w_eval("abA")
    assert lamp_data(got) == ({1: 1}, 0)


def test_eval_examples():
    assert Wr.w_eval("").is_identity()
    assert lamp_data(Wr.w_eval("babA")) == ({0: 1, 1: 1}, 0)
    assert lamp_data(Wr.w_eval("bbb")) == ({}, 0)
    assert lamp_data(Wr.w_eval("a")) == ({}, 1)
    for k in (1, 2, 7):
        assert lamp_data(Wr.w_eval("a" * k)) == ({}, k)
        assert lamp_data(Wr.w_eval("A" * k)) == ({}, -k)


def test_commutator_of_disjoint_lamps_dies():
    # lamps commute, so [b, a^i b a^-i] vanishes in the wreath quotient
    for i in range(0, 11):
        w = W.commutator("b", W.conjugate("b", "a" * i))
        assert Wr.w_eval(w).is_identity()


@given(letters, letters)
def test_homomorphism(u, v):
    assert Wr.w_eval(u + v) == w_mul(Wr.w_eval(u), Wr.w_eval(v))


@given(st.integers(0, 200))
def test_shift_generator_has_infinite_order(k):
    assert Wr.w_eval("a" * k).shift == k


def test_support_bound():
    for seed in range(20):
        n = 5 + seed
        w = W.random_reduced(n, seed)
        lamps, _ = lamp_data(Wr.w_eval(w))
        assert all(-n <= pos <= n for pos in lamps)


def test_canonical_no_zero_lamps():
    u = Wr.w_eval("bbBb")  # net single lamp
    assert all(v in (1, 2) for _, v in u.lamps)
    assert Wr.w_eval("bB").lamps == ()
