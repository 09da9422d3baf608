"""Free reduction, enumeration and sampling over {a, A, b, B}."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhneumann import words as W
from conftest import enumerate_dfs, splitmix_codes


def reduce_oracle(raw: str) -> str:
    """Quadratic reference reduction: rescan from scratch after every hit."""
    out = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i].swapcase() == out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return "".join(out)


letters = st.text(alphabet="aAbB", max_size=24)


def test_free_reduce_examples():
    assert W.free_reduce("aA") == ""
    assert W.free_reduce("baAB") == ""
    assert W.free_reduce("abBa") == "aa"


def test_free_reduce_rejects_bad_letter():
    with pytest.raises(ValueError):
        W.free_reduce("abc")


@given(letters)
def test_free_reduce_matches_oracle(raw):
    got = W.free_reduce(raw)
    assert got == reduce_oracle(raw)
    assert W.free_reduce(got) == got


@given(letters)
def test_word_times_inverse_cancels(raw):
    w = W.free_reduce(raw)
    assert W.free_reduce(w + W.invert(w)) == ""
    assert W.free_reduce(W.invert(w) + w) == ""


def test_invert():
    assert W.invert("ab") == "BA"
    assert W.invert("") == ""
    assert W.invert("aBa") == "AbA"


def test_invert_matches_the_per_letter_rule():
    rng = random.Random(17)
    for _ in range(3000):
        w = "".join(rng.choice("aAbB") for _ in range(rng.randint(0, 60)))
        assert W.invert(w) == "".join(W.INVERSE_OF[c] for c in reversed(w))
        assert W.invert(W.invert(w)) == w


@pytest.mark.parametrize("word, bad", [("abxy", "x"), ("y", "y"), ("aAbBé", "é"), ("ab c", " ")])
def test_letter_checks_name_the_first_bad_letter(word, bad):
    message = f"letter {bad!r} is not one of aAbB"
    for read in (W.invert, W.to_codes, W.free_reduce):
        with pytest.raises(ValueError) as exc:
            read(word)
        assert str(exc.value) == message


def test_commutator_convention():
    assert W.commutator("b", "a") == "BAba"


def test_conjugate():
    assert W.conjugate("b", "a") == "abA"
    assert W.conjugate("b", "aa") == "aabAA"


def test_enumeration_census():
    words = list(W.enumerate_reduced(8))
    assert words[0] == ""
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    assert len(by_len[0]) == 1
    for k in range(1, 9):
        assert len(by_len[k]) == 4 * 3 ** (k - 1)
    assert len(words) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 9))
    assert len(words) == 13121
    assert len(set(words)) == len(words)
    assert all(W.free_reduce(w) == w for w in words)


def test_enumeration_orders_agree_as_sets():
    a = list(W.enumerate_reduced(5))
    b = enumerate_dfs(5)
    assert sorted(a, key=lambda w: (len(w), [W.ALPHABET.index(c) for c in w])) == a
    assert set(a) == set(b) and len(b) == len(a)


def test_random_reduced_contract():
    w = W.random_reduced(64, 1234)
    assert len(w) == 64
    assert W.free_reduce(w) == w
    assert W.random_reduced(64, 1234) == w
    others = {W.random_reduced(64, s) for s in range(5)}
    assert len(others) > 1
    assert W.random_reduced(24, 1234) == "BBAAABABaBaBaaBBABAABBBA"  # pinned stream


def test_random_reduced_pinned_words():
    # literal words, so a bug shared by the library and splitmix_codes cannot hide
    assert W.random_reduced(12, 2024) == "ABabbABBAbbb"
    assert W.random_reduced(40, -1) == "aabaabABabAbAbAbAAABaaaBaaBBBabbbbbbaBaa"
    assert W.random_reduced(33, 2**64 + 3) == "AAABababbaaabAbabABABaabbbABABaaa"


def test_random_reduced_matches_splitmix64_calls():
    folded = (0, -1, 2**64 - 1, 2**64 + 3)
    for length in range(71):
        expected = [splitmix_codes(length, seed) for seed in folded]
        assert W.random_codes(length, folded) == expected
        for seed, codes in zip(folded, expected):
            assert W.random_reduced(length, seed) == "".join(W.ALPHABET[c] for c in codes)


def test_random_codes_batches_match_one_seed_at_a_time():
    rng = random.Random(29)
    mixed = [rng.randrange(-2**70, 2**70) for _ in range(150)] + [
        rng.randrange(2**64) for _ in range(150)
    ]
    assert W.random_codes(33, mixed) == [splitmix_codes(33, s) for s in mixed]
    assert W.random_codes(9, range(5, 45)) == [splitmix_codes(9, s) for s in range(5, 45)]
    assert W.random_codes(7, []) == []
    assert W.random_codes(0, range(3)) == [[], [], []]
    for bad in (lambda: W.random_codes(-1, [1]), lambda: W.random_reduced(-1, 1)):
        with pytest.raises(ValueError):
            bad()


def test_random_reduced_zero_length():
    assert W.random_reduced(0, 7) == ""


def test_to_codes_roundtrip():
    codes = W.to_codes("aAbB")
    assert list(codes) == [0, 1, 2, 3]
    # inverse letter = code xor 1
    assert all(
        W.ALPHABET[c ^ 1] == W.INVERSE_OF[W.ALPHABET[c]] for c in range(4)
    )


def test_splitmix_deterministic():
    s0 = 42
    s1, x1 = W.splitmix64(s0)
    s1b, x1b = W.splitmix64(s0)
    assert (s1, x1) == (s1b, x1b)
    s2, x2 = W.splitmix64(s1)
    assert x2 != x1
