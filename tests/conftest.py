import pytest

import bhneumann as bn
from bhneumann.words import splitmix64


@pytest.fixture(scope="session")
def toy_seqs() -> bn.SequenceSet:
    seqs = bn.SequenceSet(bn.GrowthProfile.toy())
    seqs.ensure(50)
    return seqs


@pytest.fixture(scope="session")
def toy_ctx(toy_seqs) -> bn.GroupContext:
    return bn.GroupContext(toy_seqs)


def enumerate_dfs(max_len: int) -> list[str]:
    """Every freely reduced word of length <= max_len, in preorder of the prefix tree.

    Children in the order a, A, b, B, the one that cancels the last
    letter skipped: the order in which the tree kernels visit words.
    """
    out = [""]

    def walk(w: str) -> None:
        if len(w) == max_len:
            return
        for ch in "aAbB":
            if w and ch == w[-1].swapcase():
                continue
            out.append(w + ch)
            walk(w + ch)

    walk("")
    return out


def splitmix_codes(length: int, seed: int) -> list[int]:
    """Letter codes of a seeded random reduced word, one splitmix64 call per letter.

    The scalar reference stream for ``words.random_codes`` and
    ``random_reduced``: the state starts at the seed mod 2**64, the first
    code is z % 4 and each later one is the (z % 3)-th, in code order, of
    the three codes that do not cancel the previous one.
    """
    state = seed % 2**64
    codes: list[int] = []
    for _ in range(length):
        state, z = splitmix64(state)
        if codes:
            codes.append([c for c in range(4) if c != codes[-1] ^ 1][z % 3])
        else:
            codes.append(z % 4)
    return codes


def lamp_oracle(word: str) -> bn.WreathElement:
    """The lamp state letter by letter, independent of the b-skeleton."""
    lamps: dict[int, int] = {}
    shift = 0
    for ch in word:
        if ch == "a":
            shift += 1
        elif ch == "A":
            shift -= 1
        elif ch == "b":
            lamps[shift] = (lamps.get(shift, 0) + 1) % 3
        elif ch == "B":
            lamps[shift] = (lamps.get(shift, 0) + 2) % 3
        else:
            raise ValueError(f"letter {ch!r} is not one of aAbB")
    return bn.WreathElement(tuple(sorted((p, v) for p, v in lamps.items() if v)), shift)
