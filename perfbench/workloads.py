"""Request kinds and workloads: inputs, set-up, requests and output checks.

A run interleaves seven kinds of request, each a user-visible call of
fixed size whose latency has one mode:

* ``build``, ``verify``, ``growth``: one ``bhneumann.cli.main`` call on the
  toy profile with stdout captured.  Each subcommand is dominated by a
  different layer (``seqgen``, ``schreier``, ``growth``), so a gain in one
  layer moves one metric and leaves the other two unchanged.
* ``queries``: a batch of 8 ``is_trivial``/``equal`` queries on a warm
  context: 4 random words rejected by the lamp check, 2 products of
  conjugates of ``[b, a b A]`` of length 7/8 maxlen..maxlen (trivial, so
  the full cutoff scan runs), and 2 double commutators (lamp-trivial, usually
  rejected at a low coordinate).
* ``ball``: ``ball(ctx, R)``, the signature and deduplication path.
* ``tree``: ``_kernels.scan_tree`` over every reduced word up to a depth,
  at the first separating coordinate: incremental prefix tables.
* ``random``: ``_kernels.check_random_words`` on a chunk of a seeded batch,
  at one of the first three coordinates that separate the batch's word
  length: whole-word composition.  A kernel rewrite that helps one use
  and hurts the other shows as a split between ``tree`` and ``random``.

The two workloads run the same kinds at two sizes.  At ``small`` sizes
fixed costs weigh more (import, argument handling, per-call Python
work); at ``large`` sizes the superlinear cores dominate (the offset
scan, exact bound products, stabilizer chains, d-sized gathers).  A
change to per-call overhead shows on the first, one to asymptotic cost
on the second.

Inputs come from the seed through the harness's own word helpers below,
so the library receives only generated words.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

MODULES = (
    "cli", "seqgen", "schreier", "growth", "neumann",
    "_kernels", "wreath", "words", "perm",
)


def load_library() -> SimpleNamespace:
    """Import the package afresh and return its modules."""
    for name in [k for k in sys.modules if k == "bhneumann" or k.startswith("bhneumann.")]:
        del sys.modules[name]
    importlib.import_module("bhneumann")
    return SimpleNamespace(
        **{name: importlib.import_module(f"bhneumann.{name}") for name in MODULES}
    )


# ------------------------------------------------------------ word helpers

INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
CODE = {"a": 0, "A": 1, "b": 2, "B": 3}


def reduce_word(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == INV[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert(word: str) -> str:
    return "".join(INV[ch] for ch in reversed(word))


def commutator(g: str, h: str) -> str:
    return reduce_word(invert(g) + invert(h) + g + h)


def random_word(rng: random.Random, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        out.append(rng.choice([c for c in "aAbB" if not out or c != INV[out[-1]]]))
    return "".join(out)


def lamp_trivial(word: str) -> bool:
    """Identity in the lamp quotient: zero shift and every lamp 0 mod 3."""
    shift = 0
    lamps: dict[int, int] = {}
    for ch in word:
        if ch in "aA":
            shift += 1 if ch == "a" else -1
        else:
            lamps[shift] = (lamps.get(shift, 0) + (1 if ch == "b" else 2)) % 3
    return shift == 0 and not any(lamps.values())


def spread(seqs, m: int, n: int) -> bool:
    r, d = seqs.r_of(m), seqs.d_of(m)
    return r >= 2 * n + 1 and d - 2 * r >= 2 * n + 1


def fresh_context(lib):
    return lib.neumann.GroupContext(lib.seqgen.SequenceSet(lib.seqgen.GrowthProfile.toy()))


_reported: set[str] = set()


def report_mismatch(what: str, digest: str, expected: str) -> None:
    """Print a digest mismatch once per process, so a bad run stays readable."""
    if digest != expected and digest not in _reported:
        _reported.add(digest)
        print(f"{what}: sha256 {digest}, expected {expected}", file=sys.stderr)


# ------------------------------------------------------------------ kinds


@dataclass(frozen=True)
class Kind:
    name: str
    # the end-to-end metric: the fastest latency in seconds, or, when
    # units_per_request is set, that many units over the fastest latency
    metric: str
    unit: str
    # prepare(lib, size) -> state; part of the timed set-up
    prepare: Callable
    # requests(lib, state, seed, size) -> list of requests, cycled by the loop
    requests: Callable
    # call(lib, state, request, expected) -> whether the output is right
    call: Callable
    # gate(lib, state, requests, seed, size, expected) -> (checks run,
    # failures); runs after the timed loop
    gate: Callable | None = None
    units_per_request: Callable | None = None
    # requests per round of a traced run
    round_size: int = 1
    # layer whose self time should dominate this kind's traced requests
    dominant: str = ""


def cli_kind(command: str, metric: str, dominant: str) -> Kind:
    def requests(lib, state, seed, size):
        return [[command, "--profile", "toy", "--n", str(size["n"]), "--seed", str(seed)]]

    def call(lib, state, argv, expected):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        report_mismatch(f"{command} stdout", digest, expected)
        return code == 0 and digest == expected

    return Kind(command, metric, "s", lambda lib, size: None, requests, call,
                dominant=dominant)


# ---- queries


def wordproblem_queries(rng: random.Random, batches: int, maxlen: int) -> list[list[dict]]:
    """Seeded batches of 4 lamp-rejected, 2 trivial and 2 double-commutator queries."""
    base = commutator("b", "abA")  # disjoint 3-cycle supports at every coordinate
    conj_len = max(1, maxlen // 12)
    part_len = max(1, maxlen // 16)

    def lamp_word():
        while True:
            w = random_word(rng, rng.randint(1, maxlen))
            if not lamp_trivial(w):
                return w

    def trivial_word():
        # lengths in a narrow band, so that every deep query costs about the same
        w = ""
        while len(w) < maxlen - maxlen // 8:
            g = random_word(rng, rng.randint(0, conj_len))
            c = base if rng.random() < 0.5 else invert(base)
            longer = reduce_word(w + g + c + invert(g))
            if len(longer) <= maxlen:
                w = longer
        return w

    def double_word():
        while True:
            u, v, x, y = (random_word(rng, rng.randint(1, part_len)) for _ in range(4))
            w = commutator(commutator(u, v), commutator(x, y))
            if 0 < len(w) <= maxlen:
                return w

    out = []
    for _ in range(batches):
        batch = [("lamp", lamp_word()) for _ in range(4)]
        batch += [("trivial", trivial_word()) for _ in range(2)]
        batch += [("double", double_word()) for _ in range(2)]
        rng.shuffle(batch)
        queries = []
        for cls, w in batch:
            if rng.random() < 0.5:
                queries.append({"cls": cls, "word": w})
            else:  # equal(u, v) asks whether u v^-1 = w is trivial
                cut = rng.randint(0, len(w))
                queries.append({"cls": cls, "word": w, "u": w[:cut], "v": invert(w[cut:])})
        out.append(queries)
    return out


def ask(lib, ctx, q: dict) -> bool:
    if "u" in q:
        return lib.neumann.equal(ctx, q["u"], q["v"])
    return lib.neumann.is_trivial(ctx, q["word"])


def reference_is_trivial(lib, seqs, word: str) -> bool:
    """Dense decision by perm.compose at coordinates 1..cutoff; no _kernels."""
    w = reduce_word(word)
    if not w:
        return True
    if not lamp_trivial(w):
        return False
    n = len(w)
    m0 = max((m for m in range(1, 2 * n + 2) if not spread(seqs, m, n)), default=0)
    for m in range(1, m0 + 1):
        d, r = seqs.d_of(m), seqs.r_of(m)
        alpha, beta = lib.perm.make_generators(d, r, r)
        gens = {
            "a": alpha, "A": lib.perm.inverse(alpha),
            "b": beta, "B": lib.perm.inverse(beta),
        }
        p = lib.perm.identity(d)
        for ch in w:
            p = lib.perm.compose(p, gens[ch])
        if p != lib.perm.identity(d):
            return False
    return True


def queries_prepare(lib, size):
    ctx = fresh_context(lib)
    maxlen = size["maxlen"]
    ctx.seqs.ensure(2 * maxlen + 2)
    for m in range(1, lib.neumann.cutoff(ctx, maxlen) + 1):
        ctx.letter_tables(m)
    return SimpleNamespace(ctx=ctx, known=ctx.seqs.known, tables=len(ctx._tabs))


def queries_requests(lib, state, seed, size):
    return wordproblem_queries(random.Random(seed), size["batches"], size["maxlen"])


def queries_call(lib, state, batch, expected):
    ok = True
    for q in batch:
        ans = ask(lib, state.ctx, q)
        if q["cls"] == "lamp" and ans:
            ok = False
        elif q["cls"] == "trivial" and not ans:
            ok = False
        elif q.setdefault("answer", ans) != ans:  # a repeated query must agree
            ok = False
    return ok


def queries_gate(lib, state, requests, seed, size, expected) -> tuple[int, list[str]]:
    failed = []
    checks = 2
    if state.ctx.seqs.known != state.known or len(state.ctx._tabs) != state.tables:
        failed.append(
            f"set-up incomplete: indices {state.known}->{state.ctx.seqs.known}, "
            f"letter tables {state.tables}->{len(state.ctx._tabs)}"
        )
    anchor = wordproblem_queries(random.Random(size["anchor_seed"]), size["anchor_batches"],
                                 size["maxlen"])
    answers = [ask(lib, state.ctx, q) for batch in anchor for q in batch]
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    if digest != expected:
        failed.append(f"anchor answers sha256 {digest}, expected {expected}")
    asked = [q for batch in requests for q in batch if "answer" in q]
    rng = random.Random(seed ^ 0x5EED)
    for cls in ("lamp", "trivial", "double"):
        pool = [q for q in asked if q["cls"] == cls]
        for q in rng.sample(pool, min(size["reference"], len(pool))):
            checks += 1
            if reference_is_trivial(lib, state.ctx.seqs, q["word"]) != q["answer"]:
                failed.append(f"{q['word']}: library says {q['answer']}, dense reference disagrees")
    return checks, failed


# ---- ball


def ball_prepare(lib, size):
    ctx = fresh_context(lib)
    n = 2 * size["radius"]  # signatures cover cutoff(2 * radius)
    ctx.seqs.ensure(2 * n + 2)
    for m in range(1, lib.neumann.cutoff(ctx, n) + 1):
        ctx.letter_tables(m)
    return ctx


def ball_call(lib, ctx, radius, expected):
    h = hashlib.sha256()
    for word, sig in lib.neumann.ball(ctx, radius):
        h.update(word.encode() + b":" + sig.digest())
    report_mismatch("ball signatures", h.hexdigest(), expected)
    return h.hexdigest() == expected


# ---- locality


def tree_nodes(depth: int) -> int:
    return sum(4 * 3 ** (k - 1) for k in range(1, depth + 1))


def coords_state(ctx, coords, **extra):
    return SimpleNamespace(
        ctx=ctx, coords=coords, tabs={m: ctx.letter_tables(m) for m in coords}, **extra
    )


def tree_prepare(lib, size):
    ctx = fresh_context(lib)
    depth = size["depth"]
    coords = [m for m in range(1, 2 * depth + 3) if lib.neumann.spread_ok(ctx, m, depth)]
    return coords_state(ctx, coords, depth=depth)


def tree_requests(lib, state, seed, size):
    # Every request scans the same coordinate: the metric is the fastest
    # request, which over coordinates of different degree would pick
    # whichever coordinate happened to run in a fast phase.  The input is
    # the whole tree, so the seed does not enter.
    return [state.coords[0]]


def tree_call(lib, state, m, expected):
    nodes, fails = lib._kernels.scan_tree(state.tabs[m], state.ctx.offset(m), state.depth)
    return fails == 0 and nodes == tree_nodes(state.depth)


def coords_gate(lib, state, requests, seed, size, expected) -> tuple[int, list[str]]:
    if state.coords != expected:
        return 1, [f"separating coordinates {state.coords}, expected {expected}"]
    return 1, []


def random_prepare(lib, size):
    ctx = fresh_context(lib)
    coords = []
    m = 1
    while len(coords) < 3:
        if lib.neumann.spread_ok(ctx, m, size["length"]):
            coords.append(m)
        m += 1
    return coords_state(ctx, coords)


def random_requests(lib, state, seed, size):
    rng = random.Random(seed)
    batch = np.array(
        [[CODE[c] for c in random_word(rng, size["length"])] for _ in range(size["words"])],
        dtype=np.int8,
    )
    chunk = size["chunk"]
    return [
        (m, batch[i : i + chunk]) for i in range(0, size["words"], chunk) for m in state.coords
    ]


def random_call(lib, state, request, expected):
    m, codes = request
    nwords, fails = lib._kernels.check_random_words(state.tabs[m], state.ctx.offset(m), codes)
    return fails == 0 and nwords == len(codes)


KINDS = (
    cli_kind("build", "cli.build_s", "seqgen"),
    cli_kind("verify", "cli.verify_s", "schreier"),
    cli_kind("growth", "cli.growth_s", "growth"),
    Kind("queries", "wp.queries_per_s", "1/s", queries_prepare, queries_requests,
         queries_call, gate=queries_gate, units_per_request=lambda size: 8,
         round_size=16, dominant="kernels"),
    Kind("ball", "wp.ball_s", "s", ball_prepare,
         lambda lib, state, seed, size: [size["radius"]], ball_call, dominant="neumann"),
    Kind("tree", "loc.nodes_per_s", "1/s", tree_prepare, tree_requests, tree_call,
         gate=coords_gate, units_per_request=lambda size: tree_nodes(size["depth"]),
         dominant="kernels"),
    Kind("random", "loc.words_per_s", "1/s", random_prepare, random_requests, random_call,
         gate=coords_gate, units_per_request=lambda size: size["chunk"],
         round_size=3, dominant="kernels"),
)

# Sizes per workload and kind.  "toy" is for --selfcheck only.
WORKLOADS = {
    "small": {
        "build": {"n": 100},
        "verify": {"n": 2},
        "growth": {"n": 20},
        "queries": {"maxlen": 32, "batches": 256, "reference": 4,
                    "anchor_seed": 2024, "anchor_batches": 4},
        "ball": {"radius": 3},
        "tree": {"depth": 6},
        "random": {"length": 32, "words": 2000, "chunk": 100},
    },
    "large": {
        "build": {"n": 150},
        "verify": {"n": 3},
        "growth": {"n": 25},
        "queries": {"maxlen": 64, "batches": 256, "reference": 4,
                    "anchor_seed": 2024, "anchor_batches": 4},
        "ball": {"radius": 4},
        "tree": {"depth": 7},
        "random": {"length": 64, "words": 2000, "chunk": 50},
    },
    "toy": {
        "build": {"n": 20},
        "verify": {"n": 2},
        "growth": {"n": 5},
        "queries": {"maxlen": 24, "batches": 4, "reference": 2,
                    "anchor_seed": 2024, "anchor_batches": 2},
        "ball": {"radius": 2},
        "tree": {"depth": 3},
        "random": {"length": 8, "words": 20, "chunk": 10},
    },
}

WHY = {
    "small": "all seven request kinds at small sizes: fixed and per-call costs weigh "
    "more (import, argument handling, Python work per call)",
    "large": "all seven request kinds at large sizes: the superlinear cores dominate "
    "(offset scan, bound products, stabilizer chains, d-sized gathers)",
}
