"""Spans and counts recorded around the library's public calls.

The tracer wraps functions from outside the package: nothing in
``bhneumann`` knows it is being traced.  A function is patched under
every name that binds it in any loaded ``bhneumann`` module, because the
library looks names up where they were imported: ``cli`` binds
``bound_table`` and ``verify_alt_generation`` at import time, ``growth``
calls ``full_rf_upper`` through its own globals, and ``neumann`` reaches
``eval_word`` through the ``_kernels`` module attribute.  Patching only
the defining module would record nothing for those calls.

Spans are kept in memory in flat arrays (name, parent, start, end) and
reduced to per-name and per-layer totals when the run ends.  A span's
self time is its duration minus the durations of its direct children;
calls are single-threaded and properly nested, so children never
overlap.  The layer of a span is the prefix of its name.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "cli", "seqgen", "schreier", "growth", "neumann",
    "kernels", "wreath", "words", "perm", "bench",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    # ---------------------------------------------------------- patching

    def wrap(self, span: str, fn, after=None):
        """fn wrapped in a span; after(args, result) records counts."""

        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, span: str, after=None) -> None:
        """Replace module.attr under every name that binds it in the package."""
        fn = getattr(module, attr)
        traced = self.wrap(span, fn, after)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "bhneumann" and not modname.startswith("bhneumann."):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._restore.append((mod, key, val))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # --------------------------------------------------------- reduction

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds and calls."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(len(self.name)):
            name = self.names[self.name[i]]
            inclusive[name] += self.end[i] - self.start[i]
            calls[name] += 1
        return inclusive, calls

    def self_by_root(self) -> dict[str, dict[str, float]]:
        """Self time per layer under each top-level span name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = dur[:]
        root = list(range(n))
        for i in range(n):  # a parent always precedes its children
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
                root[i] = root[p]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[self.names[self.name[root[i]]]][layer] += own[i]
        return out

    def children_of(self, parent_name: str, child_name: str) -> list[int]:
        """For each span named parent_name, its number of child_name children."""
        pid = self._name_id.get(parent_name)
        cid = self._name_id.get(child_name)
        per_parent: dict[int, int] = {}
        for i in range(len(self.name)):
            if self.name[i] == pid:
                per_parent.setdefault(i, 0)
            elif self.name[i] == cid and self.parent[i] >= 0:
                p = self.parent[i]
                if self.name[p] == pid:
                    per_parent[p] = per_parent.get(p, 0) + 1
        return list(per_parent.values())


def install(tracer: Tracer, lib) -> None:
    """Patch the public calls of every layer; lib holds the loaded modules."""
    cli, seqgen, schreier, growth = lib.cli, lib.seqgen, lib.schreier, lib.growth
    neumann, kernels, wreath, words, perm = (
        lib.neumann, lib._kernels, lib.wreath, lib.words, lib.perm
    )
    fn = tracer.patch_function

    def count(key, amount_of):
        return lambda args, out: tracer.count(key, amount_of(args, out))

    fn(cli, "main", "cli.main")
    tracer.patch_method(cli._Report, "render", tracer.wrap("cli.render", cli._Report.render))

    ensure = seqgen.SequenceSet.ensure

    def traced_ensure(seqs, n):
        # Most calls find the index already derived; only derivations get a
        # span, so cutoff scans do not flood the trace with empty spans.
        before = seqs.known
        if seqs.is_preset or n <= before:
            return ensure(seqs, n)
        idx = tracer.open("seqgen.ensure")
        try:
            ensure(seqs, n)
        finally:
            tracer.close(idx)
        tracer.count("seqgen.indices_derived", seqs.known - before)
        tracer.count(
            "seqgen.candidates_rejected",
            sum(seqs.certificates[k]["rejected"] for k in range(before + 1, seqs.known + 1)),
        )

    tracer.patch_method(seqgen.SequenceSet, "ensure", traced_ensure)
    tracer.patch_method(
        seqgen.SequenceSet,
        "validate_hypotheses",
        tracer.wrap("seqgen.validate", seqgen.SequenceSet.validate_hypotheses),
    )

    fn(schreier, "verify_alt_generation", "schreier.verify_alt_generation",
       count("schreier.degree_sum", lambda a, out: a[0]))
    fn(schreier, "build_chain", "schreier.build_chain")

    for name in ("bound_table", "full_rf_upper", "stirling_check", "exact_sandwich",
                 "envelope_report"):
        fn(growth, name, f"growth.{name}")

    for name in ("is_trivial", "equal", "cutoff", "signature", "coordinate_eval", "ball",
                 "witness"):
        fn(neumann, name, f"neumann.{name}")

    def eval_word_counts(args, out):
        letters = len(args[1])
        tracer.count("kernels.eval_word_letters", letters)
        # computed, not measured: two int32 reads per point per letter
        tracer.count("kernels.eval_word_bytes", letters * args[0].shape[1] * 8)

    fn(kernels, "eval_word", "kernels.eval_word", eval_word_counts)
    fn(kernels, "scan_tree", "kernels.scan_tree",
       count("kernels.scan_tree_nodes", lambda a, out: int(out[0])))
    fn(kernels, "check_random_words", "kernels.check_random_words",
       count("kernels.check_random_words_words", lambda a, out: int(out[0])))

    fn(wreath, "w_eval", "wreath.w_eval")
    for name in ("free_reduce", "invert", "to_codes", "random_reduced", "commutator",
                 "conjugate"):
        fn(words, name, f"words.{name}")

    fn(perm, "make_generators", "perm.make_generators")
    tracer.patch_method(
        perm.Permutation,
        "__post_init__",
        tracer.wrap("perm.Permutation", perm.Permutation.__post_init__),
    )


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics per round, as name -> (value, unit)."""
    inclusive, calls = tracer.totals()
    c = tracer.counts
    derived = c["seqgen.indices_derived"]
    rejected = c["seqgen.candidates_rejected"]
    evals_per_query = tracer.children_of("neumann.is_trivial", "kernels.eval_word")
    queries = len(evals_per_query)
    out = {
        "seqgen.ensure_s": (inclusive["seqgen.ensure"], "s"),
        "seqgen.indices_derived": (derived, "count"),
        "seqgen.candidates_rejected": (rejected, "count"),
        "seqgen.accept_ratio": (derived / (derived + rejected) if derived else 0.0, "ratio"),
        "seqgen.validate_s": (inclusive["seqgen.validate"], "s"),
        "schreier.verify_alt_generation_s": (inclusive["schreier.verify_alt_generation"], "s"),
        "schreier.verify_alt_generation_calls": (calls["schreier.verify_alt_generation"], "count"),
        "schreier.degree_sum": (c["schreier.degree_sum"], "count"),
        "growth.bound_table_s": (inclusive["growth.bound_table"], "s"),
        "growth.full_rf_upper_s": (inclusive["growth.full_rf_upper"], "s"),
        "growth.full_rf_upper_calls": (calls["growth.full_rf_upper"], "count"),
        "growth.stirling_check_s": (inclusive["growth.stirling_check"], "s"),
        "growth.exact_sandwich_s": (inclusive["growth.exact_sandwich"], "s"),
        "neumann.is_trivial_s": (inclusive["neumann.is_trivial"], "s"),
        "neumann.is_trivial_calls": (calls["neumann.is_trivial"], "count"),
        "neumann.cutoff_s": (inclusive["neumann.cutoff"], "s"),
        "neumann.coords_checked": (sum(evals_per_query), "count"),
        "neumann.lamp_decided_ratio": (
            sum(1 for k in evals_per_query if k == 0) / queries if queries else 0.0, "ratio"
        ),
        "neumann.ball_s": (inclusive["neumann.ball"], "s"),
        "neumann.signature_calls": (calls["neumann.signature"], "count"),
        "kernels.eval_word_s": (inclusive["kernels.eval_word"], "s"),
        "kernels.eval_word_calls": (calls["kernels.eval_word"], "count"),
        "kernels.eval_word_letters": (c["kernels.eval_word_letters"], "count"),
        "kernels.eval_word_bytes": (c["kernels.eval_word_bytes"], "B_computed"),
        "kernels.scan_tree_s": (inclusive["kernels.scan_tree"], "s"),
        "kernels.scan_tree_nodes": (c["kernels.scan_tree_nodes"], "count"),
        "kernels.check_random_words_s": (inclusive["kernels.check_random_words"], "s"),
        "kernels.check_random_words_words": (c["kernels.check_random_words_words"], "count"),
        "wreath.w_eval_s": (inclusive["wreath.w_eval"], "s"),
        "wreath.w_eval_calls": (calls["wreath.w_eval"], "count"),
        "words.free_reduce_s": (inclusive["words.free_reduce"], "s"),
        "perm.make_generators_calls": (calls["perm.make_generators"], "count"),
        "cli.render_s": (inclusive["cli.render"], "s"),
    }
    by_root = tracer.self_by_root().values()
    for layer in LAYERS:
        out[f"self.{layer}_s"] = (sum(by_layer.get(layer, 0.0) for by_layer in by_root), "s")
    return {
        name: (value if unit == "ratio" else value / rounds, unit)
        for name, (value, unit) in out.items()
    }
