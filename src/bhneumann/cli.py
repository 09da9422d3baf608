"""Batch front end: reproducible builds, lemma checks, bound tables.

Every command is a pure function of (config, seed): no timestamps, no
wall-clock decisions, floats printed through one formatter.  The budget
flag therefore caps work through a fixed cost model (words per
millisecond) instead of measuring elapsed time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import BHNeumannError, BudgetExceeded
from .growth import bound_table, envelope_report, exact_sandwich, stirling_check
from .neumann import GroupContext, _identity_at, _witness_word, ball, spread_ok, witness
from .schreier import build_chain, group_order, verify_alt_generation
from .perm import make_generators
from .seqgen import GrowthProfile, SequenceSet
from .words import random_reduced, to_codes

__all__ = ["RunConfig", "main", "cmd_build", "cmd_verify", "cmd_growth", "cmd_oracle"]

_COMMANDS = ("build", "verify", "growth", "oracle")
_FORMATS = ("tsv", "json")
_KINDS = ("toy", "builtin", "bprime", "table")
_PARAM_KEYS = {
    "toy": {"slope", "intercept"},
    "builtin": {"c", "eps", "C2"},
    "bprime": {"c", "C2"},
    "table": {"values", "C2"},
}
_WORDS_PER_MS = 8


def _is_int(x) -> bool:
    """True for ints proper; JSON true/false arrive as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass
class RunConfig:
    command: str = "build"
    profile: str = "toy"
    params: dict = field(default_factory=dict)
    n: int = 20
    seed: int = 2024
    fmt: str = "tsv"
    budget_ms: int = 0

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.profile not in _KINDS:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.fmt not in _FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if not _is_int(self.n) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not _is_int(self.budget_ms) or self.budget_ms < 0:
            raise ValueError("budget_ms must be a nonnegative integer")
        extra = set(self.params) - _PARAM_KEYS[self.profile]
        if extra:
            raise ValueError(
                f"profile {self.profile!r} does not accept params {sorted(extra)}"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys {sorted(extra)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        return cls.from_dict(data)


def _profile_of(cfg: RunConfig) -> GrowthProfile:
    p = cfg.params
    if cfg.profile == "toy":
        return GrowthProfile.toy(**p)
    if cfg.profile == "builtin":
        return GrowthProfile.builtin(**p)
    if cfg.profile == "bprime":
        return GrowthProfile.bprime(**p)
    if "values" not in p:
        raise ValueError("table profile needs params.values")
    return GrowthProfile.from_table(p["values"], C2=p.get("C2", 0))


def _f(x: float) -> str:
    return format(float(x), ".12g")


class _Report:
    """Accumulates rows per section; renders to TSV lines or one JSON blob."""

    def __init__(self) -> None:
        self.sections: dict[str, list[dict]] = {}
        self.order: list[str] = []

    def add(self, section: str, row: dict) -> None:
        if section not in self.sections:
            self.sections[section] = []
            self.order.append(section)
        self.sections[section].append(row)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            obj = {name: self.sections[name] for name in self.order}
            return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        lines = []
        for name in self.order:
            for row in self.sections[name]:
                cells = [name]
                for key in row:
                    val = row[key]
                    if isinstance(val, bool):
                        val = "pass" if val else "FAIL"
                    elif isinstance(val, float):
                        val = _f(val)
                    cells.append(f"{key}={val}")
                lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def _ok(report: _Report) -> bool:
    for rows in report.sections.values():
        for row in rows:
            if row.get("ok") is False:
                return False
    return False if "error" in report.sections else True


def cmd_build(cfg: RunConfig, report: _Report) -> int:
    seqs = SequenceSet(_profile_of(cfg))
    seqs.ensure(cfg.n)
    for n in range(1, cfg.n + 1):
        cert = seqs.certificates[n]
        report.add(
            "sequence",
            {
                "n": n,
                "f": seqs.f_of(n),
                "d": seqs.d_of(n),
                "q": cert["q"],
                "r": seqs.r_of(n),
                "window_lo": cert["window"][0],
                "window_hi": cert["window"][1],
                "rejected": cert["rejected"],
            },
        )
    hyp = seqs.validate_hypotheses(cfg.n)
    for name in ("prime_ok", "floor16_ok", "window_ok", "offset_ok", "pairwise_ok"):
        report.add("hypothesis", {"name": name, "ok": all(r[name] for r in hyp["rows"])})
    info = hyp["info"]
    report.add(
        "advisory",
        {
            "name": "growth_floor",
            "holds": bool(info["growth_floor_ok"]),
            "note": "not required for construction",
        },
    )
    report.add(
        "advisory",
        {
            "name": "series_sum_below_1_16",
            "holds": bool(info["series_ok"]),
            "value": info["series_value"],
            "note": "not required for construction",
        },
    )
    return 0 if hyp["ok"] else 1


def _check_generation(cfg: RunConfig, seqs: SequenceSet, report: _Report) -> None:
    for k in range(1, min(cfg.n, 10) + 1):
        d, r = seqs.d_of(k), seqs.r_of(k)
        ok = verify_alt_generation(d, r, r)
        report.add("generation", {"case": f"index_{k}", "d": d, "r1": r, "r2": r, "ok": ok})
    for d, r1, r2 in ((5, 2, 2), (7, 2, 3), (11, 3, 3), (13, 4, 4)):
        ok = verify_alt_generation(d, r1, r2)
        got = group_order(build_chain(list(make_generators(d, r1, r2))))
        want = math.factorial(d) // 2
        report.add(
            "generation",
            {
                "case": f"fixed_{d}_{r1}_{r2}",
                "d": d,
                "r1": r1,
                "r2": r2,
                "order": got,
                "ok": ok and got == want,
            },
        )


def _check_commuting(cfg: RunConfig, ctx: GroupContext, report: _Report) -> None:
    top = min(cfg.n, 10)
    ctx.seqs.ensure(top)
    bad = 0
    for n in range(1, top + 1):
        codes = to_codes(_witness_word(ctx.offset(n)))
        for m in range(1, top + 1):
            if _identity_at(ctx, codes, m) != (m != n):
                bad += 1
    report.add(
        "commuting",
        {"cases": top * top, "violations": bad, "ok": bad == 0},
    )


def _check_locality(cfg: RunConfig, ctx: GroupContext, report: _Report) -> None:
    depth = 4
    coords = [m for m in range(1, 2 * depth + 3) if spread_ok(ctx, m, depth)]
    for m in coords:
        nodes, fails = _kernels.scan_tree(ctx.letter_tables(m), ctx.offset(m), depth)
        report.add(
            "locality_exhaustive",
            {"m": m, "depth": depth, "nodes": int(nodes), "failures": int(fails), "ok": fails == 0},
        )
    length = 32
    rand_coords = []
    m = 1
    while len(rand_coords) < 3:
        if spread_ok(ctx, m, length):
            rand_coords.append(m)
        m += 1
    words = [random_reduced(length, cfg.seed + i) for i in range(200)]
    codes2d = np.stack([to_codes(w) for w in words])
    for m in rand_coords:
        nwords, fails = _kernels.check_random_words(
            ctx.letter_tables(m), ctx.offset(m), codes2d
        )
        report.add(
            "locality_random",
            {"m": m, "length": length, "words": int(nwords), "failures": int(fails), "ok": fails == 0},
        )


def _check_greedy(cfg: RunConfig, seqs: SequenceSet, report: _Report) -> None:
    top = min(cfg.n, 50)
    rows = seqs.validate_hypotheses(top)["rows"]
    pairwise = sum(row["pairwise_violations"] for row in rows)
    report.add(
        "greedy",
        {"name": "window_and_size", "top": top, "ok": all(row["offset_ok"] for row in rows)},
    )
    report.add(
        "greedy",
        {"name": "pairwise_congruences", "top": top, "violations": pairwise, "ok": pairwise == 0},
    )
    report.add("greedy", {"name": "first_offset_is_2", "ok": seqs.r_of(1) == 2})


def cmd_verify(cfg: RunConfig, report: _Report) -> int:
    seqs = SequenceSet(_profile_of(cfg))
    ctx = GroupContext(seqs)
    _check_generation(cfg, seqs, report)
    _check_commuting(cfg, ctx, report)
    _check_locality(cfg, ctx, report)
    _check_greedy(cfg, seqs, report)
    return 0 if _ok(report) else 1


def cmd_growth(cfg: RunConfig, report: _Report) -> int:
    profile = _profile_of(cfg)
    seqs = SequenceSet(profile)
    table = bound_table(seqs, cfg.n)
    for row in table.rows:
        report.add(
            "bound",
            {
                "n": row["n"],
                "kind": row["kind"],
                "lower_log": row["lower_log"],
                "upper_log": row["upper_log"],
                "ok": row["lower_log"] <= row["upper_log"],
            },
        )
    n_st = max(100, min(cfg.n, 1000))
    for K in (1, 2, 3):
        rep = stirling_check(profile, n_st, K)
        report.add(
            "stirling",
            {
                "K": K,
                "N": n_st,
                "start_n": rep["start_n"],
                "sup_a": rep["sup_a"],
                "sup_b": rep["sup_b"],
                "stable_a": rep["stable_a"],
                "stable_b": rep["stable_b"],
                "ok": rep["ok"],
            },
        )
    if profile.kind != "toy":
        meta = envelope_report(table, profile).meta
        report.add("envelope", {"name": "candidate_consistency", "ok": meta["envelope_ok"]})
    for row in exact_sandwich(seqs, min(cfg.n, 20))["rows"]:
        report.add("exact_sandwich", {"n": row["n"], "ok": row["ok"]})
    if profile.kind == "bprime":
        report.add("envelope", {"name": "loglog_floor", "ok": meta["loglog_ok"]})
    return 0 if _ok(report) else 1


def cmd_oracle(cfg: RunConfig, report: _Report) -> int:
    seqs = SequenceSet(_profile_of(cfg))
    ctx = GroupContext(seqs)
    budget = 100_000 if cfg.budget_ms == 0 else cfg.budget_ms * _WORDS_PER_MS
    for n in range(1, min(cfg.n, 4) + 1):
        elems = ball(ctx, n, budget=budget)
        # the signatures must reach coordinate 2n for the projection test
        deep_enough = all(len(sig.low_coords) >= 2 * n for _, sig in elems)
        proj = {sig.low_coords[: 2 * n] for _, sig in elems}
        injective = deep_enough and len(proj) == len(elems)
        report.add(
            "ball",
            {"n": n, "size": len(elems), "proj_injective_2n": injective, "ok": injective},
        )
        if n <= 2:
            for word, sig in elems:
                report.add(
                    "element",
                    {"n": n, "word": word if word else "e", "digest": sig.digest().hex()},
                )
    for m in range(1, min(cfg.n, 10) + 1):
        w = witness(ctx, m)
        report.add(
            "witness",
            {"m": m, "length": len(w), "expected": 4 + 4 * ctx.offset(m), "ok": True},
        )
    return 0 if _ok(report) else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bhneumann",
        description="Construct, check and measure the two-generator tower.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("build", "derive and certify the divisor and offset sequences"),
        ("verify", "run the generation, commuting, locality and greedy checks"),
        ("growth", "emit bound tables and factorial expansion diagnostics"),
        ("oracle", "enumerate balls, test projection injectivity, log witnesses"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--profile", choices=_KINDS)
        p.add_argument("--n", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--format", dest="fmt", choices=_FORMATS)
        p.add_argument("--budget-ms", dest="budget_ms", type=int)
    return ap


_DISPATCH = {
    "build": cmd_build,
    "verify": cmd_verify,
    "growth": cmd_growth,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        data = {}
        if ns.config:
            with open(ns.config, "r", encoding="utf-8") as fh:
                data = json.loads(fh.read())
            if not isinstance(data, dict):
                raise ValueError("config must be a JSON object")
        data["command"] = ns.command
        for key in ("profile", "n", "seed", "fmt", "budget_ms"):
            val = getattr(ns, key)
            if val is not None:
                data[key] = val
        cfg = RunConfig.from_dict(data)
        _profile_of(cfg)  # surface bad param values before any work runs
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = _Report()
    try:
        code = _DISPATCH[cfg.command](cfg, report)
    except BudgetExceeded as exc:
        report.add("error", {"name": "budget_exceeded", "detail": str(exc)})
        code = 1
    except BHNeumannError as exc:
        report.add("error", {"name": type(exc).__name__, "detail": str(exc)})
        code = 1
    sys.stdout.write(report.render(cfg.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
