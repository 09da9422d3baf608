"""Layered benchmark for bhneumann: end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload small|large --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --compare OLD.out NEW.out

A run imports the package from ``src/`` and drives it through public
calls only, from one process with one client: it issues a request,
waits for the answer, checks it, and issues the next.  The seven
request kinds are described in workloads.py; a workload fixes their
sizes.  The run is a sequence of cycles: a fresh set-up (import plus
the warm contexts the requests need), then a 0.2 s slice of each kind
in turn, until S seconds have passed.  Post-run gates follow.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the environment, the seed
and the sizes.

With ``--trace 0`` the metrics are end to end: ``setup_s`` and one per
kind (``cli.build_s``, ``cli.verify_s``, ``cli.growth_s``,
``wp.queries_per_s``, ``wp.ball_s``, ``loc.nodes_per_s``,
``loc.words_per_s``).  Each is the fastest set-up or request of the
run, or the work of one request over the fastest request.  The minimum
is deliberate: on a shared 2-CPU host, other tenants slow this process
by 1.6-1.9x in phases that last from seconds to minutes (measured with
a fixed probe, both CPUs at once, no steal time).  Medians of 10-50 s
runs spread 30-40 % (quartile distance over median) between runs; the
fastest request tracks the uncontended cost, which is what a change to
the code moves.  Interleaving the kinds lets each of them sample every
phase of the run.

With ``--trace 1`` the run repeats rounds for S seconds: a traced
set-up, then a fixed list of requests of every kind, each issued once
untraced and once with every public call of every layer wrapped in a
span (see tracing.py).  The metrics are per layer and per round:
inclusive times, call and work counts, self time per layer, and
``trace.overhead_ratio``, traced over untraced request time minus one.
The dominant layer of each kind is printed, and every per-layer metric
must be nonzero.

``--selfcheck`` runs the toy sizes, traced and untraced, and confirms
that a corrupted value in expected.json makes the run fail, for each
kind in turn.  ``--compare`` prints the ratio of each metric between two
saved outputs, and refuses when they differ in kernel backend,
workload, sizes or mode.  The process exits 1 when any check fails and
2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer, install, layer_metrics
from workloads import EXPECTED, KINDS, WHY, WORKLOADS, load_library

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SLICE_S = 0.2


def fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lib) -> dict:
    return {
        "backend": lib._kernels.ACTIVE,
        "have_numba": lib._kernels.HAVE_NUMBA,
        "BHNEUMANN_NO_NUMBA": os.environ.get("BHNEUMANN_NO_NUMBA", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def issue(kind, lib, state, request, expected) -> tuple[float, bool]:
    """One request: (latency s, output ok)."""
    t0 = time.perf_counter()
    try:
        ok = kind.call(lib, state, request, expected)
    except Exception:  # a request that raises is a failed request
        traceback.print_exc()
        ok = False
    return time.perf_counter() - t0, ok


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (info, result)."""
    sizes = WORKLOADS[workload]
    if expected is None:
        expected = EXPECTED[workload]

    def set_up(lib):
        return {k.name: k.prepare(lib, sizes[k.name]) for k in KINDS}

    lib = load_library()
    states = set_up(lib)
    requests = {k.name: k.requests(lib, states[k.name], seed, sizes[k.name]) for k in KINDS}
    records: dict[str, list] = {k.name: [] for k in KINDS}
    deadline = time.perf_counter() + seconds
    if not trace:
        # Cycles of one fresh set-up and a time slice per kind, so that every
        # kind and the set-up sample the whole run, fast phases and slow.
        setups = []
        while not setups or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            lib = load_library()
            states = set_up(lib)
            setups.append(time.perf_counter() - t0)
            for k in KINDS:
                rec, reqs = records[k.name], requests[k.name]
                first, slice_end = len(rec), time.perf_counter() + SLICE_S
                while len(rec) == first or time.perf_counter() < slice_end:
                    rec.append(issue(k, lib, states[k.name], reqs[len(rec) % len(reqs)],
                                     expected[k.name]))
        metrics = {"setup_s": (min(setups), "s")}
        for k in KINDS:
            best = min(lat for lat, _ in records[k.name])
            per = k.units_per_request(sizes[k.name]) if k.units_per_request else None
            metrics[k.metric] = (best if per is None else per / best, k.unit)
    else:
        # Whole rounds: a traced set-up, then a fixed list of requests of
        # every kind, each issued untraced and then traced, so that both
        # sides of the overhead ratio see the same machine phase.
        tracer = Tracer()
        plain = traced = 0.0
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            install(tracer, lib)
            span = tracer.open("bench.setup")
            states = set_up(lib)
            tracer.close(span)
            tracer.uninstall()
            for k in KINDS:
                for i in range(k.round_size):
                    request = requests[k.name][i % len(requests[k.name])]
                    before = issue(k, lib, states[k.name], request, expected[k.name])
                    install(tracer, lib)
                    span = tracer.open(f"bench.{k.name}")
                    after = issue(k, lib, states[k.name], request, expected[k.name])
                    tracer.close(span)
                    tracer.uninstall()
                    records[k.name] += [before, after]
                    plain += before[0]
                    traced += after[0]
            rounds += 1
        metrics = layer_metrics(tracer, rounds)
        metrics["trace.overhead_ratio"] = (traced / plain - 1, "ratio")

    checks, problems = 0, []
    for k in KINDS:
        if k.gate:
            n, bad = k.gate(lib, states[k.name], requests[k.name], seed, sizes[k.name],
                            expected[k.name])
            checks += n
            problems += bad
    if trace:
        by_kind = tracer.self_by_root()
        for k in KINDS:
            layers = by_kind.get(f"bench.{k.name}", {})
            top = max(layers, key=layers.get)
            print(f"{k.name}: dominant layer by self time {top} "
                  f"({layers[top] / sum(layers.values()):.0%}), expected {k.dominant}")
        if workload != "toy":
            zero = [name for name, (value, _) in metrics.items()
                    if value == 0 and name != "trace.overhead_ratio"]
            checks += len(metrics) - 1
            problems += [f"per-layer metric {name} is zero" for name in zero]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(not ok for rec in records.values() for _, ok in rec) + len(problems)
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": sizes,
        "env": environment(lib),
    }
    result = {
        "correct": failed == 0,
        "attempted": sum(len(rec) for rec in records.values()) + checks,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else 1


def corrupt(expected):
    if isinstance(expected, str):
        return expected[:-1] + ("0" if expected[-1] != "0" else "1")
    return list(expected) + [0]


def selfcheck() -> int:
    good = True
    for trace in (False, True):
        _, result = run("toy", seed=1, seconds=0.5, trace=trace)
        ok = exit_code(result) == 0
        print(f"toy sizes, trace={int(trace)}: {'pass' if ok else 'FAIL'}")
        good = good and ok
    for kind, value in EXPECTED["toy"].items():
        bad = dict(EXPECTED["toy"], **{kind: corrupt(value)})
        _, result = run("toy", seed=1, seconds=0.1, trace=False, expected=bad)
        ok = exit_code(result) != 0
        print(f"corrupted {kind} expectation: {'fails as it should' if ok else 'NOT DETECTED'}")
        good = good and ok
    print("selfcheck " + ("passed" if good else "FAILED"))
    return 0 if good else 1


def read_output(path: str) -> tuple[dict, dict]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.startswith("{")]
    info = next(obj for obj in map(json.loads, lines) if "env" in obj)
    return info, json.loads(lines[-1])


def compare(old_path: str, new_path: str) -> int:
    (old_info, old), (new_info, new) = read_output(old_path), read_output(new_path)
    for key in ("workload", "trace", "sizes"):
        if old_info[key] != new_info[key]:
            return fail_usage(f"refusing to compare: {key} {old_info[key]} vs {new_info[key]}")
    if old_info["env"]["backend"] != new_info["env"]["backend"]:
        return fail_usage(
            "refusing to compare: kernel backend "
            f"{old_info['env']['backend']} vs {new_info['env']['backend']}"
        )
    print(f"{'metric':<40}{'unit':>12}{'old':>14}{'new':>14}{'new/old':>10}")
    for name, m in old["metrics"].items():
        a, b = m["value"], new["metrics"].get(name, {}).get("value")
        ratio = f"{b / a:.3f}" if b is not None and a else "-"
        b_text = f"{b:.6g}" if b is not None else "-"
        print(f"{name:<40}{m['unit']:>12}{a:>14.6g}{b_text:>14}{ratio:>10}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "bhneumann" / "__init__.py").is_file():
        return fail_usage(f"no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return selfcheck()

    if args.workload not in WHY:
        return fail_usage(f"--workload must be one of {', '.join(WHY)}")
    if args.seconds <= 0:
        return fail_usage("--seconds must be positive")
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
