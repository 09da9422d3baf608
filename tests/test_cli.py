"""CLI contract: exit codes, output bytes, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bhneumann
from bhneumann import SequenceSet, cli, growth
from bhneumann.cli import RunConfig, _Report, main
from bhneumann.words import random_reduced, to_codes


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- config object -----------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"comand": "build"})


def test_config_validation():
    for bad in (
        RunConfig(command="destroy"),
        RunConfig(profile="cubic"),
        RunConfig(fmt="xml"),
        RunConfig(n=0),
        RunConfig(seed=-1),
        RunConfig(budget_ms=-5),
        RunConfig(n=True),
        RunConfig(seed=False),
        RunConfig(budget_ms=True),
        RunConfig(profile="toy", params={"c": 1.0}),
        RunConfig(profile="bprime", params={"eps": 1.0}),
        RunConfig(profile="table"),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_config_accepts_matching_params():
    RunConfig(profile="toy", params={"slope": 16, "intercept": 64}).validate()
    RunConfig(profile="builtin", params={"c": 1.0, "eps": 1.0, "C2": 256}).validate()


# --- exit code 0 paths ---------------------------------------------------------

def test_build_first_line_frozen(capsys):
    rc, out, _ = run(capsys, ["build", "--profile", "toy", "--n", "5"])
    assert rc == 0
    first = out.splitlines()[0]
    assert first == (
        "sequence\tn=1\tf=80\td=83\tq=1\tr=2\twindow_lo=1\twindow_hi=17\trejected=0"
    )
    assert len([l for l in out.splitlines() if l.startswith("sequence\t")]) == 5


def test_build_row_count_and_hypotheses(capsys):
    rc, out, _ = run(capsys, ["build", "--profile", "toy", "--n", "20"])
    assert rc == 0
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("sequence\t")]) == 20
    hyp = [l for l in lines if l.startswith("hypothesis\t")]
    assert len(hyp) == 5 and all(l.endswith("ok=pass") for l in hyp)
    # the series advisory fails past n = 8 without flipping the exit code
    series = [l for l in lines if "series_sum_below_1_16" in l]
    assert len(series) == 1 and "holds=FAIL" in series[0]


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "--profile", "toy", "--n", "4"])
    assert rc == 0
    assert "FAIL" not in out
    for section in ("generation", "commuting", "locality_exhaustive",
                    "locality_random", "greedy"):
        assert any(l.startswith(section + "\t") for l in out.splitlines())


def test_verify_checks_the_seeded_random_words(capsys, monkeypatch):
    # every word passes, so stdout cannot show which words were checked
    seen = []
    check = cli._kernels.check_random_words

    def recorded(tabs, r, codes2d):
        seen.append(codes2d)
        return check(tabs, r, codes2d)

    monkeypatch.setattr(cli._kernels, "check_random_words", recorded)
    rc, _, _ = run(capsys, ["verify", "--profile", "toy", "--n", "3", "--seed", "11"])
    assert rc == 0
    expected = [to_codes(random_reduced(32, 11 + i)) for i in range(200)]
    assert len(seen) == 3
    for rows in seen:
        assert rows == expected


def test_oracle_ball_sizes(capsys):
    rc, out, _ = run(capsys, ["oracle", "--profile", "toy", "--n", "1"])
    assert rc == 0
    assert "size=5" in out
    assert "proj_injective_2n=pass" in out
    assert "word=e" in out


def test_growth_json_sections(capsys):
    rc, out, _ = run(capsys, ["growth", "--profile", "toy", "--n", "5",
                              "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"bound", "stirling", "exact_sandwich"}
    assert len(doc["bound"]) == 10  # rf and full_rf rows for n = 1..5
    assert all(row["ok"] for rows in doc.values() for row in rows)


def test_growth_bprime_has_envelope_sections(capsys):
    rc, out, _ = run(capsys, ["growth", "--profile", "bprime", "--n", "3",
                              "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    names = {row["name"] for row in doc["envelope"]}
    assert names == {"candidate_consistency", "loglog_floor"}


def test_output_deterministic(capsys):
    for fmt in ("tsv", "json"):
        argv = ["oracle", "--profile", "toy", "--n", "2", "--seed", "7",
                "--format", fmt]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


# Captured from the parent code of each rewrite that could change them with
#   python3 -m bhneumann.cli COMMAND --profile P --n N --format FMT
# (verify and oracle before the sparse kernel, growth before the bound
# columns became plain floats, build before the window sieve) and kept fixed, so rewrites must reproduce
# them byte for byte.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "command,profile,n",
    [
        pytest.param("verify", "toy", 3, id="verify-3"),
        pytest.param("verify", "toy", 10, id="verify-10"),
        pytest.param("oracle", "toy", 4, id="oracle-4"),
        pytest.param("growth", "toy", 25, id="growth-toy-25"),
        pytest.param("growth", "builtin", 20, id="growth-builtin-20"),
        pytest.param("growth", "bprime", 12, id="growth-bprime-12"),
        pytest.param("build", "toy", 150, id="build-toy-150"),
        pytest.param("build", "builtin", 60, id="build-builtin-60"),
        pytest.param("build", "bprime", 40, id="build-bprime-40"),
    ],
)
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_output_matches_golden(capsys, command, profile, n, fmt):
    rc, out, _ = run(capsys, [command, "--profile", profile, "--n", str(n), "--format", fmt])
    assert rc == 0
    assert out == (GOLDEN / f"{command}_{profile}_n{n}.{fmt}").read_text()


# --- exit code 1 paths -----------------------------------------------------------

def test_oracle_budget_exceeded(capsys):
    # 1 ms buys 8 words under the fixed cost model; the radius-2 ball
    # needs 17 candidates
    rc, out, _ = run(capsys, ["oracle", "--profile", "toy", "--n", "2",
                              "--budget-ms", "1"])
    assert rc == 1
    assert "budget_exceeded" in out
    assert "size=5" in out  # the radius-1 ball still got reported


def test_build_error_reported_as_section(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"params": {"slope": 1, "intercept": 4}}))
    rc, out, _ = run(capsys, ["build", "--config", str(cfgfile), "--n", "5"])
    assert rc == 1
    assert "DivisorTooSmall" in out


@pytest.mark.parametrize("command,n", [("build", 8), ("growth", 4)])
def test_divisor_beyond_primality_range_reported_as_section(capsys, tmp_path, command, n):
    # with C2 = 2390, f(8) passes the deterministic Miller-Rabin bound
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"profile": "bprime", "params": {"C2": 2390}}))
    rc, out, err = run(capsys, [command, "--config", str(cfgfile), "--n", str(n),
                                "--format", "json"])
    assert rc == 1 and err == ""
    (row,) = json.loads(out)["error"]
    assert row["name"] == "SequenceConstructionError" and "d(8)" in row["detail"]


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_degree_past_dense_limit_reported_as_section(capsys, command):
    # bprime d(1) = 766409539403 has no dense table; both commands need one
    rc, out, err = run(capsys, [command, "--profile", "bprime", "--n", "2",
                                "--format", "json"])
    assert rc == 1 and err == ""
    report = json.loads(out)
    assert list(report) == ["error"]
    (row,) = report["error"]
    assert row["name"] == "DegreeTooLarge" and "766409539403" in row["detail"]


@pytest.mark.parametrize("command", ["build", "growth"])
@pytest.mark.parametrize(
    "config",
    [
        {"profile": "bprime", "params": {"c": 1e300}},
        {"profile": "builtin", "params": {"c": 1e306}},
        {"profile": "builtin", "params": {"eps": 1e300}},
    ],
    ids=["bprime-c", "builtin-c", "builtin-eps"],
)
def test_log_F_past_the_float_range_reported_as_section(capsys, tmp_path, command, config):
    # finite parameters whose log F(n + C2) is inf or overflows
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    rc, out, err = run(capsys, [command, "--config", str(cfgfile), "--format", "json"])
    assert rc == 1 and err == ""
    report = json.loads(out)
    assert list(report) == ["error"]
    (row,) = report["error"]
    assert row == {"name": "SequenceConstructionError",
                   "detail": "log F(257) is past the float range"}


def test_growth_stirling_overflow_is_a_fail_row(capsys, tmp_path):
    # log((K g)!) for log G = 1e308 is past the float range: the sup is inf
    cfgfile = tmp_path / "cfg.json"
    values = [5000.0, 5000.0] + [1e308] * 98
    cfgfile.write_text(json.dumps({"profile": "table", "params": {"values": values}}))
    rc, out, err = run(capsys, ["growth", "--config", str(cfgfile), "--n", "1"])
    assert rc == 1 and err == ""
    lines = out.splitlines()
    assert [line.split("\t")[0] for line in lines] == (
        ["bound"] * 2 + ["stirling"] * 3 + ["envelope", "exact_sandwich"]
    )
    for line in lines[2:5]:
        assert "\tsup_a=inf\tsup_b=inf\t" in line and line.endswith("\tok=FAIL")


def test_json_writes_non_finite_floats_as_tsv_strings(capsys, tmp_path):
    # strict JSON has no Infinity or NaN token: inf prints as TSV's "inf"
    cfgfile = tmp_path / "cfg.json"
    values = [5000.0, 5000.0] + [1e308] * 98
    cfgfile.write_text(json.dumps({"profile": "table", "params": {"values": values}}))
    rc, out, err = run(capsys, ["growth", "--config", str(cfgfile), "--n", "1", "--format", "json"])
    assert rc == 1 and err == ""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out, parse_constant=refuse)
    rows = doc["stirling"]
    assert len(rows) == 3
    assert all(row["sup_a"] == row["sup_b"] == "inf" and row["ok"] is False for row in rows)
    report = _Report()
    report.add("x", {"a": float("-inf"), "b": float("nan"), "c": 0.5})
    assert json.loads(report.render("json"), parse_constant=refuse) == {
        "x": [{"a": "-inf", "b": "nan", "c": 0.5}]
    }


def test_growth_table_profile_keeps_rows_before_envelope_error(capsys, tmp_path):
    # the envelope reads log F at 72n + 4, past the end of this table
    cfgfile = tmp_path / "cfg.json"
    values = [50.0 * i + 5000 for i in range(1, 301)]
    cfgfile.write_text(json.dumps({"profile": "table", "params": {"values": values}}))
    rc, out, _ = run(capsys, ["growth", "--config", str(cfgfile), "--n", "5"])
    assert rc == 1
    sections = [line.split("\t")[0] for line in out.splitlines()]
    assert sections == ["bound"] * 10 + ["stirling"] * 3 + ["error"]
    assert "no value at index 364" in out


@pytest.mark.parametrize("profile", ["toy", "builtin", "bprime"])
def test_growth_builds_bound_table_once(capsys, monkeypatch, profile):
    calls = []

    def counted(ctx, N):
        calls.append(N)
        return real(ctx, N)

    real = growth.bound_table
    monkeypatch.setattr(growth, "bound_table", counted)
    monkeypatch.setattr(cli, "bound_table", counted)
    rc, _, _ = run(capsys, ["growth", "--profile", profile, "--n", "12"])
    assert rc == 0 and calls == [12]


def greedy_violations_oracle(seqs, top):
    count = 0
    for i in range(1, top + 1):
        d, ri = seqs.d_of(i), seqs.r_of(i)
        blocked = {ri % d, (-ri) % d, (2 * ri) % d, (-2 * ri) % d}
        for j in range(1, top + 1):
            if j != i and seqs.r_of(j) % d in blocked:
                count += 1
    return count


@pytest.mark.parametrize(
    "d,r",
    [
        ([83, 97, 113, 131], [2, 3, 5, 7]),
        ([11, 13, 11, 17, 13], [2, 4, 9, 8, 2]),
        ([2**89 - 1, 2**64 - 59, 101], [3, 2**64 - 62, 98]),
    ],
)
def test_check_greedy_counts_like_the_pairwise_loop(d, r):
    seqs = SequenceSet.preset(d, r)
    report = _Report()
    cli._check_greedy(RunConfig(n=len(d)), seqs, report)
    row = report.sections["greedy"][1]
    assert row["violations"] == greedy_violations_oracle(seqs, len(d))
    assert row["ok"] == (row["violations"] == 0)


# --- exit code 2 paths ------------------------------------------------------------

def test_bad_profile_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"profile": "nope"}))
    rc, _, err = run(capsys, ["build", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error" in err


def test_invalid_json_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    rc, _, err = run(capsys, ["build", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bogus": 1}))
    rc, _, err = run(capsys, ["build", "--config", str(cfgfile)])
    assert rc == 2
    assert "config error" in err


def test_table_without_values_exits_2(capsys):
    rc, _, err = run(capsys, ["growth", "--profile", "table", "--n", "1"])
    assert rc == 2
    assert "values" in err


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_flag_value_exits_2(capsys):
    assert main(["build", "--profile", "hexagonal"]) == 2
    capsys.readouterr()


def test_parser_is_reused_across_calls(capsys):
    # one parser serves every call in a process: a refused flag between
    # two good calls must leave the second one's output unchanged
    assert cli._parser() is cli._parser()
    good = ["build", "--profile", "toy", "--n", "5", "--format", "json"]
    first = run(capsys, good)
    assert run(capsys, ["build", "--profile", "hexagonal"])[0] == 2
    assert run(capsys, ["verify", "--n", "0x"])[0] == 2
    second = run(capsys, good)
    assert first[0] == second[0] == 0
    assert first[1] == second[1] != ""


@pytest.mark.parametrize(
    "config",
    [
        '{"profile": "toy", "params": {"slope": 1.5}}',
        '{"profile": "table", "params": {"values": [1e400]}}',
        '{"profile": "table", "params": {"values": ["nan"]}}',
        '{"profile": "table", "params": {"values": [true, 2.0]}}',
        '{"n": true, "seed": false}',
        '{"budget_ms": true}',
        '{"profile": "builtin", "params": {"C2": -300}}',
        '{"profile": "bprime", "params": {"C2": -300}}',
        '{"profile": "table", "params": {"values": [1.0, 2.0, 3.0], "C2": -5}}',
        '{"profile": "toy", "params": {"c": 1.0}}',
        '{"profile": "table", "params": {"C2": 3}}',
    ],
)
def test_bad_param_value_exits_2(capsys, tmp_path, config):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(config)
    rc, out, err = run(capsys, ["build", "--config", str(cfgfile), "--n", "3"])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1


NO_NUMPY_SCRIPT = """
import contextlib, io, sys
import bhneumann, bhneumann.cli
runs = [
    ["build", "--profile", "toy", "--n", "20"],
    ["verify", "--profile", "toy", "--n", "10"],
    ["growth", "--profile", "toy", "--n", "25"],
    ["oracle", "--profile", "toy", "--n", "4"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert bhneumann.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_package_runs_without_importing_numpy():
    # a fresh interpreter, so modules the test suite imported do not count
    src = Path(bhneumann.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


BENCH_TOY_SCRIPT = """
import json
import run
for trace in (False, True):
    _, result = run.run("toy", seed=1, seconds=0.1, trace=trace)
    zero = [name for name, m in result["metrics"].items()
            if m["value"] == 0 and name != "trace.overhead_ratio"]
    print(json.dumps({"trace": trace, "exit": run.exit_code(result), "zero": zero}))
"""


def test_benchmark_runs_clean_at_toy_sizes():
    # a fresh interpreter, since the harness reloads every bhneumann module;
    # the traced run patches every public name it measures, and at toy
    # sizes the harness itself does not require its metrics to be nonzero
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_TOY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=root,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results == [
        {"trace": False, "exit": 0, "zero": []},
        {"trace": True, "exit": 0, "zero": []},
    ], proc.stderr
