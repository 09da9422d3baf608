"""CLI contract: exit codes, output bytes, config handling."""

import json
from pathlib import Path

import pytest

from bhneumann import SequenceSet, cli, growth
from bhneumann.cli import RunConfig, _Report, main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- config object -----------------------------------------------------------

def test_config_roundtrip():
    cfg = RunConfig(command="growth", profile="builtin", params={"c": 2.0}, n=7)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg


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


# --- exit code 2 paths ------------------------------------------------------------

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


@pytest.mark.parametrize(
    "config",
    [
        '{"profile": "toy", "params": {"slope": 1.5}}',
        '{"profile": "table", "params": {"values": [1e400]}}',
        '{"profile": "table", "params": {"values": ["nan"]}}',
        '{"profile": "table", "params": {"values": [true, 2.0]}}',
        '{"n": true, "seed": false}',
        '{"budget_ms": true}',
    ],
)
def test_bad_param_value_exits_2(capsys, tmp_path, config):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(config)
    rc, out, err = run(capsys, ["build", "--config", str(cfgfile), "--n", "3"])
    assert rc == 2
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
