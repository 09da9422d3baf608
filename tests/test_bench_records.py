"""The committed BENCH_*.json records: each parses and names what it measured and where."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_records_name_what_and_machine():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert len(paths) >= 7
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record.get("what"), str) and record["what"], path.name
        machine = record.get("machine")
        assert isinstance(machine, dict), path.name
        for key in ("cpu", "nproc", "python", "backend"):
            assert key in machine, (path.name, key)
