"""README examples: the quickstart's stated values and the CLI lines run as written."""

import ast
import re
import shlex
from pathlib import Path

from bhneumann import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    rest = README[README.index(f"\n{heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def test_quickstart_values_match_comments():
    source = fenced_block("## Quickstart", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        # every bare expression states its value first in its comment: "# 15 distinct ..."
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
        stated = ast.literal_eval(comment.split()[0].rstrip(":"))
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == stated, ast.unparse(stmt)
        checked += 1
    assert checked >= 4


def test_cli_examples_exit_0(capsys):
    examples = [
        shlex.split(line)[3:]
        for line in fenced_block("## CLI", "sh").splitlines()
        if line.startswith("python3 -m bhneumann.cli ")
    ]
    assert sorted(argv[0] for argv in examples) == ["build", "growth", "oracle", "verify"]
    for argv in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == ""
