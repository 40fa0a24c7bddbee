"""Byte-for-byte replay of every command on every shipped problem file.

`tests/data/cli_golden.json` holds the exit code, stdout and stderr of
each fixture (`demos/problems/*.json`, `tests/data/*.json`) x command x
{text, --json}, run in-process through `cli.main`.  It was written once
from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and any change of output is a change of the CLI contract: regenerate it
only for an intended one, and say so.
"""

import contextlib
import io
import json
import sys

import pytest

from kappacalc import cli

from conftest import DATA, PROBLEMS, REPO

GOLDEN = DATA / "cli_golden.json"
COMMANDS = ("validate", "reduce", "utility", "rank", "bridge")


def fixtures() -> list[str]:
    files = sorted(PROBLEMS.glob("*.json")) + sorted(DATA.glob("*.json"))
    return [f.relative_to(REPO).as_posix() for f in files if f != GOLDEN]


def sweep_args() -> list[list[str]]:
    return [
        [command, name, *mode]
        for name in fixtures()
        for command in COMMANDS
        for mode in ([], ["--json"])
    ]


def replay(args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [args[0], str(REPO / args[1]), *args[2:]]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"args": args, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_covers_every_fixture():
    assert [case["args"] for case in CASES] == sweep_args()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_cli_output_is_unchanged(case):
    assert replay(case["args"]) == case


def test_json_formats_no_text_line(monkeypatch):
    def refuse(doc):
        raise AssertionError("a --json run formatted a text line")

    monkeypatch.setattr(cli, "_pairs", refuse)
    monkeypatch.setattr(cli, "_value", refuse)
    cases = [case for case in CASES if case["args"][2:] == ["--json"] and case["exit"] == 0]
    assert {case["args"][0] for case in cases} == set(COMMANDS)
    for case in cases:
        assert replay(case["args"]) == case


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    cases = [replay(args) for args in sweep_args()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN.relative_to(REPO)}")
