"""Compare the CLI's exit codes and output bytes with another revision's.

    python tests/sameoutput.py REV

Exports src/ of the git revision REV (a commit, tag or branch) into a
temporary directory with `git archive`, then runs `python -m kappacalc` on
each argv with PYTHONPATH at that export and with PYTHONPATH at the working
tree's src/, both from the repository root with COLUMNS=80.  Each pair runs
in both of stdout's buffering modes: once with PYTHONUNBUFFERED removed from
the environment and once with it set to 1.  The argvs are every golden argv
of tests/test_cli_golden.py, a fixed list for argparse, the file reader and
the plain --epsilon flag, and every command in both modes on a few files
written to the temporary directory for the file reader: CRLF and lone-CR line
breaks (the latter with a syntax error), a byte order mark, a byte that is not
UTF-8, and integer probabilities.  The script prints each exit code, stdout or
stderr that differs in any byte, with the buffering mode it differs in, and
exits 1 if one does, else 0.

It needs git and tar, the standard library, and pytest, which the golden
test module imports; pytest does not collect it.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

from test_cli_golden import sweep_args  # noqa: E402

EARTHQUAKE = "demos/problems/earthquake.json"
POWERS = "demos/problems/bridge_powers.json"
FIXED = [  # argparse answers the first eight, and cli.main's plain reader the rest
    [],
    ["--help"],
    ["bridge", "--help"],
    ["frobnicate", EARTHQUAKE],
    ["bridge", POWERS, "--epsilon", "x"],
    ["bridge", POWERS, "--epsilon=2"],
    ["utility", EARTHQUAKE, "--js"],
    ["reduce"],
    ["reduce", "does_not_exist.json"],
    ["bridge", POWERS, "--epsilon", "3"],  # the flag overrides the file's base
    ["bridge", POWERS, "--epsilon", "0.5"],  # a base refused with exit 1
]


def read_path_argvs(tmp: Path) -> list[list[str]]:
    """Every command, in text and --json, on files written into `tmp`."""
    doc = {
        **json.loads((ROOT / EARTHQUAKE).read_text(encoding="utf-8")),
        "decision": json.loads((ROOT / "demos/problems/earthquake_decision.json")
                               .read_text(encoding="utf-8"))["decision"],
        "prob_lottery": {"probs": [0] * 11 + [1, 0], "utils": [1] + [0] * 12, "epsilon": 2},
    }
    text = json.dumps(doc, indent=2).encode()
    files = {
        "crlf.json": text.replace(b"\n", b"\r\n"),
        "lone_cr_syntax.json": text.replace(b"\n", b"\r").replace(b'"epsilon"', b'"epsilon" 2,'),
        "bom.json": b"\xef\xbb\xbf" + text,
        "not_utf8.json": text.replace(b"\"notes\": [", b"\"notes\": [\"\xff\",", 1),
        "int_probs.json": json.dumps({"prizes": ["o1", "o2", "o3"], "prob_lottery": {
            "probs": [0, 1, 0], "utils": [1, 1, 0], "epsilon": 10}}).encode(),
    }
    argvs = []
    for name, raw in files.items():
        (tmp / name).write_bytes(raw)
        for command in ("validate", "reduce", "utility", "rank", "bridge"):
            argvs += [[command, str(tmp / name)], [command, str(tmp / name), "--json"]]
    return argvs


MODES = {"buffered": {}, "unbuffered": {"PYTHONUNBUFFERED": "1"}}


def outcome(src: Path, argv: list[str], mode: str) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), COLUMNS="80", **MODES[mode])
    proc = subprocess.run([sys.executable, "-m", "kappacalc", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python tests/sameoutput.py REV")
    rev = argv[0]
    differences = dict.fromkeys(MODES, 0)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = sweep_args() + FIXED + read_path_argvs(Path(tmp))
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
        if archive.returncode:
            return 2  # git has said why
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for mode in MODES:
            for args in argvs:
                old, new = outcome(Path(tmp) / "src", args, mode), outcome(ROOT / "src", args, mode)
                for what, before, after in zip(("exit code", "stdout", "stderr"), old, new):
                    if before != after:
                        differences[mode] += 1
                        print(f"kappacalc {' '.join(args)} ({mode}): {what}\n"
                              f"  {rev}: {before!r}\n  working tree: {after!r}")
    print(f"{len(argvs)} argvs, " + ", ".join(
        f"{count} differences {mode}" for mode, count in differences.items()))
    return 1 if any(differences.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
