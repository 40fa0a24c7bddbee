"""Compare the CLI's exit codes and output bytes with another revision's.

    python tests/sameoutput.py REV

Exports src/ of the git revision REV (a commit, tag or branch) into a
temporary directory with `git archive`, then runs `python -m kappacalc` on
each argv twice: with PYTHONPATH at that export and with PYTHONPATH at the
working tree's src/, both from the repository root with COLUMNS=80.  The
argvs are every golden argv of tests/test_cli_golden.py and a fixed list that
argparse or the file reader answers.  The script prints each exit code,
stdout or stderr that differs in any byte, and exits 1 if one does, else 0.

It needs git and tar, the standard library, and pytest, which the golden
test module imports; pytest does not collect it.
"""

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
FIXED = [  # argparse answers all but the last, a file that does not exist
    [],
    ["--help"],
    ["bridge", "--help"],
    ["frobnicate", EARTHQUAKE],
    ["bridge", POWERS, "--epsilon", "x"],
    ["bridge", POWERS, "--epsilon=2"],
    ["utility", EARTHQUAKE, "--js"],
    ["reduce"],
    ["reduce", "does_not_exist.json"],
]


def outcome(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-m", "kappacalc", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python tests/sameoutput.py REV")
    rev = argv[0]
    argvs = sweep_args() + FIXED
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
        if archive.returncode:
            return 2  # git has said why
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        for args in argvs:
            old, new = outcome(Path(tmp) / "src", args), outcome(ROOT / "src", args)
            for what, before, after in zip(("exit code", "stdout", "stderr"), old, new):
                if before != after:
                    differences += 1
                    print(f"kappacalc {' '.join(args)}: {what}\n  {rev}: {before!r}\n"
                          f"  working tree: {after!r}")
    print(f"{len(argvs)} argvs, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
