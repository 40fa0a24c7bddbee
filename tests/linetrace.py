"""List the lines of src/kappacalc that no in-process tier-1 test runs.

    python tests/linetrace.py [pytest arguments]

Runs the suite (by default all of tests/) in this process with a line tracer
set by `sys.settrace` and `threading.settrace`, tracing only code compiled from
src/kappacalc.  It then prints, per module, each executable line that never
ran, as `path:line: source`.  A line is executable when `co_lines()` of the
module's compiled code, or of a code object nested in it, maps an
instruction to it.

The script exits 1 when a line never ran and 0 when every line did, whatever
the tests' own results: the tracer slows the suite several-fold, so timed
tests may go over their budgets.  The suite runs `python -m kappacalc`'s
entry in process too, through `runpy`.  The script uses the standard library
and pytest only; pytest does not collect it.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kappacalc"


def executable_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    mine: dict[types.CodeType, set[int] | None] = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in mine:
            name = code.co_filename
            mine[code] = ran.setdefault(name, set()) if name.startswith(prefix) else None
        return local(frame, event, arg) if mine[code] is not None else None

    def local(frame, event, arg):
        mine[frame.f_code].add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not run", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
