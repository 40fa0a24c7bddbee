"""Command-line front end.

    kappacalc <command> <file> [--json] [--epsilon <real>]

Commands: validate, reduce, utility, rank, bridge.  Exit codes: 0 success, 1 a
value in the file violates a calculus invariant, 2 the file cannot be read or
parsed or the output cannot be written, 3 an internal invariant broke (a bug).

Each command builds one result document with a `problemfile` emitter: `--json`
prints it, and text mode prints lines read from its fields.  `_run` is the
process entry of `python -m kappacalc` and of the kappacalc script.
"""

from __future__ import annotations

import gc
import io
import sys

from . import problemfile as pf
from .decision import maximin_rank, rank_acts
from .errors import KappaCalcError, ParseError
from .oom_bridge import EpsilonBase, order_agreement
from .utility import evaluate


def _pairs(doc: dict) -> str:  # a simple lottery document, e.g. "o1:4 o2:0 o3:inf"
    return " ".join(f"{p}:{d}" for p, d in zip(doc["prizes"], doc["deltas"]))


def _value(doc: dict) -> str:  # a utility document, e.g. "(0, inf)  u = +inf"
    return "({}, {})  u = {}".format(*doc["value"], doc["scalar"])


def _document(command: str, text: str, epsilon: float | None) -> dict:
    """The result document of a command on a problem file's text."""
    if command == "validate":
        return pf.emit_diagnostics(pf.validate_problem(text))
    problem = pf.parse_problem(text)

    def section(name: str):
        value = getattr(problem, name)
        if value is None:
            raise ParseError(f"{command} needs a {name} section in the problem file")
        return value

    if command == "reduce":
        return pf.emit_simple_lottery(section("lottery").reduce())
    if command == "utility":
        return pf.emit_utility_value(evaluate(section("lottery"), section("assessment")))
    if command == "rank":
        decision = section("decision")
        return pf.emit_ranking(rank_acts(decision), maximin_rank(decision), decision.prizes)
    prob = section("prob_lottery")
    base = (problem.epsilon or EpsilonBase()) if epsilon is None else EpsilonBase(epsilon)
    return pf.emit_bridge(order_agreement(prob, base))


def _text(command: str, doc: dict) -> str:
    """Text mode: the lines read from a command's result document."""
    if command == "validate":
        lines = doc["diagnostics"] or ["ok"]
    elif command == "reduce":
        lines = [_pairs(doc)]
    elif command == "utility":
        lines = [_value(doc)]
    elif command == "rank":
        lines = [
            "utility ranking:",
            *[f"  {entry['act']} {_value(entry)}" for entry in doc["utility"]],
            "maximin ranking:",
            *[f"  {entry['act']} worst {entry['worst_prize']}" for entry in doc["maximin"]],
            f"disagreement: {'yes' if doc['disagreement'] else 'no'}",
        ]
    else:
        lines = [
            f"spohnian: {_pairs(doc['spohnian'])}",
            f"eu = {doc['eu']:.6g}",
            f"kappa(eu) = {doc['kappa_of_eu']}",
            f"qualitative = {doc['qualitative_eu']}",
            f"gap = {doc['gap']}",
        ]
    return "".join(f"{line}\n" for line in lines)


_COMMANDS = {  # name: help; only bridge takes --epsilon
    "validate": "parse a problem file and report every invariant violation",
    "reduce": "collapse the lottery tree to a simple lottery",
    "utility": "qualitative expected utility of the lottery",
    "rank": "rank acts by utility and by maximin, side by side",
    "bridge": "convert a probabilistic lottery and report the kappa gap",
}


def _plain(argv: list[str]) -> tuple[str, str, bool, float | None] | None:
    """argparse's (command, file, json, epsilon) for a plain argv, else None.

    Plain is a command, one file word not starting with "-", any number of
    --json and, for bridge, --epsilon X with X not starting with "-" and
    float(X) defined (the last one wins).  Help, abbreviations, --epsilon=X
    and every usage error are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    files, json_mode, epsilon = [], False, None
    words = iter(argv[1:])
    for word in words:
        if word == "--json":
            json_mode = True
        elif word == "--epsilon" and argv[0] == "bridge":
            value = next(words, "-")  # a missing X is refused like "-2"
            if value.startswith("-"):
                return None
            try:
                epsilon = float(value)
            except ValueError:
                return None
        elif word.startswith("-"):
            return None
        else:
            files.append(word)
    return (argv[0], files[0], json_mode, epsilon) if len(files) == 1 else None


def _parser():
    import argparse  # about 7 ms of start that a plain argv never pays

    parser = argparse.ArgumentParser(
        prog="kappacalc",
        description="Epistemic-belief calculus over lotteries ranked by "
        "degrees of disbelief.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name == "bridge":
            p.add_argument(
                "--epsilon",
                type=float,
                help="order-of-magnitude base (overrides the file; default 10)",
            )
    return parser


def _warn(message: str) -> None:  # the CLI's own messages
    if sys.stderr is not None:  # Python starts with none when descriptor 2 is closed
        print(message, file=sys.stderr)  # file=None would print to stdout


def _write(text: str) -> int:
    """Write `text` to stdout: 0, or 2 with the reason on stderr if stdout refuses it."""
    out = sys.stdout
    encoding = getattr(out, "encoding", None) or "utf-8"  # io.StringIO has None
    data = memoryview(text.encode(encoding, "backslashreplace"))  # such as \xe9 or \ud800
    try:
        if out is None:  # as for stderr, when descriptor 1 is closed
            raise OSError("Bad file descriptor")
        if not hasattr(out, "buffer"):  # io.StringIO takes the escaped text
            out.write(str(data, encoding))
            data = data[:0]
        out.flush()  # what the text layer holds goes first
        while data:  # so no byte waits in a buffer for the flush at exit to fail on
            taken = getattr(out.buffer, "raw", out.buffer).write(data)  # -u: buffer is raw
            if not taken:  # None: a non-blocking stream would block
                raise BlockingIOError("write could not complete without blocking")
            data = data[taken:]
    except OSError as e:  # a full disk, a closed pipe
        _warn(f"error: cannot write output: {e.strerror or e}")
        return 2
    return 0


def main(argv: list[str]) -> int:
    plain = _plain(argv)
    if plain is None:
        stdout, sys.stdout = sys.stdout, io.StringIO()  # argparse drops a failed write of --help
        try:
            args = _parser().parse_args(argv)
        except SystemExit as done:
            text, sys.stdout = sys.stdout.getvalue(), stdout
            if not done.code and _write(text):  # --help; a usage error is for stderr only
                return 2
            raise
        finally:
            sys.stdout = stdout
        plain = args.command, args.file, args.json, getattr(args, "epsilon", None)
    command, file, json_mode, epsilon = plain
    # One command's objects hold no cycles and reference counting frees them,
    # so the cyclic collector would only walk the growing tree: pause it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(file, "rb") as handle:
                text = handle.read().decode("utf-8")
        except OSError as e:
            raise ParseError(f"cannot read {file}: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"cannot read {file}: not valid UTF-8 at byte {e.start}") from None
        if "\r" in text:  # text mode's universal newlines, which JSON error lines count on
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        doc = _document(command, text, epsilon)
        out = pf.dumps(doc) if json_mode else _text(command, doc)
        return _write(out) or (0 if doc.get("ok", True) else 1)  # only validate's has "ok"
    except ParseError as e:
        _warn(f"parse error: {e}")
        return 2
    except KappaCalcError as e:
        _warn(f"error: {type(e).__name__}: {e}")
        return 1
    except Exception as e:  # reaching this is a bug
        _warn(f"internal error: {type(e).__name__}: {e}")
        return 3
    finally:
        if collecting:
            gc.enable()


def _run() -> None:
    """The process entry: exit with main's code for sys.argv, skipping the shutdown collections."""
    try:
        sys.exit(main(sys.argv[1:]))
    finally:  # frozen objects are left to the OS, which frees them with the process
        gc.freeze()
