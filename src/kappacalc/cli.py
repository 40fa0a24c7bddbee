"""Command-line front end.

    kappacalc <command> <file> [--json] [--epsilon <real>]

Commands: validate, reduce, utility, rank, bridge.  Exit codes: 0 success,
1 a value in the file violates a calculus invariant, 2 the file cannot be
read or parsed, 3 an internal invariant broke (a bug, not bad input).

Each command builds one result document with a `problemfile` emitter: `--json`
prints it, and text mode prints lines read from its fields.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import problemfile as pf
from .decision import maximin_rank, rank_acts
from .errors import KappaCalcError, ParseError
from .oom_bridge import EpsilonBase, order_agreement
from .utility import evaluate


def _pairs(doc: dict) -> str:  # a simple lottery document, e.g. "o1:4 o2:0 o3:inf"
    return " ".join(f"{p}:{d}" for p, d in zip(doc["prizes"], doc["deltas"]))


def _value(doc: dict) -> str:  # a utility document, e.g. "(0, inf)  u = +inf"
    return "({}, {})  u = {}".format(*doc["value"], doc["scalar"])


def _document(command: str, problem: pf.ProblemFile, epsilon: Optional[float]) -> dict:
    """The result document of reduce, utility, rank or bridge."""

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
    if epsilon is None:
        epsilon = problem.epsilon if problem.epsilon is not None else 10.0
    return pf.emit_bridge(order_agreement(prob, EpsilonBase(epsilon)))


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


@functools.cache  # built on the first main() call and shared after it: do not mutate
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappacalc",
        description="Epistemic-belief calculus over lotteries ranked by "
        "degrees of disbelief.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "validate": "parse a problem file and report every invariant violation",
        "reduce": "collapse the lottery tree to a simple lottery",
        "utility": "qualitative expected utility of the lottery",
        "rank": "rank acts by utility and by maximin, side by side",
        "bridge": "convert a probabilistic lottery and report the kappa gap",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if name == "bridge":
            p.add_argument(
                "--epsilon",
                type=float,
                default=None,
                help="order-of-magnitude base (overrides the file; default 10)",
            )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as e:
            raise ParseError(f"cannot read {args.file}: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"cannot read {args.file}: not valid UTF-8 at byte {e.start}") from None
        if args.command == "validate":
            doc = pf.emit_diagnostics(pf.validate_problem(text))
        else:
            doc = _document(args.command, pf.parse_problem(text), getattr(args, "epsilon", None))
        sys.stdout.write(pf.dumps(doc) if args.json else _text(args.command, doc))
        return 0 if doc.get("ok", True) else 1  # only validate's document has "ok"
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except KappaCalcError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # reaching this is a bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
