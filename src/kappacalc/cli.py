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
from .problemfile import ProblemFile
from .utility import evaluate


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _pairs(doc: dict) -> str:  # a simple lottery document, e.g. "o1:4 o2:0 o3:inf"
    return " ".join(f"{p}:{d}" for p, d in zip(doc["prizes"], doc["deltas"]))


def _value(doc: dict) -> str:  # a utility document, e.g. "(0, inf)  u = +inf"
    return "({}, {})  u = {}".format(*doc["value"], doc["scalar"])


def _require(section, name: str, command: str):
    if section is None:
        raise ParseError(f"{command} needs a {name} section in the problem file")
    return section


def cmd_validate(text: str, json_mode: bool = False) -> tuple[int, str]:
    """Check every section; exit 0 only when the document is clean."""
    doc = pf.emit_diagnostics(pf.validate_problem(text))
    code = 0 if doc["ok"] else 1
    if json_mode:
        return code, pf.dumps(doc)
    return code, "ok\n" if doc["ok"] else _lines(*doc["diagnostics"])


def cmd_reduce(problem: ProblemFile, json_mode: bool = False) -> str:
    lottery = _require(problem.lottery, "lottery", "reduce")
    doc = pf.emit_simple_lottery(lottery.reduce())
    return pf.dumps(doc) if json_mode else _lines(_pairs(doc))


def cmd_utility(problem: ProblemFile, json_mode: bool = False) -> str:
    lottery = _require(problem.lottery, "lottery", "utility")
    assessment = _require(problem.assessment, "assessment", "utility")
    doc = pf.emit_utility_value(evaluate(lottery, assessment))
    return pf.dumps(doc) if json_mode else _lines(_value(doc))


def cmd_rank(problem: ProblemFile, json_mode: bool = False) -> str:
    decision = _require(problem.decision, "decision", "rank")
    doc = pf.emit_ranking(rank_acts(decision), maximin_rank(decision), decision.prizes)
    if json_mode:
        return pf.dumps(doc)
    return _lines(
        "utility ranking:",
        *[f"  {entry['act']} {_value(entry)}" for entry in doc["utility"]],
        "maximin ranking:",
        *[f"  {entry['act']} worst {entry['worst_prize']}" for entry in doc["maximin"]],
        f"disagreement: {'yes' if doc['disagreement'] else 'no'}",
    )


def cmd_bridge(
    problem: ProblemFile, json_mode: bool = False, epsilon: Optional[float] = None
) -> str:
    prob = _require(problem.prob_lottery, "prob_lottery", "bridge")
    if epsilon is None:
        epsilon = problem.epsilon if problem.epsilon is not None else 10.0
    doc = pf.emit_bridge(order_agreement(prob, EpsilonBase(epsilon)))
    if json_mode:
        return pf.dumps(doc)
    return _lines(
        f"spohnian: {_pairs(doc['spohnian'])}",
        f"eu = {doc['eu']:.6g}",
        f"kappa(eu) = {doc['kappa_of_eu']}",
        f"qualitative = {doc['qualitative_eu']}",
        f"gap = {doc['gap']}",
    )


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
            code, output = cmd_validate(text, args.json)
            sys.stdout.write(output)
            return code
        problem = pf.parse_problem(text)
        if args.command == "reduce":
            output = cmd_reduce(problem, args.json)
        elif args.command == "utility":
            output = cmd_utility(problem, args.json)
        elif args.command == "rank":
            output = cmd_rank(problem, args.json)
        else:
            output = cmd_bridge(problem, args.json, args.epsilon)
        sys.stdout.write(output)
        return 0
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except KappaCalcError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - reaching this is a bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
