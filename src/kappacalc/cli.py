"""Command-line front end.

    kappacalc <command> <file> [--json] [--epsilon <real>]

Commands: validate, reduce, utility, rank, bridge.  Exit codes: 0 success,
1 a value in the file violates a calculus invariant, 2 the file cannot be
read or parsed, 3 an internal invariant broke (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import problemfile as pf
from .decision import maximin_rank, rank_acts
from .degrees import format_degree, format_signed
from .errors import KappaCalcError, ParseError
from .lottery import SimpleLottery
from .oom_bridge import EpsilonBase, order_agreement, spohnian_from_prob
from .problemfile import ProblemFile
from .utility import UtilityValue, evaluate, scalar_utility


def format_simple(lottery: SimpleLottery) -> str:
    """One line of prize:delta pairs, e.g. ``o1:4 o2:0 o3:0``."""
    return " ".join(
        f"{p}:{format_degree(d)}" for p, d in zip(lottery.prizes, lottery.deltas)
    )


def format_value(value: UtilityValue) -> str:
    return f"({format_degree(value.toward_best)}, {format_degree(value.toward_worst)})"


def _require(section, name: str, command: str):
    if section is None:
        raise ParseError(f"{command} needs a {name} section in the problem file")
    return section


def cmd_validate(text: str, json_mode: bool = False) -> tuple[int, str]:
    """Check every section; exit 0 only when the document is clean."""
    diagnostics = pf.validate_problem(text)
    if json_mode:
        return (0 if not diagnostics else 1), pf.dumps(pf.emit_diagnostics(diagnostics))
    if not diagnostics:
        return 0, "ok\n"
    return 1, "".join(f"{line}\n" for line in diagnostics)


def cmd_reduce(problem: ProblemFile, json_mode: bool = False) -> str:
    lottery = _require(problem.lottery, "lottery", "reduce")
    reduced = lottery.reduce()
    if json_mode:
        return pf.dumps(pf.emit_simple_lottery(reduced))
    return format_simple(reduced) + "\n"


def cmd_utility(problem: ProblemFile, json_mode: bool = False) -> str:
    lottery = _require(problem.lottery, "lottery", "utility")
    assessment = _require(problem.assessment, "assessment", "utility")
    value = evaluate(lottery, assessment)
    if json_mode:
        return pf.dumps(pf.emit_utility_value(value))
    return f"{format_value(value)}  u = {format_signed(scalar_utility(value))}\n"


def cmd_rank(problem: ProblemFile, json_mode: bool = False) -> str:
    decision = _require(problem.decision, "decision", "rank")
    utility_order = rank_acts(decision)
    maximin_order = maximin_rank(decision)
    if json_mode:
        return pf.dumps(pf.emit_ranking(utility_order, maximin_order, decision.prizes))
    lines = ["utility ranking:"]
    for act, value in utility_order:
        lines.append(
            f"  {act} {format_value(value)}  u = {format_signed(scalar_utility(value))}"
        )
    lines.append("maximin ranking:")
    for act, index in maximin_order:
        lines.append(f"  {act} worst {decision.prizes.prizes[index]}")
    disagree = utility_order[0][0] != maximin_order[0][0]
    lines.append(f"disagreement: {'yes' if disagree else 'no'}")
    return "".join(f"{line}\n" for line in lines)


def cmd_bridge(
    problem: ProblemFile, json_mode: bool = False, epsilon: Optional[float] = None
) -> str:
    prob = _require(problem.prob_lottery, "prob_lottery", "bridge")
    if epsilon is None:
        epsilon = problem.epsilon if problem.epsilon is not None else 10.0
    eps = EpsilonBase(epsilon)
    converted = spohnian_from_prob(prob, eps)
    report = order_agreement(prob, eps)
    if json_mode:
        return pf.dumps(pf.emit_bridge(converted, report))
    return (
        f"spohnian: {format_simple(converted)}\n"
        f"eu = {report.eu:.6g}\n"
        f"kappa(eu) = {format_degree(report.kappa_of_eu)}\n"
        f"qualitative = {format_degree(report.qualitative_eu)}\n"
        f"gap = {report.gap}\n"
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


if __name__ == "__main__":
    sys.exit(main())
