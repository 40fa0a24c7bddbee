"""Reading problem files and writing command output.

A problem file is one JSON document with a required `prizes` list (best
first) and optional `assessment`, `lottery`, `decision`, and `prob_lottery`
sections; each command uses the sections it needs and ignores the rest.
A `notes` section is free-form and never interpreted; fixtures use it to
record the hand derivation of their expected values.
Infinity is spelled "inf" (the non-standard JSON Infinity literal is
rejected), degrees are plain integers, and reals appear only in the
probability section.

Two failure families, kept apart because the CLI maps them to different
exit codes: ParseError for a document whose shape is wrong (bad JSON,
wrong types, missing keys), KappaCalcError for a well-shaped document
whose values break a calculus invariant.  Both entry points decode, then
`_build_problem` builds; `validate_problem` collects the latter per section.

The emit_* functions below define each command's result document.  `--json`
prints the document and text mode reads its lines from it, so only this
module spells a degree or a scalar.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from .decision import DecisionProblem
from .degrees import Degree, Frozen, INF
from .disbelief import DisbeliefFunction, Frame
from .errors import KappaCalcError, OutOfRange, ParseError
from .lottery import Leaf, Lottery, Node, PrizeSet, SimpleLottery
from .oom_bridge import EpsilonBase, OrderAgreement, ProbLottery
from .utility import PrizeAssessment, UtilityValue, scalar_utility

KNOWN_SECTIONS = ("prizes", "assessment", "lottery", "decision", "prob_lottery", "notes")


class ProblemFile(Frozen):
    """The parsed sections of one problem document; an absent section is None."""

    __slots__ = _fields = ("prizes", "assessment", "lottery", "decision", "prob_lottery",
                           "epsilon")


def _reject_constant(name: str):
    raise ParseError(f"JSON constant {name} is not allowed; write \"inf\"")


def _load_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"{e.msg} (line {e.lineno}, column {e.colno})") from None
    except ValueError:  # int() refuses literals past sys.get_int_max_str_digits()
        raise ParseError("an integer literal has too many digits to decode") from None
    except RecursionError:
        raise ParseError("document nested too deeply to decode") from None


def _need(doc: dict, key: str, kind: type, where: str) -> object:
    if key not in doc:
        raise ParseError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _string_list(value: object, where: str) -> list[str]:
    if not isinstance(value, list) or not {str}.issuperset(map(type, value)):
        raise ParseError(f"{where}: expected a list of strings")
    return value


def degree_from_json(value: object, where: str) -> Degree:
    if value == "inf":
        return INF
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ParseError(f"{where}: expected a non-negative integer or \"inf\", got {value!r}")


def degree_to_json(value: Degree) -> object:
    if value == INF:
        return "inf"
    try:
        str(value)
    except ValueError:  # past sys.get_int_max_str_digits(), which this Python therefore has
        limit = sys.get_int_max_str_digits()
        raise OutOfRange(f"a degree of more than {limit} digits cannot be written") from None
    return int(value)


def _real_list(value: list, where: str) -> list[float]:
    if {float}.issuperset(map(type, value)):
        return value
    out = []
    try:
        for x in value:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ParseError(f"{where}: expected a number, got {x!r}")
            out.append(float(x))
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float") from None
    return out


def _parse_assessment(section: object, prizes: PrizeSet) -> PrizeAssessment:
    if not isinstance(section, dict):
        raise ParseError("assessment: expected an object mapping prize to [k1, kr]")
    mapping = {}
    for prize, pair in section.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"assessment: {prize!r} must map to a [k1, kr] pair")
        mapping[prize] = (
            degree_from_json(pair[0], f"assessment[{prize!r}]"),
            degree_from_json(pair[1], f"assessment[{prize!r}]"),
        )
    return PrizeAssessment.from_map(prizes, mapping)


def _entry_defect(entry: object) -> str:
    if not isinstance(entry, dict):
        return "expected an object with delta and child"
    extra = sorted(set(entry) - {"delta", "child"})
    return f"unknown keys {extra!r}" if extra else "needs both delta and child"


def _parse_lottery(section: object, prizes: PrizeSet) -> Lottery:
    """Build a tree without recursion, with one shared Leaf per prize label.

    A frame is (the entries left, index of the entry being built, branches,
    its degree); error locations are spelled out from the frames only on error.
    Each finished list goes to `Node._from_checked`, which trusts what this loop
    proved: tuple pairs, degrees int >= 0 or INF, the shared leaves or nodes built here.
    """
    if not isinstance(section, list):
        if isinstance(section, str):
            return Leaf(section, prizes)
        raise ParseError("lottery: expected a prize name or a list of branches")
    leaves = {p: Leaf(p, prizes) for p in prizes}
    stack: list[tuple[object, int, list, Degree]] = []

    def spot(i: int) -> str:
        return "lottery" + "".join(f"[{f[1]}].child" for f in stack) + f"[{i}]"

    entries, branches = enumerate(section), []
    while True:
        for i, entry in entries:
            try:
                delta, child = entry["delta"], entry["child"]
            except (KeyError, TypeError):
                raise ParseError(f"{spot(i)}: {_entry_defect(entry)}") from None
            if len(entry) != 2:
                raise ParseError(f"{spot(i)}: {_entry_defect(entry)}")
            if type(delta) is not int or delta < 0:
                delta = INF if delta == "inf" else degree_from_json(delta, f"{spot(i)}.delta")
            if type(child) is str:
                branches.append((delta, leaves.get(child) or Leaf(child, prizes)))
            elif type(child) is list:
                stack.append((entries, i, branches, delta))
                entries, branches = enumerate(child), []
                break
            else:
                raise ParseError(f"{spot(i)}.child: expected a prize name or a list of branches")
        else:
            node = Node._from_checked(branches, prizes)
            if not stack:
                for d in node.deltas:  # two long degrees on one path can sum past writing
                    degree_to_json(d)
                return node
            entries, _, branches, delta = stack.pop()
            branches.append((delta, node))


def _parse_decision(section: object, assessment: PrizeAssessment | None) -> DecisionProblem:
    if not isinstance(section, dict):
        raise ParseError("decision: expected an object")
    if assessment is None:
        raise ParseError("decision: needs an assessment section to rank against")
    states = _string_list(_need(section, "states", list, "decision"), "decision.states")
    potential = [degree_from_json(v, "decision.belief")
                 for v in _need(section, "belief", list, "decision")]
    acts = _string_list(_need(section, "acts", list, "decision"), "decision.acts")
    outcome = _need(section, "outcome", dict, "decision")
    known = set(acts)
    for act in outcome:
        if act not in known:
            raise ParseError(f"decision.outcome: unknown act {act!r}")
    # A missing or non-list row has no entries, so the build refuses it.  A
    # built problem has proved every label a prize; on a refusal the rows are
    # checked in act order, since a defect of shape outranks one of value.
    rows = [outcome[act] if isinstance(outcome.get(act), list) else () for act in acts]
    try:
        return DecisionProblem(acts, rows, DisbeliefFunction(Frame(states), potential), assessment)
    except KappaCalcError:
        for act in acts:
            if act not in outcome:
                raise ParseError(f"decision.outcome: no row for act {act!r}")
            row = _string_list(outcome[act], f"decision.outcome[{act!r}]")
            if len(row) != len(states):
                raise ParseError(
                    f"decision.outcome[{act!r}]: {len(row)} entries for {len(states)} states"
                )
        raise


def _parse_prob_lottery(section: object, prizes: PrizeSet) -> tuple[ProbLottery, EpsilonBase | None]:
    if not isinstance(section, dict):
        raise ParseError("prob_lottery: expected an object")
    probs = _real_list(_need(section, "probs", list, "prob_lottery"), "prob_lottery.probs")
    utils = _real_list(_need(section, "utils", list, "prob_lottery"), "prob_lottery.utils")
    epsilon = None
    if "epsilon" in section:
        epsilon = EpsilonBase(*_real_list([section["epsilon"]], "prob_lottery.epsilon"))
    return ProbLottery(prizes, probs, utils), epsilon


def parse_problem(text: str) -> ProblemFile:
    """Decode a problem document and build it, raising on the first defect of any kind."""
    return _build_problem(_load_json(text), None)


def validate_problem(text: str) -> list[str]:
    """Decode a problem document and list its calculus-invariant diagnostics by section.

    Shape defects still raise ParseError immediately; an empty list means
    the document is clean.
    """
    diagnostics: list[str] = []
    _build_problem(_load_json(text), diagnostics)
    return diagnostics


def _build_problem(doc: object, diagnostics: list[str] | None) -> ProblemFile | None:
    """Build a decoded document's sections in order.  With `diagnostics` None the
    first KappaCalcError raises; else each is appended and its section is None."""
    if not isinstance(doc, dict):
        raise ParseError("document: expected a JSON object at the top level")
    unknown = set(doc) - set(KNOWN_SECTIONS)
    if unknown:
        raise ParseError(f"document: unknown sections {sorted(unknown)!r}")

    def run(section: str, parse, *context):
        if section not in doc:
            return None
        try:
            return parse(doc[section], *context)
        except KappaCalcError as e:
            if diagnostics is None:
                raise
            diagnostics.append(f"{section}: {type(e).__name__}: {e}")
            return None

    _need(doc, "prizes", list, "document")
    prizes = run("prizes", lambda labels: PrizeSet(_string_list(labels, "prizes")))
    if prizes is None:
        return None
    assessment = run("assessment", _parse_assessment, prizes)
    lottery = run("lottery", _parse_lottery, prizes)
    decision = None
    if "decision" in doc and "assessment" in doc and assessment is None:  # only collecting
        diagnostics.append("decision: skipped (assessment section is invalid)")
    else:
        decision = run("decision", _parse_decision, assessment)
    prob, epsilon = run("prob_lottery", _parse_prob_lottery, prizes) or (None, None)
    return ProblemFile(prizes, assessment, lottery, decision, prob, epsilon)


# ---------------------------------------------------------------------------
# Command output: one result document per command.

def emit_simple_lottery(lottery: SimpleLottery) -> dict:
    return {
        "prizes": list(lottery.prizes),
        "deltas": [degree_to_json(d) for d in lottery.deltas],
    }


def emit_utility_value(value: UtilityValue) -> dict:
    scalar = scalar_utility(value)
    return {
        "value": [degree_to_json(value.toward_best), degree_to_json(value.toward_worst)],
        "scalar": "+inf" if scalar == INF else "-inf" if scalar == -INF else int(scalar),
    }


def emit_ranking(
    utility_order: list[tuple[str, UtilityValue]],
    maximin_order: list[tuple[str, int]],
    prizes: PrizeSet,
) -> dict:
    return {
        "utility": [
            {"act": act, **emit_utility_value(value)} for act, value in utility_order
        ],
        "maximin": [
            {"act": act, "worst_index": index, "worst_prize": prizes.prizes[index]}
            for act, index in maximin_order
        ],
        "disagreement": utility_order[0][0] != maximin_order[0][0],
    }


def emit_bridge(report: OrderAgreement) -> dict:
    return {
        "spohnian": emit_simple_lottery(report.spohnian),
        "kappa_of_eu": degree_to_json(report.kappa_of_eu),
        "qualitative_eu": degree_to_json(report.qualitative_eu),
        "gap": report.gap,
        "eu": report.eu,
    }


def emit_diagnostics(diagnostics: list[str]) -> dict:
    return {"ok": not diagnostics, "diagnostics": list(diagnostics)}


def dumps(doc: dict) -> str:
    """The one JSON serialization used everywhere: the bytes of `json.dumps(doc,
    sort_keys=True, indent=2, allow_nan=False)` and a newline, written directly
    since with an indent json runs a pure-Python encoder that leaves cycles."""
    return _encode(doc, "\n") + "\n"


def _encode(value: object, indent: str) -> str:
    """`value` as JSON text; `indent` is the line break and spaces of its own depth."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_encode(item, inner)}" for key, item in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if isinstance(value, list):
        items = [_quote(item) if type(item) is str else _encode(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
