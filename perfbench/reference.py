"""Expected command output, computed without the code under test.

Lottery values come from the path-enumeration oracles in tests/oracles.py,
kappa values from its exact rational scan, and rankings from a direct
min over states.  Only the plain data constructors (Leaf, Node,
SimpleLottery, PrizeAssessment) are borrowed from kappacalc, because the
oracles take them.
The text and JSON layouts are written out here so any change in the
program's output bytes counts as a failure.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from kappacalc import Leaf, Node, PrizeAssessment, PrizeSet, agreement_bound
from oracles import path_sum_evaluate, path_sum_reduce, scan_kappa

INF = math.inf
BOUNDARY_RTOL = Fraction(1, 10**12)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def degree(raw):
    return INF if raw == "inf" else raw


def deg_json(d):
    return "inf" if d == INF else int(d)


def deg_text(d) -> str:
    return "inf" if d == INF else str(d)


def signed_json(s):
    return "+inf" if s == INF else "-inf" if s == -INF else int(s)


def signed_text(s) -> str:
    return str(signed_json(s))


def build_tree(section, prizes: PrizeSet):
    """Library tree for a lottery section, built bottom-up without recursion."""
    if isinstance(section, str):
        return Leaf(section, prizes)
    built = {}
    stack = [(section, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            built[id(node)] = Node(tuple(
                (degree(b["delta"]), Leaf(b["child"], prizes) if isinstance(b["child"], str)
                 else built.pop(id(b["child"])))
                for b in node
            ))
            continue
        stack.append((node, True))
        stack.extend((b["child"], False) for b in node if not isinstance(b["child"], str))
    return built[id(section)]


def assessment_pairs(doc) -> list[tuple]:
    return [tuple(degree(x) for x in doc["assessment"][p]) for p in doc["prizes"]]


def expect_validate(json_mode: bool) -> str:
    return dumps({"diagnostics": [], "ok": True}) if json_mode else "ok\n"


def expect_reduce(doc, tree, json_mode: bool) -> str:
    deltas = path_sum_reduce(tree).deltas
    if json_mode:
        return dumps({"prizes": doc["prizes"], "deltas": [deg_json(d) for d in deltas]})
    return " ".join(f"{p}:{deg_text(d)}" for p, d in zip(doc["prizes"], deltas)) + "\n"


def _value_lines(best, worst, json_mode):
    scalar = worst - best
    if json_mode:
        return {"value": [deg_json(best), deg_json(worst)], "scalar": signed_json(scalar)}
    return f"({deg_text(best)}, {deg_text(worst)})  u = {signed_text(scalar)}"


def expect_utility(doc, tree, json_mode: bool) -> str:
    pairs = dict(zip(doc["prizes"], assessment_pairs(doc)))
    assessment = PrizeAssessment.from_map(tree.prizes, pairs)
    vec = path_sum_evaluate(tree, assessment)
    out = _value_lines(vec.toward_best, vec.toward_worst, json_mode)
    return dumps(out) if json_mode else out + "\n"


def act_deltas(prizes, potential, rows) -> list[list]:
    """Per act, per prize: the min potential over the states reaching it."""
    table = []
    for row in rows:
        best = dict.fromkeys(prizes, INF)
        for prize, v in zip(row, potential):
            if v < best[prize]:
                best[prize] = v
        table.append([best[p] for p in prizes])
    return table


def utility_pair(deltas, pairs) -> tuple:
    return (min(d + b for d, (b, _) in zip(deltas, pairs)),
            min(d + w for d, (_, w) in zip(deltas, pairs)))


def worst_reached(deltas) -> int:
    return max(i for i, d in enumerate(deltas) if d != INF)


def expect_rank(doc, json_mode: bool) -> str:
    prizes = doc["prizes"]
    dec = doc["decision"]
    pairs = assessment_pairs(doc)
    table = act_deltas(prizes, [degree(x) for x in dec["belief"]],
                       [dec["outcome"][act] for act in dec["acts"]])
    utility = [(act, *utility_pair(deltas, pairs)) for act, deltas in zip(dec["acts"], table)]
    maximin = [(act, worst_reached(deltas)) for act, deltas in zip(dec["acts"], table)]
    utility.sort(key=lambda t: t[2] - t[1], reverse=True)
    maximin.sort(key=lambda t: t[1])
    disagree = utility[0][0] != maximin[0][0]
    if json_mode:
        return dumps({
            "utility": [{"act": a, **_value_lines(b, w, True)} for a, b, w in utility],
            "maximin": [{"act": a, "worst_index": i, "worst_prize": prizes[i]}
                        for a, i in maximin],
            "disagreement": disagree,
        })
    lines = ["utility ranking:"]
    lines += [f"  {a} {_value_lines(b, w, False)}" for a, b, w in utility]
    lines.append("maximin ranking:")
    lines += [f"  {a} worst {prizes[i]}" for a, i in maximin]
    lines.append(f"disagreement: {'yes' if disagree else 'no'}")
    return "".join(f"{line}\n" for line in lines)


def ref_kappa(p: float, eps: float, memo: dict):
    """kappa_of's contract: the exact scan, plus the 1e-12 boundary snap."""
    if p == 0:
        return INF
    key = (p, eps)
    if key not in memo:
        P, E = Fraction(p), Fraction(eps)
        k = scan_kappa(P, E)
        lower = 1 / E ** (k + 1)
        memo[key] = k + 1 if abs(P - lower) <= lower * BOUNDARY_RTOL else k
    return memo[key]


def expect_bridge(doc, eps: float, json_mode: bool, memo: dict) -> str:
    """Bridge output; raises AssertionError if the gap exceeds its bound."""
    section = doc["prob_lottery"]
    probs = [float(x) for x in section["probs"]]
    utils = [float(x) for x in section["utils"]]
    kappas = [ref_kappa(p, eps, memo) for p in probs]
    low = min(k for k in kappas if k != INF)
    spohnian = [k if k == INF else k - low for k in kappas]
    eu = math.fsum(p * u for p, u in zip(probs, utils))
    kappa_eu = ref_kappa(eu, eps, memo)
    terms = [ref_kappa(p, eps, memo) + ref_kappa(u, eps, memo)
             for p, u in zip(probs, utils) if u > 0]
    qualitative = min(terms) if terms else INF
    gap = 0 if kappa_eu == INF and qualitative == INF else kappa_eu - qualitative
    if abs(gap) > agreement_bound(len(probs), eps):
        raise AssertionError(f"gap {gap} exceeds the agreement bound")
    prizes = doc["prizes"]
    if json_mode:
        return dumps({
            "spohnian": {"prizes": prizes, "deltas": [deg_json(d) for d in spohnian]},
            "kappa_of_eu": deg_json(kappa_eu),
            "qualitative_eu": deg_json(qualitative),
            "gap": int(gap),
            "eu": eu,
        })
    return (
        "spohnian: " + " ".join(f"{p}:{deg_text(d)}" for p, d in zip(prizes, spohnian)) + "\n"
        f"eu = {eu:.6g}\n"
        f"kappa(eu) = {deg_text(kappa_eu)}\n"
        f"qualitative = {deg_text(qualitative)}\n"
        f"gap = {int(gap)}\n"
    )


def witness_disagrees(problem) -> bool:
    """Independent check of a search witness: utility and maximin each
    strictly prefer a different one of its two acts."""
    pairs = [(v.toward_best, v.toward_worst) for v in problem.assessment.values]
    table = act_deltas(problem.prizes.prizes, problem.belief.potential, problem.outcome)
    if len(table) != 2:
        return False
    scores = []
    for deltas in table:
        best, worst = utility_pair(deltas, pairs)
        scores.append((worst - best, worst_reached(deltas)))
    (ua, wa), (ub, wb) = scores
    return (ua > ub and wa > wb) or (ub > ua and wb > wa)
