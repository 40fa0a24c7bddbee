"""The acceptance gate: one test per acceptance criterion.

Each test prints a single CRITERION n: PASS line when it succeeds (pytest
reports the FAIL side); random suites are seeded so every run checks the
same instances, and the timed suites assert their own runtime budgets.

Each criterion's test fails on a one-line mutant of src/kappacalc:

1. cli.py `_value`: "({}, {})  u = {}" loses one of its two spaces.
2. lottery.py `Node`: a subtree's degrees compose as `(t := s)`, dropping
   the branch degree `d + s`.
3. utility.py `evaluate`: `min([d + v.toward_best ...` becomes
   `min([v.toward_best ...`.
4. lottery.py `Node`: the subtree fold's test gains `and j`, so no
   subtree lowers the first prize.
5. utility.py `scalar_utility`: `toward_worst - toward_best` becomes `+`.
6. lottery.py `Node`: a leaf branch's `if d < acc[child.slot]` becomes
   `if d > acc[child.slot] or acc[child.slot] == INF`, keeping the larger.
7. decision.py `find_maximin_disagreement`: `below[w] < u` becomes `<=`,
   which fails the non-equivalence test; `range(3, max_prizes + 1)`
   becomes `range(3, max_prizes + 2)`, which fails the two-prize test.
8. oom_bridge.py `order_agreement`: `k + kappa_of(u, eps)` becomes
   `k + 2 * kappa_of(u, eps)`.
9. disbelief.py `condition`: `normalize_degrees(kept)` becomes `kept`.

The summary test runs no library code, so no mutant applies to it.
"""

import itertools
import json
import math
import random
import time

from kappacalc import (
    INF,
    PrizeAssessment,
    PrizeSet,
    ProbLottery,
    SimpleLottery,
    UtilityValue,
    evaluate,
    find_maximin_disagreement,
    make_node,
    maximin_rank,
    order_agreement,
    rank_acts,
    scalar_utility,
    worst_prize_index,
)
from kappacalc import Leaf, Node, act_lottery, cli
from kappacalc.problemfile import parse_problem

from conftest import (
    PROBLEMS,
    problem_text,
    random_assessment,
    random_lottery,
    random_prizes,
    simple_node,
    value_for_scalar,
)
from oracles import compare_standard, path_sum_evaluate


def ok(n: int, label: str):
    print(f"CRITERION {n} ({label}): PASS")


def test_criterion_1_earthquake_reproduction(capsys):
    problem = parse_problem(problem_text("earthquake.json"))
    # the full command output, byte for byte
    assert cli.main(["utility", str(PROBLEMS / "earthquake.json")]) == 0
    assert capsys.readouterr().out == "(1, 0)  u = -1\n"
    value = evaluate(problem.lottery, problem.assessment)
    assert value == UtilityValue(1, 0)
    # "between intensity 3 and 4": the scalar sits strictly inside
    u3 = scalar_utility(problem.assessment.value_of("q3"))
    u4 = scalar_utility(problem.assessment.value_of("q4"))
    assert u3 == 0 and u4 == -2
    assert u4 < scalar_utility(value) < u3
    # < 1 ms for the evaluation itself (best of five timings)
    best = min(
        _timed(lambda: evaluate(problem.lottery, problem.assessment))
        for _ in range(5)
    )
    assert best < 1e-3, f"evaluate took {best * 1e3:.3f} ms"
    ok(1, "earthquake reproduction")


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_figure_reproduction():
    problem = parse_problem(problem_text("depth2_tree.json"))
    assert problem.lottery.reduce().deltas == (4, 0, 0)
    assert evaluate(problem.lottery, problem.assessment) == UtilityValue(0, 0)
    ok(2, "two-level tree reduce and evaluate")


def test_criterion_3_reduce_evaluate_consistency():
    rng = random.Random(1003)
    start = time.perf_counter()
    for _ in range(1000):
        prizes = random_prizes(rng)
        assessment = random_assessment(rng, prizes)
        tree = random_lottery(rng, prizes, depth=4, max_branch=5, max_delta=10)
        # the path enumeration shares no code with the library's fold
        expected = path_sum_evaluate(tree, assessment)
        direct = evaluate(tree, assessment)
        assert direct.pair() == expected
        assert evaluate(tree.reduce(), assessment).pair() == expected
        assert min(direct.pair()) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"suite took {elapsed:.2f} s"
    ok(3, f"1000 random lotteries, {elapsed:.2f} s")


def _subtree_slots(tree, path=()):
    yield path
    if isinstance(tree, Node):
        for i, (_, child) in enumerate(tree.branches):
            yield from _subtree_slots(child, path + (i,))


def _subtree_at(tree, path):
    for i in path:
        tree = tree.branches[i][1]
    return tree


def _replace_at(tree, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    branches = list(tree.branches)
    branches[i] = (branches[i][0], _replace_at(branches[i][1], rest, new))
    return Node(tuple(branches))


def _standard_assessment(rng, prizes):
    # best and worst pinned to the ends of the standard scale; the exact
    # two-branch equivalent exists only when worst maps to (INF, 0)
    ladder = list(range(12, -13, -1))
    mids = sorted(rng.sample(ladder, len(prizes) - 2), reverse=True)
    scalars = [INF, *mids, -INF]
    return PrizeAssessment(
        prizes, tuple(value_for_scalar(s) for s in scalars)
    )


def test_criterion_4_substitutability():
    rng = random.Random(1004)
    for _ in range(500):
        prizes = random_prizes(rng)
        assessment = _standard_assessment(rng, prizes)
        tree = random_lottery(rng, prizes, depth=3, max_branch=4)
        slots = list(_subtree_slots(tree))
        path = rng.choice(slots)
        sub = _subtree_at(tree, path)
        value = evaluate(sub, assessment)
        # the standard equivalent, embedded in the full prize set
        equivalent = make_node(
            [
                (value.toward_best, Leaf(prizes.best, prizes)),
                (value.toward_worst, Leaf(prizes.worst, prizes)),
            ]
        )
        assert evaluate(equivalent, assessment) == value
        swapped = _replace_at(tree, path, equivalent)
        assert evaluate(swapped, assessment) == evaluate(tree, assessment)
    ok(4, "500 subtree substitutions")


def test_criterion_5_order_isomorphism():
    # the standard-lottery case analysis (an oracle) against the library's scalar order
    grid = [UtilityValue(0, y) for y in [*range(21), INF]]
    grid += [UtilityValue(x, 0) for x in [*range(1, 21), INF]]
    for u in grid:
        for v in grid:
            su, sv = scalar_utility(u), scalar_utility(v)
            assert compare_standard(u, v) == (su > sv) - (su < sv)
    ok(5, f"exhaustive {len(grid)}x{len(grid)} grid")


def test_criterion_6_coarseness_witness():
    for kappa in range(11):
        for delta in range(11):
            for sigma in range(0, delta + 1):
                if sigma == 0:
                    prizes = PrizeSet(("top", "o", "bottom"))
                    assessment = PrizeAssessment.from_map(
                        prizes,
                        {"top": (0, INF), "o": (0, kappa), "bottom": (INF, 0)},
                    )
                    tree = make_node(
                        [(0, Leaf("o", prizes)), (delta, Leaf("o", prizes))]
                    )
                else:
                    prizes = PrizeSet(("top", "oi", "oj", "bottom"))
                    assessment = PrizeAssessment.from_map(
                        prizes,
                        {
                            "top": (0, INF),
                            "oi": (0, kappa + sigma),
                            "oj": (0, kappa),
                            "bottom": (INF, 0),
                        },
                    )
                    tree = simple_node(prizes, {"oi": 0, "oj": delta})
                assert evaluate(tree, assessment) == UtilityValue(0, kappa + sigma)
    ok(6, "kappa/sigma/delta grid")


def test_criterion_7_maximin_non_equivalence():
    start = time.perf_counter()
    witness = find_maximin_disagreement(3, 5)
    elapsed = time.perf_counter() - start
    assert witness is not None
    assert rank_acts(witness)[0][0] != maximin_rank(witness)[0][0]
    assert elapsed < 10, f"search took {elapsed:.2f} s"
    # the shipped fixture is itself a witness
    shipped = parse_problem(problem_text("ab_witness.json")).decision
    ranked = dict(rank_acts(shipped))
    assert rank_acts(shipped)[0][0] == "A"
    assert maximin_rank(shipped)[0][0] == "B"
    assert scalar_utility(ranked["A"]) > scalar_utility(ranked["B"])
    assert worst_prize_index(act_lottery(shipped, "A")) > worst_prize_index(
        act_lottery(shipped, "B")
    )
    ok(7, f"witness found in {elapsed:.2f} s; shipped fixture verified")


def test_criterion_7_two_prizes_never_disagree():
    # With two prizes the only normalized vector whose worst prize is o1 is
    # certainty of o1, worth +inf, so no act can beat it on utility.
    start = time.perf_counter()
    assert find_maximin_disagreement(2, 200) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"search took {elapsed:.2f} s"
    ok(7, f"no two-prize witness up to delta 200 ({elapsed:.2f} s)")


def test_criterion_8_oom_agreement_bound():
    # the paper's bound on |gap| for r prizes: ceil(log_eps r) + 1, where
    # ceil(log_eps r) is the least m with eps**m >= r
    rng = random.Random(1008)
    start = time.perf_counter()
    worst = 0.0
    for eps in (10, 2, 1.5, 1.01):
        for _ in range(10000):
            r = rng.randint(2, 6)
            prizes = PrizeSet(tuple(f"p{i}" for i in range(r)))
            raw = [rng.random() for _ in range(r)]
            total = sum(raw)
            probs = tuple(x / total for x in raw)
            mids = sorted((rng.random() for _ in range(r - 2)), reverse=True)
            utils = (1.0, *mids, 0.0)
            report = order_agreement(ProbLottery(prizes, probs, utils), eps)
            bound = next(m for m in itertools.count() if eps**m >= r) + 1
            assert abs(report.gap) <= bound, (eps, probs, utils, report)
            worst = max(worst, abs(report.gap) / bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"suite took {elapsed:.2f} s"
    # exact powers of the base with a unique minimizing exponent sum: gap 0
    for name in ("bridge_certainty.json", "bridge_powers.json"):
        problem = parse_problem(problem_text(name))
        eps = problem.epsilon if problem.epsilon is not None else 10.0
        assert order_agreement(problem.prob_lottery, eps).gap == 0
    quarters = ProbLottery(
        PrizeSet(("a", "b", "c")), (0.25, 0.5, 0.25), (1.0, 0.0, 0.0)
    )
    assert order_agreement(quarters, 2).gap == 0
    ok(8, f"10000 random lotteries at each of 4 bases, max |gap|/bound {worst:.2f}, "
          f"{elapsed:.2f} s; power fixtures exact")


def test_criterion_9_kappa_core_axioms():
    from kappacalc import DisbeliefFunction, Frame

    rng = random.Random(1009)
    checked = 0
    while checked < 1000:
        size = rng.randint(1, 7)
        frame = Frame(tuple(f"w{i}" for i in range(size)))
        values = [
            INF if rng.random() < 0.15 else rng.randint(0, 12) for _ in range(size)
        ]
        values[rng.randrange(size)] = 0
        fn = DisbeliefFunction(frame, tuple(values))
        a = tuple(w for w in frame if rng.random() < 0.5)
        b = tuple(w for w in frame if rng.random() < 0.5)
        union = tuple(set(a) | set(b))
        # S2: min-additivity over unions
        assert fn.degree(union) == min(fn.degree(a), fn.degree(b))
        # S1 after conditioning, plus the chain rule
        if fn.degree(a) != INF:
            cond = fn.condition(a)
            assert min(cond.potential) == 0
            both = tuple(set(a) & set(b))
            if fn.degree(both) != INF:
                # conditioning in two steps lands on the intersection
                assert cond.condition(b) == fn.condition(both)
        checked += 1
    ok(9, "1000 random potentials")


def test_acceptance_summary():
    # a memo of what the numbered criteria cover, kept next to the tests
    labels = {
        1: "earthquake table reproduces (1,0), strictly between q3 and q4",
        2: "two-level tree reduces to (4,0,0) and evaluates to (0,0)",
        3: "evaluate commutes with reduce on 1000 random lotteries",
        4: "substituting indifferent subtrees never changes the value",
        5: "three-case order equals scalar order on the full grid",
        6: "degree gaps below the branch degree are invisible",
        7: "utility and maximin rankings provably disagree",
        8: "kappa-of-EU stays within the documented gap bound",
        9: "disbelief axioms hold on random potentials",
    }
    assert len(labels) == 9
