from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacalc import (
    INF,
    Leaf,
    Node,
    PrizeAssessment,
    PrizeSet,
    SimpleLottery,
    UtilityValue,
    evaluate,
    make_node,
    scalar_utility,
    standard_equivalent,
)
from kappacalc.errors import (
    InvalidAssessment,
    NotNormalized,
    UnassessedPrize,
)

from conftest import random_assessment, random_lottery, random_prizes, simple_node
from oracles import compare_standard, path_sum_evaluate, path_sum_reduce

O3 = PrizeSet(("o1", "o2", "o3"))
A3 = PrizeAssessment.from_map(O3, {"o1": (0, INF), "o2": (0, 3), "o3": (INF, 0)})

# the full scale grid used for the order-isomorphism checks
B0_GRID = [UtilityValue(0, y) for y in [*range(21), INF]] + [
    UtilityValue(x, 0) for x in [*range(1, 21), INF]
]


class TestScale:
    def test_value_requires_a_zero_component(self):
        with pytest.raises(NotNormalized):
            UtilityValue(3, 5)
        with pytest.raises(NotNormalized):
            UtilityValue(INF, INF)

    def test_scalar_utility(self):
        assert scalar_utility(UtilityValue(0, INF)) == INF
        assert scalar_utility(UtilityValue(INF, 0)) == -INF
        assert scalar_utility(UtilityValue(0, 0)) == 0
        assert scalar_utility(UtilityValue(4, 0)) == -4
        assert scalar_utility(UtilityValue(0, 7)) == 7


class TestMinPlusOps:
    def test_branch_degree_adds_to_child(self):
        # a branch degree is added to every prize of its child; INF saturates
        child = simple_node(O3, {"o1": 0, "o2": 2})
        assert make_node([(0, Leaf("o3", O3)), (3, child)]).reduce().deltas == (3, 5, 0)
        assert make_node([(0, Leaf("o3", O3)), (INF, child)]).reduce().deltas == (INF, INF, 0)
        assert make_node([(0, child)]).reduce().deltas == (0, 2, INF)

    @given(
        st.sampled_from(["o1", "o2", "o3"]),
        st.one_of(st.integers(0, 30), st.just(INF)),
        st.randoms(use_true_random=False),
    )
    def test_add_distributes_over_min(self, prize, c, rng):
        # the kernel's Node(p at 0, L at c) is min(Leaf(p).reduce(), c + L), per prize
        sub = random_lottery(rng, O3, depth=3, max_branch=4)
        node = make_node([(0, Leaf(prize, O3)), (c, sub)])
        expected = tuple(
            min(a, c + b)
            for a, b in zip(Leaf(prize, O3).reduce().deltas, sub.reduce().deltas)
        )
        assert node.reduce().deltas == expected


class TestStandardOrder:
    def test_case_best_side(self):
        assert compare_standard(UtilityValue(0, 5), UtilityValue(0, 3)) == 1

    def test_case_across_zero(self):
        assert compare_standard(UtilityValue(0, 0), UtilityValue(2, 0)) == 1

    def test_case_worst_side(self):
        assert compare_standard(UtilityValue(3, 0), UtilityValue(5, 0)) == 1

    def test_reflexive(self):
        assert compare_standard(UtilityValue(3, 0), UtilityValue(3, 0)) == 0

    def test_agrees_with_scalar_order_on_grid(self):
        # exhaustive: the three-case rule is the order isomorphism
        for u in B0_GRID:
            for v in B0_GRID:
                su, sv = scalar_utility(u), scalar_utility(v)
                expected = (su > sv) - (su < sv)
                assert compare_standard(u, v) == expected, (u, v)


class TestWeakOrder:
    @given(st.randoms(use_true_random=False), st.integers(2, 6))
    def test_evaluate_orders_lotteries_completely_transitively_and_as_the_oracle(self, rng, n):
        # the paper's preference over lotteries is a weak order
        prizes = random_prizes(rng)
        assessment = random_assessment(rng, prizes)
        trees = [random_lottery(rng, prizes, depth=3, max_branch=4) for _ in range(n)]
        values = [evaluate(tree, assessment) for tree in trees]
        oracle = [path_sum_evaluate(tree, assessment) for tree in trees]
        order = [[compare_standard(u, v) for v in values] for u in values]
        for i, j, k in product(range(n), repeat=3):
            assert order[i][j] == -order[j][i]  # complete: 0 is indifference
            if order[i][j] >= 0 and order[j][k] >= 0:
                assert order[i][k] >= 0
            assert order[i][j] == compare_standard(oracle[i], oracle[j])


class TestWorstPrizeBound:
    @settings(derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_utility_lies_between_the_best_and_worst_reachable_prizes(self, rng):
        # the bound find_maximin_disagreement rests on: a lottery is worth
        # at least its worst reachable prize, exactly that when certain of it
        prizes = random_prizes(rng)
        assessment = random_assessment(rng, prizes)
        tree = random_lottery(rng, prizes, depth=3, max_branch=4)
        scalars = [scalar_utility(v) for v in assessment.values]
        reached = [i for i, d in enumerate(tree.reduce().deltas) if d != INF]
        assert reached == [i for i, d in enumerate(path_sum_reduce(tree).deltas) if d != INF]
        best, worst = scalars[reached[0]], scalars[reached[-1]]
        u = scalar_utility(evaluate(tree, assessment))
        assert worst <= u <= best
        oracle = path_sum_evaluate(tree, assessment)
        assert oracle.toward_worst - oracle.toward_best == u
        if isinstance(tree, Leaf):
            assert u == worst == best
        certain = Leaf(prizes.prizes[reached[-1]], prizes)
        assert scalar_utility(evaluate(certain, assessment)) == worst


class TestAssessment:
    def test_best_prize_pinned(self):
        with pytest.raises(InvalidAssessment, match="must map to"):
            PrizeAssessment.from_map(
                O3, {"o1": (0, 3), "o2": (0, 1), "o3": (INF, 0)}
            )

    def test_strict_monotonicity(self):
        with pytest.raises(InvalidAssessment, match="strictly decrease"):
            PrizeAssessment.from_map(
                O3, {"o1": (0, INF), "o2": (0, 1), "o3": (0, 1)}
            )

    def test_worst_prize_may_be_finite(self):
        # bottom value (21, 0) is legal: the scale's endpoints need not be hit
        a = PrizeAssessment.from_map(
            O3, {"o1": (0, INF), "o2": (0, 1), "o3": (21, 0)}
        )
        assert scalar_utility(a.value_of("o3")) == -21

    def test_every_prize_needed(self):
        with pytest.raises(UnassessedPrize):
            PrizeAssessment.from_map(O3, {"o1": (0, INF), "o3": (INF, 0)})

    def test_from_map_takes_pairs_only(self):
        # scale values go to the constructor, PrizeAssessment(prizes, values)
        with pytest.raises(TypeError):
            PrizeAssessment.from_map(O3, {"o1": UtilityValue(0, INF), "o2": (0, 1),
                                          "o3": (INF, 0)})

    @pytest.mark.parametrize("values, error, message", [
        ((UtilityValue(0, INF), UtilityValue(0, 1)), UnassessedPrize,
         "2 values for 3 prizes"),
        (((0, INF), (0, 1), (INF, 0)), InvalidAssessment,
         "assessment entries must be scale values, got (0, inf)"),
    ], ids=["one-value-too-few", "bare-pair"])
    def test_constructor_refuses(self, values, error, message):
        with pytest.raises(error) as caught:
            PrizeAssessment(O3, values)
        assert str(caught.value) == message

    def test_value_lookup(self):
        assert A3.value_of("o2") == UtilityValue(0, 3)


EARTHQUAKE_PAIRS = [
    (0, INF), (0, 7), (0, 2), (0, 0), (2, 0), (3, 0), (4, 0),
    (6, 0), (9, 0), (11, 0), (14, 0), (18, 0), (21, 0),
]
EARTHQUAKE_DELTAS = (4, 3, 2, 1, 0, 1, 2, 2, 3, 4, 5, 6, 7)


def earthquake():
    prizes = PrizeSet(tuple(f"q{i}" for i in range(13)))
    assessment = PrizeAssessment(
        prizes, tuple(UtilityValue(a, b) for a, b in EARTHQUAKE_PAIRS)
    )
    return SimpleLottery(prizes, EARTHQUAKE_DELTAS), assessment


class TestEvaluate:
    def test_earthquake_table(self):
        lottery, assessment = earthquake()
        assert evaluate(lottery, assessment) == UtilityValue(1, 0)

    def test_two_level_tree_with_assessed_middle_prize(self):
        inner1 = simple_node(O3, {"o1": 4, "o2": 0, "o3": 0})
        inner2 = simple_node(O3, {"o1": 0, "o3": 2})
        tree = make_node([(0, inner1), (5, inner2)])
        assert evaluate(tree, A3) == UtilityValue(0, 0)

    def test_leaves_take_assessed_values(self):
        assert evaluate(Leaf("o1", O3), A3) == UtilityValue(0, INF)
        assert evaluate(Leaf("o3", O3), A3) == UtilityValue(INF, 0)

    def test_simple_lottery_input(self):
        sl = SimpleLottery(O3, (0, INF, 5))
        assert evaluate(sl, A3) == UtilityValue(0, 5)

    def test_degrees_past_the_float_range(self):
        # 10**400 + INF would convert the int to a float and overflow
        big = 10**400
        assert evaluate(SimpleLottery(O3, (big, 0, big)), A3) == UtilityValue(0, 3)
        wide = PrizeAssessment.from_map(O3, {"o1": (0, INF), "o2": (0, 3), "o3": (big, 0)})
        assert evaluate(SimpleLottery(O3, (0, 1, INF)), wide) == UtilityValue(0, 4)
        assert evaluate(SimpleLottery(O3, (INF, big, 0)), wide) == UtilityValue(big, 0)

    def test_prize_set_must_match(self):
        other = PrizeSet(("x", "y"))
        sl = SimpleLottery(other, (0, 1))
        with pytest.raises(UnassessedPrize):
            evaluate(sl, A3)

    def test_matches_path_oracle_and_b0_closure(self, rng):
        for _ in range(250):
            prizes = random_prizes(rng)
            assessment = random_assessment(rng, prizes)
            tree = random_lottery(rng, prizes, depth=3, max_branch=4)
            value = evaluate(tree, assessment)
            assert min(value.pair()) == 0
            assert value.pair() == path_sum_evaluate(tree, assessment)

    def test_agrees_with_reduce(self, rng):
        for _ in range(250):
            prizes = random_prizes(rng)
            assessment = random_assessment(rng, prizes)
            tree = random_lottery(rng, prizes, depth=3, max_branch=4)
            assert evaluate(tree, assessment) == evaluate(tree.reduce(), assessment)


def branch_paths(node: Node, path: tuple = ()):
    """(path, degree, child) of every branch in the tree, path being branch indices."""
    for i, (d, child) in enumerate(node.branches):
        yield path + (i,), d, child
        if isinstance(child, Node):
            yield from branch_paths(child, path + (i,))


def with_branch(node: Node, path: tuple, change) -> Node:
    """The tree with change(degree, child) in place of the branch at path."""
    branches = list(node.branches)
    d, child = branches[path[0]]
    branches[path[0]] = change(d, child) if len(path) == 1 else (
        d, with_branch(child, path[1:], change))
    return Node(branches)


def scalars(tree: Node, assessment: PrizeAssessment) -> tuple:
    """The tree's scalar utility, from evaluate and from the path-sum oracle."""
    return (scalar_utility(evaluate(tree, assessment)),
            scalar_utility(UtilityValue(*path_sum_evaluate(tree, assessment))))


class TestMonotonicity:
    """A better prize, or less disbelief in the best prize, never lowers the utility."""

    @given(st.randoms(use_true_random=False), st.data())
    def test_a_prize_at_least_as_good_never_lowers_it(self, rng, data):
        prizes = random_prizes(rng)
        assessment = random_assessment(rng, prizes)
        tree = Node([(0, random_lottery(rng, prizes))])  # so every leaf ends a branch
        leaves = [(path, child) for path, _, child in branch_paths(tree)
                  if isinstance(child, Leaf)]
        path, leaf = data.draw(st.sampled_from(leaves), label="leaf")
        better = Leaf(prizes.prizes[data.draw(st.integers(0, leaf.slot), label="prize")], prizes)
        changed = with_branch(tree, path, lambda d, _: (d, better))
        for before, after in zip(scalars(tree, assessment), scalars(changed, assessment)):
            assert after >= before

    @given(st.randoms(use_true_random=False), st.data())
    def test_less_disbelief_in_the_best_prize_never_lowers_it(self, rng, data):
        prizes = random_prizes(rng)
        assessment = random_assessment(rng, prizes)
        best = Leaf(prizes.best, prizes)
        k = data.draw(st.one_of(st.integers(1, 20), st.just(INF)), label="k")
        tree = Node([(0, random_lottery(rng, prizes)), (k, best)])  # one such branch at least
        branches = [(path, d) for path, d, child in branch_paths(tree)
                    if isinstance(child, Leaf) and child.slot == 0 and d > 0]
        path, d = data.draw(st.sampled_from(branches), label="branch")
        lower = data.draw(st.integers(0, 20 if d == INF else d - 1), label="degree")
        changed = with_branch(tree, path, lambda _, child: (lower, child))  # its node keeps a 0
        for before, after in zip(scalars(tree, assessment), scalars(changed, assessment)):
            assert after >= before


class TestStandardEquivalent:
    def test_endpoints(self):
        eq = standard_equivalent(Leaf("o3", O3), A3)
        assert tuple(eq.prizes) == ("o1", "o3")
        assert eq.deltas == (INF, 0)

    def test_earthquake(self):
        lottery, assessment = earthquake()
        eq = standard_equivalent(lottery, assessment)
        assert tuple(eq.prizes) == ("q0", "q12")
        assert eq.deltas == (1, 0)

    def test_value_is_reinterpreted_as_deltas(self):
        inner1 = simple_node(O3, {"o1": 4, "o2": 0, "o3": 0})
        inner2 = simple_node(O3, {"o1": 0, "o3": 2})
        tree = make_node([(0, inner1), (5, inner2)])
        assert standard_equivalent(tree, A3).deltas == (0, 0)


class TestCoarseness:
    @settings(max_examples=40)
    @given(st.integers(0, 10), st.integers(1, 10), st.integers(0, 10))
    def test_small_degree_gaps_vanish(self, kappa, sigma, delta_extra):
        # neighbouring prizes sigma apart: a branch degree of at least sigma
        # makes the coarser prize invisible
        delta = sigma + delta_extra
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

    def test_zero_gap_is_the_same_prize(self):
        # sigma = 0 would need two equally preferred prizes; the calculus
        # models that as two branches to one prize
        tree = make_node([(0, Leaf("o2", O3)), (4, Leaf("o2", O3))])
        assert evaluate(tree, A3) == A3.value_of("o2")
