import time

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
    evaluate,
    make_node,
    normalize_degrees,
)
from kappacalc.errors import (
    DuplicateLabel,
    EmptyBranches,
    LengthMismatch,
    NotNormalized,
    PrizeSetMismatch,
    UnknownPrize,
)

from conftest import random_lottery, random_prizes, simple_node
from oracles import path_sum_evaluate, path_sum_reduce

O3 = PrizeSet(("o1", "o2", "o3"))


class TestPrizeSet:
    def test_order_and_lookup(self):
        assert O3.best == "o1"
        assert O3.worst == "o3"
        assert O3.index("o2") == 1
        assert len(O3) == 3
        with pytest.raises(UnknownPrize):
            O3.index("o9")

    def test_needs_two_distinct_prizes(self):
        with pytest.raises(LengthMismatch):
            PrizeSet(("only",))
        with pytest.raises(DuplicateLabel):
            PrizeSet(("a", "a"))


class TestSimpleLottery:
    def test_validation(self):
        with pytest.raises(LengthMismatch):
            SimpleLottery(O3, (0, 1))
        with pytest.raises(NotNormalized, match="S1"):
            SimpleLottery(O3, (1, 2, 3))

    def test_normalize_degrees_repairs_s1(self):
        sl = SimpleLottery(O3, normalize_degrees((4, 2, INF)))
        assert sl.deltas == (2, 0, INF)

    def test_lookup_and_reachability(self):
        sl = SimpleLottery(O3, (0, INF, 2))
        assert sl.reachable() == ("o1", "o3")

    def test_certain_lottery(self):
        assert Leaf("o2", O3).reduce().deltas == (INF, 0, INF)
        with pytest.raises(UnknownPrize):
            Leaf("zzz", O3).reduce()

    def test_simple_node_round_trip(self):
        sl = SimpleLottery(O3, (0, 3, INF))
        # one branch per prize, the INF one included, reduces back to itself
        assert simple_node(O3, dict(zip(O3, sl.deltas))).reduce() == sl


class TestTreeValidation:
    def test_leaf_checks_membership(self):
        with pytest.raises(UnknownPrize):
            Leaf("o9", O3)

    def test_node_needs_branches(self):
        with pytest.raises(EmptyBranches):
            Node(())

    def test_node_normalization(self):
        with pytest.raises(NotNormalized, match="S1"):
            make_node([(1, Leaf("o1", O3)), (2, Leaf("o2", O3))])

    def test_mixed_prize_sets_rejected(self):
        other = PrizeSet(("x", "y"))
        with pytest.raises(PrizeSetMismatch):
            make_node([(0, Leaf("o1", O3)), (0, Leaf("x", other))])

    def test_inf_branch_is_allowed(self):
        node = make_node([(0, Leaf("o1", O3)), (INF, Leaf("o3", O3))])
        assert node.reduce().deltas == (0, INF, INF)


class TestReduce:
    def test_leaf_reduces_to_certainty(self):
        assert Leaf("o1", O3).reduce() == SimpleLottery(O3, (0, INF, INF))

    def test_two_level_tree(self):
        # the worked two-level example: [[o1.4, o2.0, o3.0].0, [o1.0, o3.2].5]
        inner1 = simple_node(O3, {"o1": 4, "o2": 0, "o3": 0})
        inner2 = simple_node(O3, {"o1": 0, "o3": 2})
        tree = make_node([(0, inner1), (5, inner2)])
        assert tree.reduce().deltas == (4, 0, 0)

    def test_missing_branch_means_unreachable(self):
        sparse = simple_node(O3, {"o1": 0, "o3": 2})
        assert sparse.reduce().deltas == (0, INF, 2)

    def test_reduction_is_idempotent_on_depth_one(self):
        sl = SimpleLottery(O3, (0, 1, 2))
        assert sl.reduce() is sl

    def test_degenerate_chain_accumulates(self):
        # single-branch nodes stack their (necessarily 0) degrees
        tree = make_node([(0, make_node([(0, Leaf("o2", O3))]))])
        assert tree.reduce() == Leaf("o2", O3).reduce()

    def test_matches_path_oracle_on_random_trees(self, rng):
        for _ in range(300):
            prizes = random_prizes(rng)
            tree = random_lottery(rng, prizes, depth=4, max_branch=4)
            assert tree.reduce() == path_sum_reduce(tree)

    def test_degrees_past_the_float_range(self):
        # INF + 10**400 would convert the int to a float and overflow
        big = 10**400
        dead = simple_node(O3, {"o2": 0})  # (INF, 0, INF)
        far = simple_node(O3, {"o2": big, "o3": 0})  # (INF, big, 0)
        tree = make_node([(0, Leaf("o1", O3)), (big, dead), (INF, far)])
        assert tree.reduce().deltas == (0, big, INF)
        assert make_node([(0, tree), (big, far)]).reduce().deltas == (0, big, big)

    def test_reduce_normalized_even_with_inf_subtrees(self):
        # a subtree reachable only through an INF branch stays unreachable
        dead = simple_node(O3, {"o2": 0})
        tree = make_node([(0, Leaf("o1", O3)), (INF, dead)])
        assert tree.reduce().deltas == (0, INF, INF)


EQ3 = PrizeAssessment.from_map(O3, {"o1": (0, INF), "o2": (0, 2), "o3": (INF, 0)})


class TestDeepAndSharedTrees:
    def test_chain_of_depth_100000(self):
        # every level is (0, deeper) and (1, o3), the deeper child first
        tree = Leaf("o1", O3)
        for _ in range(100_000):
            tree = make_node([(0, tree), (1, Leaf("o3", O3))])
        assert tree.reduce().deltas == (0, INF, 1)
        assert evaluate(tree, EQ3).pair() == (0, 1)

    def test_shared_subtrees_match_path_oracles(self, rng):
        shared = simple_node(O3, {"o2": 0, "o3": 3})
        mid = make_node([(0, shared), (2, Leaf("o1", O3))])
        tree = make_node([(1, shared), (0, mid), (4, make_node([(0, mid), (2, shared)]))])
        assert tree.reduce() == path_sum_reduce(tree)
        assert evaluate(tree, EQ3).pair() == path_sum_evaluate(tree, EQ3)
        for _ in range(100):
            # each new node picks its children from every node built so far
            pool = [random_lottery(rng, O3, depth=2, max_branch=3) for _ in range(3)]
            for _ in range(8):
                n = rng.randint(1, 3)
                deltas = [0] + [rng.choice([0, 1, 4, INF]) for _ in range(n - 1)]
                pool.append(make_node(zip(deltas, rng.sample(pool, n))))
            dag = pool[-1]
            assert dag.reduce() == path_sum_reduce(dag)
            assert evaluate(dag, EQ3).pair() == path_sum_evaluate(dag, EQ3)

    def test_shared_subtree_is_walked_once(self):
        # 2**60 root-to-leaf paths over 61 distinct nodes
        tree = simple_node(O3, {"o1": 0, "o3": 5})
        for _ in range(60):
            tree = make_node([(0, tree), (3, tree)])
        assert tree.reduce().deltas == (0, INF, 5)
        assert evaluate(tree, EQ3).pair() == (0, 5)

    def test_hash_is_linear_and_needs_no_recursion(self):
        # hashing used to rehash every child: exponential on a shared DAG
        # (22 levels took seconds) and a RecursionError on a deep chain
        def dag():
            tree = simple_node(O3, {"o1": 0, "o3": 5})
            for _ in range(22):
                tree = make_node([(0, tree), (3, tree)])
            return tree

        def chain():
            tree = Leaf("o1", O3)
            for _ in range(5_000):
                tree = make_node([(0, tree), (1, Leaf("o3", O3))])
            return tree

        pairs = [(dag(), dag()), (chain(), chain())]
        start = time.perf_counter()
        for built, rebuilt in pairs:
            assert hash(built) == hash(rebuilt)
        assert time.perf_counter() - start < 1


O5 = PrizeSet(("o1", "o2", "o3", "o4", "o5"))
A, B, C = (Leaf(p, O3) for p in O3)
DEGREE = "not a disbelief degree: {} (need a non-negative int or INF)"
CHILD = "branch child must be a lottery, got {}"
MISMATCH = "branches draw prizes from different prize sets"
S1 = "S1 violated: minimum branch delta is {}, expected 0"


class TestConstruction:
    """A node composes its branches once, when it is built, and keeps every check."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_deltas_match_reduce_and_path_oracle(self, data):
        prizes = PrizeSet(tuple(f"p{i}" for i in range(data.draw(st.integers(2, 5)))))
        pool = [Leaf(p, prizes) for p in prizes]
        for _ in range(data.draw(st.integers(1, 7))):
            # children are drawn from every lottery built so far, so subtrees are shared
            n = data.draw(st.integers(1, 3))
            children = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            degrees = data.draw(st.lists(st.sampled_from([0, 1, 2, 5, INF]),
                                         min_size=n, max_size=n))
            degrees[data.draw(st.integers(0, n - 1))] = 0
            pool.append(Node(tuple(zip(degrees, children))))
        node = pool[-1]
        assert node.deltas == node.reduce().deltas == path_sum_reduce(node).deltas

    def test_list_pairs_and_generators_equal_tuple_pairs(self):
        inner = Node(((0, A), (2, C)))
        pairs = ((0, inner), (1, C), (INF, B))
        built = Node(pairs)
        for other in (
            Node([list(p) for p in pairs]),
            Node(tuple([list(p) for p in pairs])),
            Node(p for p in pairs),
            Node(list(pairs)),
            make_node([[0, inner], [1, C], [INF, B]]),
        ):
            assert other == built
            assert hash(other) == hash(built)
            assert type(other.branches) is tuple
            assert all(type(pair) is tuple for pair in other.branches)
            assert other.deltas == built.deltas == (0, INF, 1)

    def test_derived_fields_stay_out_of_repr(self):
        node = Node(((0, B),))
        assert repr(B) == "Leaf(prize='o2', prizes=PrizeSet(prizes=('o1', 'o2', 'o3')))"
        assert repr(node) == f"Node(branches=((0, {B!r}),))"
        assert B.slot == 1 and node.deltas == (INF, 0, INF)

    @pytest.mark.parametrize(
        "branches, error, message",
        [
            (((True, A),), TypeError, DEGREE.format(True)),
            (((0, A), (-1, B)), TypeError, DEGREE.format(-1)),
            (((0, A), (1.5, B)), TypeError, DEGREE.format(1.5)),
            (((0, A), (0.0, B)), TypeError, DEGREE.format(0.0)),
            (((0, A), (-INF, B)), TypeError, DEGREE.format(-INF)),
            (((0, "o1"),), TypeError, CHILD.format("'o1'")),
            (((0, A), (1, SimpleLottery(O3, (0, 1, 2)))), TypeError,
             CHILD.format(repr(SimpleLottery(O3, (0, 1, 2))))),
            (((0, A), (0, Leaf("o5", O5))), PrizeSetMismatch, MISMATCH),
            (((0, Leaf("o5", O5)), (0, A)), PrizeSetMismatch, MISMATCH),
            (((0, A), (0, Node(((0, Leaf("o4", O5)),)))), PrizeSetMismatch, MISMATCH),
            ((), EmptyBranches, "a lottery node needs at least one branch"),
            (((1, A), (2, B)), NotNormalized, S1.format(1)),
            (((INF, A), (INF, B)), NotNormalized, S1.format(INF)),
            # several defects: degree and type errors, then the prize set, then S1
            (((-1, "o1"),), TypeError, DEGREE.format(-1)),
            (((0, A), (1, "o2"), (-1, B)), TypeError, CHILD.format("'o2'")),
            (((0, Leaf("o5", O5)), (0, A), (-2, B)), TypeError, DEGREE.format(-2)),
            (((0, A), (0, Leaf("o5", O5)), (0, 7)), TypeError, CHILD.format(7)),
            (((1, A), (0, Leaf("o5", O5))), PrizeSetMismatch, MISMATCH),
            (((1, A), (2, "o2")), TypeError, CHILD.format("'o2'")),
        ],
        ids=["bool", "negative", "float", "float-zero", "minus-inf", "first-child",
             "later-child", "larger-leaf", "larger-first", "larger-node", "empty",
             "no-zero", "all-inf", "degree-then-child", "child-then-degree",
             "mismatch-then-degree", "mismatch-then-child", "mismatch-then-s1",
             "s1-then-child"],
    )
    def test_refusals(self, branches, error, message):
        with pytest.raises(error) as caught:
            Node(branches)
        assert type(caught.value) is error
        assert str(caught.value) == message
