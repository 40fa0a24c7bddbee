"""The immutable value classes: pinned reprs, value equality and hashing,
no assignment after construction, and deep trees without recursion."""

import copy
import pickle
import time

import pytest

from kappacalc import (
    INF,
    DecisionProblem,
    DisbeliefFunction,
    EpsilonBase,
    Frame,
    Leaf,
    Lottery,
    Node,
    OrderAgreement,
    PrizeAssessment,
    PrizeSet,
    ProbLottery,
    SimpleLottery,
    UtilityValue,
)
from kappacalc import lottery
from kappacalc.errors import NotNormalized, PrizeSetMismatch
from kappacalc.oom_bridge import Epsilon
from kappacalc.problemfile import ProblemFile

P = "PrizeSet(prizes=('a', 'b', 'c'))"
F = "Frame(worlds=('s1', 's2'))"
D = f"DisbeliefFunction(frame={F}, potential=(0, 2))"
PA = (f"PrizeAssessment(prizes={P}, values=(UtilityValue(toward_best=0, toward_worst=inf), "
      "UtilityValue(toward_best=0, toward_worst=0), UtilityValue(toward_best=inf, toward_worst=0)))")
LB, LC = (f"Leaf(prize='{p}', prizes={P})" for p in "bc")
N = f"Node(branches=((0, {LB}), (inf, {LC})))"
DP = f"DecisionProblem(acts=('x',), outcome=(('a', 'c'),), belief={D}, assessment={PA})"
PL = f"ProbLottery(prizes={P}, probs=(0.5, 0.5, 0.0), utils=(1.0, 0.5, 0.0))"


def prizes():
    return PrizeSet(("a", "b", "c"))


def assessment():
    return PrizeAssessment(prizes(), (UtilityValue(0, INF), UtilityValue(0, 0),
                                      UtilityValue(INF, 0)))


def belief():
    return DisbeliefFunction(Frame(("s1", "s2")), (0, 2))


def node():
    return Node(((0, Leaf("b", prizes())), (INF, Leaf("c", prizes()))))


def decision():
    return DecisionProblem(("x",), (("a", "c"),), belief(), assessment())


def prob_lottery():
    return ProbLottery(prizes(), (0.5, 0.5, 0), (1, 0.5, 0))


# (make an instance, make one that differs, its repr, its derived slots)
CASES = {
    "PrizeSet": (prizes, lambda: PrizeSet(("a", "c")), P, ()),
    "Frame": (lambda: Frame(("s1", "s2")), lambda: Frame(("s2", "s1")), F, ()),
    "DisbeliefFunction": (belief, lambda: DisbeliefFunction(Frame(("s1", "s2")), (2, 0)),
                          D, ()),
    "UtilityValue": (lambda: UtilityValue(0, INF), lambda: UtilityValue(INF, 0),
                     "UtilityValue(toward_best=0, toward_worst=inf)", ()),
    "PrizeAssessment": (assessment, lambda: PrizeAssessment.from_map(
        prizes(), {"a": (0, INF), "b": (0, 1), "c": (INF, 0)}), PA, ()),
    "SimpleLottery": (lambda: SimpleLottery(prizes(), (0, 1, INF)),
                      lambda: SimpleLottery(prizes(), (1, 0, INF)),
                      f"SimpleLottery(prizes={P}, deltas=(0, 1, inf))", ()),
    "Leaf": (lambda: Leaf("b", prizes()), lambda: Leaf("c", prizes()), LB, ("slot",)),
    "Node": (node, lambda: Node(((0, Leaf("b", prizes())),)), N, ("prizes", "deltas")),
    "DecisionProblem": (decision, lambda: DecisionProblem(
        ("x",), (("a", "a"),), belief(), assessment()), DP, ("_lotteries",)),
    "EpsilonBase": (lambda: EpsilonBase(10), lambda: EpsilonBase(2),
                    "EpsilonBase(epsilon=10.0)", ()),
    "ProbLottery": (prob_lottery, lambda: ProbLottery(prizes(), (1, 0, 0), (1, 0.5, 0)),
                    PL, ()),
    "OrderAgreement": (lambda: OrderAgreement(SimpleLottery(prizes(), (0, 1, INF)), 1, 0, 1, 0.25),
                       lambda: OrderAgreement(SimpleLottery(prizes(), (0, 1, INF)), 1, 0, 1, 0.5),
                       f"OrderAgreement(spohnian=SimpleLottery(prizes={P}, deltas=(0, 1, inf)), "
                       "kappa_of_eu=1, qualitative_eu=0, gap=1, eu=0.25)", ()),
    "ProblemFile": (lambda: ProblemFile(prizes(), assessment(), node(), decision(),
                                        prob_lottery(), 2.0),
                    lambda: ProblemFile(prizes(), None, None, None, None, None),
                    f"ProblemFile(prizes={P}, assessment={PA}, lottery={N}, "
                    f"decision={DP}, prob_lottery={PL}, epsilon=2.0)", ()),
}


@pytest.mark.parametrize("name", CASES)
class TestValueClass:
    def test_repr_is_pinned(self, name):
        make, _, text, _ = CASES[name]
        assert repr(make()) == text

    def test_equal_values_are_equal_and_hash_alike(self, name):
        make, _, _, _ = CASES[name]
        a, b = make(), make()
        assert a is not b and type(a).__name__ == name
        assert a == b and not a != b and a == a
        assert hash(a) == hash(b)
        if name != "Node":  # a node hashes its composed degrees instead
            assert hash(a) == hash(tuple(getattr(a, f) for f in type(a)._fields))

    def test_different_values_differ(self, name):
        make, other, _, _ = CASES[name]
        a, b = make(), other()
        assert a != b and not a == b
        assert a != repr(a) and a.__eq__(repr(a)) is NotImplemented

    def test_no_assignment_or_deletion(self, name):
        make, _, text, derived = CASES[name]
        value = make()
        for attr in (*type(value)._fields, *derived, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert repr(value) == text

    def test_copy_and_pickle_round_trip(self, name):
        make, _, _, derived = CASES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
            for attr in derived:
                assert getattr(twin, attr) == getattr(value, attr)


def test_record_classes_take_one_value_per_field():
    # OrderAgreement and ProblemFile validate nothing, so Frozen stores their fields
    with pytest.raises(TypeError, match="^OrderAgreement takes 5 values, got 2$"):
        OrderAgreement(1, 2)
    with pytest.raises(TypeError, match="^ProblemFile takes 6 values, got 0$"):
        ProblemFile()


def test_union_aliases_check_instances():
    # Lottery and Epsilon are runtime unions, so isinstance accepts each member
    assert isinstance(Leaf("b", prizes()), Lottery) and isinstance(node(), Lottery)
    assert not isinstance(SimpleLottery(prizes(), (0, 1, 2)), Lottery)
    for eps in (EpsilonBase(10), 10.0, 10):
        assert isinstance(eps, Epsilon)
    assert not isinstance("10", Epsilon)


def chain(depth: int, prizes: PrizeSet) -> Node:
    tree = Leaf("a", prizes)
    worst = Leaf("b", prizes)
    for _ in range(depth):
        tree = Node(((0, tree), (1, worst)))
    return tree


def test_deep_chains_compare_print_and_hash_without_recursion():
    o = PrizeSet(("a", "b"))
    x, y = chain(100_000, o), chain(100_000, o)
    start = time.perf_counter()
    assert x == y and not x != y and hash(x) == hash(y)
    text = repr(x)
    assert time.perf_counter() - start < 10
    assert text.startswith("Node(branches=((0, Node(branches=((0, ")
    assert text.count("Node(") == 100_000
    assert text.endswith(", (1, Leaf(prize='b', prizes=PrizeSet(prizes=('a', 'b'))))))")
    # a change at the bottom is found, and the comparison stays iterative
    z = Node(((0, Leaf("b", o)), (1, Leaf("b", o))))
    for _ in range(100_000 - 1):
        z = Node(((0, z), (1, Leaf("b", o))))
    assert x != z


def test_deep_chain_copies_are_the_chain_itself():
    x = chain(100_000, PrizeSet(("a", "b")))
    start = time.perf_counter()
    assert copy.deepcopy(x) is x and copy.copy(x) is x
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("depth", [5_000, 100_000])
def test_deep_chains_pickle_without_recursion(depth):
    x = chain(depth, PrizeSet(("a", "b")))
    twin = pickle.loads(pickle.dumps(x))
    assert twin == x and twin.deltas == x.deltas


def test_shared_subtrees_pickle_once_and_stay_shared():
    o = PrizeSet(("a", "b"))
    tree = Node(((0, Leaf("a", o)), (5, Leaf("b", o))))
    for _ in range(60):  # 2**60 paths over 61 nodes
        tree = Node(((0, tree), (3, tree)))
    twin = pickle.loads(pickle.dumps(tree))
    assert twin == tree and twin.branches[0][1] is twin.branches[1][1]


class Table:
    """Pickles as the node that `Node.__reduce__`'s flat table `rows` lists."""

    def __init__(self, rows):
        self.rows = rows

    def __reduce__(self):
        return lottery._unflatten, (self.rows,)


@pytest.mark.parametrize(
    "row, branches, error",
    [
        (0, ((0, "a"), (-1, "b")), TypeError),
        (1, ((0, 0), (1, "other")), PrizeSetMismatch),
        (1, ((1, 0), (2, "c")), NotNormalized),
    ],
    ids=["negative-degree", "other-prize-set", "all-positive"],
)
def test_tampered_pickles_are_refused_as_node_refuses(row, branches, error):
    # unpickling builds through Node(...), so a table no Node could have
    # written is refused with Node's own error and message
    o = PrizeSet(("a", "b", "c"))
    leaves = {p: Leaf(p, o) for p in o} | {"other": Leaf("c", PrizeSet(("a", "b", "c", "d")))}
    tree = Node(((0, Node(((0, leaves["a"]), (2, leaves["b"])))), (1, leaves["c"])))
    _, (table,) = tree.__reduce__()
    assert pickle.loads(pickle.dumps(Table(table))) == tree
    table[row] = tuple([(d, c if type(c) is int else leaves[c]) for d, c in branches])
    with pytest.raises(error) as direct:
        nodes = []
        for rows in table:
            nodes.append(Node([(d, nodes[c] if type(c) is int else c) for d, c in rows]))
    with pytest.raises(error) as loaded:
        pickle.loads(pickle.dumps(Table(table)))
    assert type(loaded.value) is type(direct.value) is error
    assert str(loaded.value) == str(direct.value)


def test_deep_repr_matches_the_nested_form():
    o = PrizeSet(("a", "b"))
    tree = chain(3, o)
    leaf_a, leaf_b = repr(Leaf("a", o)), repr(Leaf("b", o))
    expected = leaf_a
    for _ in range(3):
        expected = f"Node(branches=((0, {expected}), (1, {leaf_b})))"
    assert repr(tree) == expected
    assert repr(Node(((0, tree),))) == f"Node(branches=((0, {expected}),))"


def test_shared_dag_equality_is_linear():
    # 2**60 root-to-leaf paths over 61 distinct nodes on each side
    o = PrizeSet(("a", "b"))

    def dag(bottom):
        tree = Node(((0, Leaf("a", o)), (bottom, Leaf("b", o))))
        for _ in range(60):
            tree = Node(((0, tree), (3, tree)))
        return tree

    start = time.perf_counter()
    assert dag(5) == dag(5)
    assert dag(5) != dag(6)
    assert time.perf_counter() - start < 1


def test_structure_decides_equality_not_composed_degrees():
    o = PrizeSet(("a", "b"))
    a, b = Leaf("a", o), Leaf("b", o)
    flat = Node(((0, a), (2, b)))
    nested = Node(((0, a), (2, Node(((0, b),)))))
    assert flat.deltas == nested.deltas and hash(flat) == hash(nested)
    assert flat != nested
    assert Node(((0, a),)) != a and a != Node(((0, a),))

