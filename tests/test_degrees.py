import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kappacalc import (
    INF,
    DecisionProblem,
    DisbeliefFunction,
    EpsilonBase,
    Frame,
    Leaf,
    Node,
    PrizeAssessment,
    PrizeSet,
    ProbLottery,
    SimpleLottery,
    act_lottery,
    kappa_of,
    normalize_degrees,
)
from kappacalc.degrees import check_degree, check_degrees, show
from kappacalc.errors import (
    AllInfinite,
    DuplicateLabel,
    InvalidAssessment,
    NotNormalized,
    ParseError,
    OutOfRange,
    UnknownAct,
    UnknownPrize,
    UnknownWorld,
)
from kappacalc.problemfile import degree_from_json, emit_utility_value
from kappacalc.utility import UtilityValue

degrees = st.one_of(st.integers(min_value=0, max_value=10**6), st.just(INF))


def test_is_degree_accepts_naturals_and_inf():
    for value in (0, 7, 10**30, INF, float("inf")):  # float("inf") is equal but not identical to INF
        assert check_degree(value) is value


@pytest.mark.parametrize("bad", [-1, 1.5, 2.0, -INF, float("nan"), True, False, "3", None])
def test_is_degree_rejects_everything_else(bad):
    with pytest.raises(TypeError, match="not a disbelief degree"):
        check_degree(bad)


class Count(int):
    pass


@pytest.mark.parametrize("value, refused", [
    (True, "True"), (False, "False"), (-1, "-1"), (0.5, "0.5"), (INF, None), (0, None),
    (Count(3), None), (Count(-3), "-3"), (10**5000, None), (-(10**5000), "an int of 16610 bits"),
], ids=["True", "False", "-1", "0.5", "INF", "0", "int-subclass", "negative-int-subclass",
        "huge", "negative-huge"])
def test_check_degrees_answers_as_check_degree(value, refused):
    # the plain-int shortcut keeps check_degree's answer for every other value
    if refused is None:
        assert check_degrees([0, value])[1] is value
        return
    with pytest.raises(TypeError) as caught:
        check_degrees([0, value])
    assert str(caught.value) == (
        f"not a disbelief degree: {refused} (need a non-negative int or INF)")


def test_inf_saturates_under_plain_arithmetic():
    assert INF + 5 == INF
    assert 5 + INF == INF
    assert INF + INF == INF
    assert min(INF, 3) == 3
    assert min(INF, INF) == INF


@given(st.lists(degrees, min_size=1).filter(lambda v: any(x != INF for x in v)))
def test_normalize_shifts_minimum_to_zero(values):
    out = normalize_degrees(values)
    assert min(x for x in out if x != INF) == 0
    # infinite entries stay infinite, finite order is preserved
    for a, b in zip(values, out):
        assert (a == INF) == (b == INF)


@given(st.lists(degrees, min_size=1).filter(lambda v: any(x != INF for x in v)))
def test_normalize_is_idempotent(values):
    once = normalize_degrees(values)
    assert normalize_degrees(once) == once


def test_normalize_rejects_all_infinite():
    with pytest.raises(AllInfinite):
        normalize_degrees((INF, INF))


def test_degree_parsing_accepts_json_decoded_values():
    # a decoded document holds ints, with infinity spelled "inf"
    assert degree_from_json("inf", "here") == INF
    assert degree_from_json(5, "here") == 5
    for raw in ("-inf", 2.5, -1, True):
        with pytest.raises(ParseError, match=r"^here: expected a non-negative integer or \"inf\""):
            degree_from_json(raw, "here")


def test_signed_text_round_trip():
    # the JSON utility document carries the signed scalar beside its pair
    for pair, value, scalar in [((0, INF), [0, "inf"], "+inf"), ((INF, 0), ["inf", 0], "-inf"),
                                ((4, 0), [4, 0], -4)]:
        doc = emit_utility_value(UtilityValue(*pair))
        assert doc["scalar"] == scalar
        assert doc["value"] == value


HUGE = 10**5000  # past sys.get_int_max_str_digits(), so repr and str raise ValueError
AB = PrizeSet(("a", "b"))
ABC = PrizeSet(("a", "b", "c"))
PAIR = "(an int of 16610 bits, an int of 16610 bits)"


def one_act_problem():
    assessment = PrizeAssessment.from_map(AB, {"a": (0, INF), "b": (INF, 0)})
    return DecisionProblem(("x",), (("a",),), DisbeliefFunction(Frame(("s",)), (0,)), assessment)


@pytest.mark.parametrize("build, error, message", [
    (lambda: check_degree(-HUGE), TypeError,
     "not a disbelief degree: an int of 16610 bits (need a non-negative int or INF)"),
    (lambda: Node(((0, Leaf("a", AB)), (-HUGE, Leaf("b", AB)))), TypeError,
     "not a disbelief degree: an int of 16610 bits (need a non-negative int or INF)"),
    (lambda: UtilityValue(HUGE, HUGE), NotNormalized,
     "(an int of 16610 bits, an int of 16610 bits) is off the utility scale: "
     "one component must be 0"),
    (lambda: SimpleLottery(AB, (HUGE, HUGE)), NotNormalized,
     "S1 violated: minimum delta is an int of 16610 bits, expected 0"),
    (lambda: DisbeliefFunction(Frame(("x", "y")), (HUGE, HUGE)), NotNormalized,
     "S1 violated: minimum degree is an int of 16610 bits, expected 0"),
    (lambda: PrizeAssessment.from_map(ABC, {"a": (0, INF), "b": (0, HUGE), "c": (0, HUGE)}),
     InvalidAssessment, "utilities must strictly decrease with preference: "
     "b has an int of 16610 bits, c has an int of 16610 bits"),
    (lambda: PrizeSet((HUGE, HUGE)), DuplicateLabel, f"prize labels repeat: {PAIR}"),
    (lambda: AB.index(HUGE), UnknownPrize, "prize an int of 16610 bits is not in the prize set"),
    (lambda: Frame((HUGE, HUGE)), DuplicateLabel, f"frame labels repeat: {PAIR}"),
    (lambda: DisbeliefFunction(Frame(("s",)), (0,)).degree([HUGE]), UnknownWorld,
     "not in the frame: [an int of 16610 bits]"),
    (lambda: DecisionProblem((HUGE, HUGE), (), None, None), DuplicateLabel,
     f"act labels repeat: {PAIR}"),
    (lambda: act_lottery(one_act_problem(), HUGE), UnknownAct,
     "an int of 16610 bits is not an act of this problem"),
    (lambda: kappa_of([HUGE]), OutOfRange,
     "probability must be a real number, got [an int of 16610 bits]"),
    (lambda: EpsilonBase([HUGE]), OutOfRange,
     "epsilon must be a real number, got [an int of 16610 bits]"),
    (lambda: ProbLottery(AB, [[HUGE], 1], [1, 0]), OutOfRange,
     "probability must be a real number, got [an int of 16610 bits]"),
], ids=["check_degree", "Node", "UtilityValue", "SimpleLottery", "DisbeliefFunction",
        "PrizeAssessment", "PrizeSet", "PrizeSet.index", "Frame", "Frame.indices",
        "DecisionProblem", "act_lottery", "kappa_of", "EpsilonBase", "ProbLottery"])
def test_messages_name_the_size_of_ints_too_long_to_write(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


LEAF_B = "Leaf(prize='b', prizes=PrizeSet(prizes=('a', 'b')))"


@pytest.mark.parametrize("value, text", [
    (UtilityValue(0, HUGE), "UtilityValue(toward_best=0, toward_worst=an int of 16610 bits)"),
    (Node(((0, Leaf("b", AB)), (HUGE, Leaf("b", AB)))),
     f"Node(branches=((0, {LEAF_B}), (an int of 16610 bits, {LEAF_B})))"),
    (SimpleLottery(AB, (0, HUGE)),
     "SimpleLottery(prizes=PrizeSet(prizes=('a', 'b')), deltas=(0, an int of 16610 bits))"),
], ids=["UtilityValue", "Node", "SimpleLottery"])
def test_reprs_name_ints_too_long_to_write(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [(), ("a",), ("a", 1), [], [INF, "b"], (("a", 2), [3]), "x"])
def test_show_writes_what_repr_writes(value):
    assert show(value) == repr(value)


def test_inf_is_math_inf():
    assert INF == math.inf
