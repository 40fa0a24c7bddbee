import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kappacalc import INF, normalize_degrees
from kappacalc.degrees import check_degree, is_degree
from kappacalc.errors import AllInfinite, ParseError
from kappacalc.problemfile import degree_from_json, emit_utility_value, parse_utility_value
from kappacalc.utility import UtilityValue

degrees = st.one_of(st.integers(min_value=0, max_value=10**6), st.just(INF))


def test_is_degree_accepts_naturals_and_inf():
    assert is_degree(0)
    assert is_degree(7)
    assert is_degree(10**30)
    assert is_degree(INF)
    assert is_degree(float("inf"))  # equal but not identical to INF


@pytest.mark.parametrize("bad", [-1, 1.5, 2.0, -INF, float("nan"), True, False, "3", None])
def test_is_degree_rejects_everything_else(bad):
    assert not is_degree(bad)
    with pytest.raises(TypeError):
        check_degree(bad)


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
    # the JSON utility emit/parse pair carries the signed scalar beside its pair
    for pair, scalar in [((0, INF), "+inf"), ((INF, 0), "-inf"), ((4, 0), -4)]:
        doc = emit_utility_value(UtilityValue(*pair))
        assert doc["scalar"] == scalar
        assert parse_utility_value(doc) == UtilityValue(*pair)


def test_inf_is_math_inf():
    assert INF == math.inf
