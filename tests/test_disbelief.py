import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacalc import INF, DisbeliefFunction, Frame, normalize_degrees
from kappacalc.errors import (
    AllInfinite,
    ConditionOnDisbelievedCertainty,
    DuplicateLabel,
    FrameMismatch,
    IncompleteGrouping,
    LengthMismatch,
    NotNormalized,
    UnknownWorld,
)

W3 = Frame(("a", "b", "c"))


@st.composite
def potentials(draw, max_size=6, max_degree=12):
    size = draw(st.integers(1, max_size))
    values = draw(
        st.lists(
            st.one_of(st.integers(0, max_degree), st.just(INF)),
            min_size=size,
            max_size=size,
        )
    )
    values[draw(st.integers(0, size - 1))] = 0
    frame = Frame(tuple(f"w{i}" for i in range(size)))
    return DisbeliefFunction(frame, tuple(values))


@st.composite
def potential_and_events(draw):
    fn = draw(potentials())
    picks = st.lists(st.booleans(), min_size=len(fn.frame), max_size=len(fn.frame))
    a = tuple(w for w, keep in zip(fn.frame, draw(picks)) if keep)
    b = tuple(w for w, keep in zip(fn.frame, draw(picks)) if keep)
    return fn, a, b


class TestFrame:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(LengthMismatch):
            Frame(())
        with pytest.raises(DuplicateLabel):
            Frame(("a", "a"))

    def test_lookup(self):
        assert "c" in W3
        assert W3.indices(("c", "a")) == (0, 2)
        with pytest.raises(UnknownWorld):
            W3.indices(("a", "z"))


class TestConstruction:
    def test_s1_enforced(self):
        with pytest.raises(NotNormalized, match="S1"):
            DisbeliefFunction(W3, (1, 2, 3))

    def test_all_infinite_rejected(self):
        with pytest.raises(AllInfinite):
            DisbeliefFunction(W3, (INF, INF, INF))

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            DisbeliefFunction(W3, (0, 1))

    def test_normalize_degrees_repairs_s1(self):
        fn = DisbeliefFunction(W3, normalize_degrees((3, 5, INF)))
        assert fn.potential == (0, 2, INF)


class TestDegree:
    def test_examples(self):
        fn = DisbeliefFunction(W3, (0, 2, INF))
        assert fn.degree(("a",)) == 0
        assert fn.degree(("b", "c")) == 2
        assert fn.degree(("c",)) == INF
        assert fn.degree(()) == INF
        assert fn.degree(("a", "b", "c")) == 0

    @given(potential_and_events())
    def test_s2_min_additivity(self, fae):
        fn, a, b = fae
        union = tuple(set(a) | set(b))
        assert fn.degree(union) == min(fn.degree(a), fn.degree(b))

    @given(potentials())
    def test_whole_frame_not_disbelieved(self, fn):
        assert fn.degree(tuple(fn.frame)) == 0


class TestCondition:
    def test_shifts_and_excludes(self):
        fn = DisbeliefFunction(W3, (0, 2, 5))
        cond = fn.condition(("b", "c"))
        assert cond.potential == (INF, 0, 3)

    def test_rejects_impossible_event(self):
        fn = DisbeliefFunction(W3, (0, 2, INF))
        with pytest.raises(ConditionOnDisbelievedCertainty):
            fn.condition(("c",))
        with pytest.raises(ConditionOnDisbelievedCertainty):
            fn.condition(())

    @given(potential_and_events())
    def test_s1_restored_after_conditioning(self, fae):
        fn, a, _ = fae
        if fn.degree(a) == INF:
            return
        cond = fn.condition(a)
        assert min(cond.potential) == 0

    @given(potential_and_events())
    def test_chain_rule(self, fae):
        # conditioning on A then on B equals conditioning on their intersection
        fn, a, b = fae
        both = tuple(set(a) & set(b))
        if fn.degree(a) == INF or fn.degree(both) == INF:
            return
        chained = fn.condition(a).condition(both)
        direct = fn.condition(both)
        assert chained == direct


class TestCombine:
    def test_pointwise_sum_then_renormalize(self):
        left = DisbeliefFunction(W3, (0, 2, INF))
        right = DisbeliefFunction(W3, (1, 0, 4))
        assert left.combine(right).potential == (0, 1, INF)

    def test_degrees_past_the_float_range(self):
        # 10**400 + INF would convert the int to a float and overflow
        left = DisbeliefFunction(W3, (0, 10**400, 0))
        right = DisbeliefFunction(W3, (0, INF, 5))
        assert left.combine(right).potential == (0, INF, 5)

    def test_frame_mismatch(self):
        other = DisbeliefFunction(Frame(("x", "y")), (0, 1))
        with pytest.raises(FrameMismatch):
            DisbeliefFunction(W3, (0, 1, 2)).combine(other)

    def test_contradictory_sources(self):
        left = DisbeliefFunction(W3, (0, INF, INF))
        right = DisbeliefFunction(W3, (INF, 0, INF))
        with pytest.raises(AllInfinite):
            left.combine(right)

    @given(potentials(), st.data())
    @settings(max_examples=60)
    def test_commutative_and_associative(self, fn, data):
        size = len(fn.frame)

        def sibling():
            values = list(
                data.draw(
                    st.lists(
                        st.one_of(st.integers(0, 12), st.just(INF)),
                        min_size=size,
                        max_size=size,
                    )
                )
            )
            values[data.draw(st.integers(0, size - 1))] = 0
            return DisbeliefFunction(fn.frame, tuple(values))

        other, third = sibling(), sibling()
        try:
            ab = fn.combine(other)
            assert ab == other.combine(fn)
            assert ab.combine(third) == fn.combine(other.combine(third))
        except AllInfinite:
            return


class TestMarginalize:
    def test_min_over_preimage(self):
        frame = Frame(("a1", "a2", "b1"))
        fn = DisbeliefFunction(frame, (2, 0, 1))
        coarse = fn.marginalize({"a1": "A", "a2": "A", "b1": "B"})
        assert tuple(coarse.frame) == ("A", "B")
        assert coarse.potential == (0, 1)

    def test_grouping_must_cover_frame(self):
        fn = DisbeliefFunction(W3, (0, 1, 2))
        with pytest.raises(IncompleteGrouping):
            fn.marginalize({"a": "A", "b": "A"})
        with pytest.raises(UnknownWorld):
            fn.marginalize({"a": "A", "b": "A", "c": "A", "z": "A"})

    @given(potentials())
    def test_collapse_to_point_gives_zero(self, fn):
        coarse = fn.marginalize({w: "all" for w in fn.frame})
        assert coarse.potential == (0,)


class TestBelief:
    def test_sign_convention(self):
        fn = DisbeliefFunction(W3, (0, 3, INF))
        assert fn.belief(("a",)) == 3  # complement is disbelieved to degree 3
        assert fn.belief(("b", "c")) == -3
        assert fn.belief(("a", "b")) == INF  # complement impossible
        assert fn.belief(("c",)) == -INF
        assert fn.belief(tuple(W3)) == INF
        assert fn.belief(()) == -INF

    def test_neither_believed_nor_disbelieved(self):
        fn = DisbeliefFunction(W3, (0, 0, 4))
        assert fn.belief(("a",)) == 0
        assert fn.belief(("b", "c")) == 0

    @given(potential_and_events())
    def test_antisymmetry(self, fae):
        fn, a, _ = fae
        complement = tuple(w for w in fn.frame if w not in a)
        assert fn.belief(a) == -fn.belief(complement)
