import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conftest
from kappacalc import (
    INF,
    DecisionProblem,
    DisbeliefFunction,
    Frame,
    Leaf,
    PrizeAssessment,
    PrizeSet,
    UtilityValue,
    act_lottery,
    find_maximin_disagreement,
    maximin_rank,
    rank_acts,
    scalar_utility,
    worst_prize_index,
)
from kappacalc.errors import (
    EmptyList,
    OutOfRange,
    UnknownAct,
    UnknownPrize,
    UnknownWorld,
)
from oracles import scan_act_lottery, scan_disagreement

O3 = PrizeSet(("o1", "o2", "o3"))
A3 = PrizeAssessment.from_map(O3, {"o1": (0, INF), "o2": (0, 1), "o3": (INF, 0)})


def ab_problem():
    states = Frame(("s1", "s2"))
    return DecisionProblem(
        acts=("A", "B"),
        outcome=(("o1", "o3"), ("o2", "o2")),
        belief=DisbeliefFunction(states, (0, 5)),
        assessment=A3,
    )


def earthquake_problem():
    prizes = PrizeSet(tuple(f"q{i}" for i in range(13)))
    pairs = [
        (0, INF), (0, 7), (0, 2), (0, 0), (2, 0), (3, 0), (4, 0),
        (6, 0), (9, 0), (11, 0), (14, 0), (18, 0), (21, 0),
    ]
    assessment = PrizeAssessment(prizes, tuple(UtilityValue(a, b) for a, b in pairs))
    states = Frame(tuple(f"s{i}" for i in range(13)))
    deltas = (4, 3, 2, 1, 0, 1, 2, 2, 3, 4, 5, 6, 7)
    return DecisionProblem(
        acts=("build",),
        outcome=(tuple(prizes),),
        belief=DisbeliefFunction(states, deltas),
        assessment=assessment,
    )


class TestProblemValidation:
    def test_outcome_must_cover_all_pairs(self):
        states = Frame(("s1", "s2"))
        with pytest.raises(UnknownWorld, match="has 1 entries, expected 2"):
            DecisionProblem(
                acts=("A",),
                outcome=(("o1",),),
                belief=DisbeliefFunction(states, (0, 0)),
                assessment=A3,
            )

    def test_outcome_rows_are_accepted(self):
        states = Frame(("s1", "s2"))
        p = DecisionProblem(
            acts=("A",),
            outcome=[["o1", "o2"]],
            belief=DisbeliefFunction(states, (0, 0)),
            assessment=A3,
        )
        assert p.outcome == (("o1", "o2"),)

    def test_unknown_act_in_table(self):
        states = Frame(("s1",))
        with pytest.raises(UnknownAct, match="2 outcome rows for 1 acts"):
            DecisionProblem(
                acts=("A",),
                outcome=(("o1",), ("o1",)),
                belief=DisbeliefFunction(states, (0,)),
                assessment=A3,
            )

    def test_no_acts_is_an_empty_list(self):
        states = Frame(("s1",))
        with pytest.raises(EmptyList):
            DecisionProblem((), (), DisbeliefFunction(states, (0,)), A3)

    def test_states_and_prizes_come_from_belief_and_assessment(self):
        p = ab_problem()
        assert p.states is p.belief.frame
        assert p.prizes is p.assessment.prizes

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ((("o1", "zz"), ("o1",)), UnknownPrize, "prize 'zz' is not in the prize set"),
            ((("o1",), ("zz", "o1")), UnknownWorld,
             "outcome row for 'A' has 1 entries, expected 2"),
            ((("o1", "o2"), ("o1", "o2", "zz")), UnknownWorld,
             "outcome row for 'B' has 3 entries, expected 2"),
        ],
        ids=["bad-label-then-short-row", "short-row-then-bad-label", "long-second-row"],
    )
    def test_rows_are_refused_in_act_order(self, rows, error, message):
        # each row is checked for length, then labels, before the next row
        states = Frame(("s1", "s2"))
        with pytest.raises(error) as caught:
            DecisionProblem(("A", "B"), rows, DisbeliefFunction(states, (0, 1)), A3)
        assert type(caught.value) is error and str(caught.value) == message


class TestActLottery:
    def test_earthquake_row_recovers_table(self):
        p = earthquake_problem()
        assert act_lottery(p, "build").deltas == (4, 3, 2, 1, 0, 1, 2, 2, 3, 4, 5, 6, 7)

    def test_constant_act_is_prize_certainty(self):
        states = Frame(("s1", "s2"))
        p = DecisionProblem(
            ("c",),
            (("o2", "o2"),),
            DisbeliefFunction(states, (0, 3)),
            A3,
        )
        assert act_lottery(p, "c") == Leaf("o2", O3).reduce()

    def test_min_over_states_reaching_a_prize(self):
        states = Frame(("s1", "s2"))
        p = DecisionProblem(
            ("A",),
            (("o1", "o1"),),
            DisbeliefFunction(states, (0, 2)),
            A3,
        )
        assert act_lottery(p, "A").deltas == (0, INF, INF)

    def test_unknown_act(self):
        with pytest.raises(UnknownAct):
            act_lottery(ab_problem(), "Z")

    def test_always_normalized(self, rng):
        # S1 on the belief forces a zero delta whatever the table says
        for _ in range(100):
            prizes = conftest.random_prizes(rng)
            assessment = conftest.random_assessment(rng, prizes)
            belief = conftest.random_potential(rng, size=rng.randint(1, 6))
            acts = tuple(f"a{i}" for i in range(rng.randint(1, 3)))
            outcome = tuple(
                tuple(rng.choice(prizes.prizes) for _ in belief.frame) for _ in acts
            )
            p = DecisionProblem(acts, outcome, belief, assessment)
            for act in acts:
                assert min(act_lottery(p, act).deltas) == 0


    def test_matches_direct_min_over_states(self, rng):
        # some potentials are INF, and rows draw from a subset of the
        # prizes, so some prizes are reached only by INF states or not at all
        for _ in range(200):
            prizes = conftest.random_prizes(rng)
            assessment = conftest.random_assessment(rng, prizes)
            belief = conftest.random_potential(rng, size=rng.randint(1, 12))
            acts = tuple(f"a{i}" for i in range(rng.randint(1, 4)))
            reach = [rng.sample(prizes.prizes, rng.randint(1, len(prizes))) for _ in acts]
            outcome = tuple(tuple(rng.choice(r) for _ in belief.frame) for r in reach)
            p = DecisionProblem(acts, outcome, belief, assessment)
            for act, row in zip(acts, outcome):
                direct = tuple(
                    min((v for q, v in zip(row, belief.potential) if q == prize), default=INF)
                    for prize in prizes
                )
                assert act_lottery(p, act).deltas == direct

    def test_prize_reached_only_by_impossible_states(self):
        states = Frame(("s1", "s2", "s3"))
        p = DecisionProblem(
            ("A",),
            (("o1", "o3", "o1"),),
            DisbeliefFunction(states, (2, INF, 0)),
            A3,
        )
        assert act_lottery(p, "A").deltas == (0, INF, INF)

    def test_unknown_prize_names_first_bad_label(self):
        states = Frame(("s1", "s2", "s3", "s4"))
        belief = DisbeliefFunction(states, (0, 1, 2, 3))
        rows = (("o1", "o2", "o3", "o1"), ("o1", "zz", "o2", "aa"))
        with pytest.raises(UnknownPrize) as caught:
            DecisionProblem(("A", "B"), rows, belief, A3)
        assert str(caught.value) == "prize 'zz' is not in the prize set"
        # a label that cannot even be hashed is reported the same way
        rows = (("o1", ["o2"], "o3", "o1"),)
        with pytest.raises(UnknownPrize) as caught:
            DecisionProblem(("A",), rows, belief, A3)
        assert str(caught.value) == "prize ['o2'] is not in the prize set"


class TestFoldAgainstScan:
    @given(st.randoms(use_true_random=False), st.data())
    def test_every_act_lottery_is_the_min_over_its_row(self, rng, data):
        # potentials with ties and INF, one state or many, rows reaching
        # from one prize to all of them, a prize that only the most
        # disbelieved state reaches, and now and then a label that is no prize
        prizes = conftest.random_prizes(rng)
        potential = data.draw(st.lists(st.one_of(st.integers(0, 3), st.just(INF)),
                                       min_size=1, max_size=12), label="potential")
        potential[data.draw(st.integers(0, len(potential) - 1), label="zero")] = 0
        belief = DisbeliefFunction(Frame([f"s{i}" for i in range(len(potential))]), potential)
        rows = []
        for _ in range(data.draw(st.integers(1, 3), label="acts")):
            reach = data.draw(st.lists(st.sampled_from(prizes.prizes), min_size=1,
                                       unique=True), label="reach")
            rows.append([rng.choice(reach) for _ in potential])
            if data.draw(st.booleans(), label="last state alone"):
                last = max(range(len(potential)), key=lambda i: (potential[i], i))
                alone = [p for p in prizes if p not in rows[-1]]
                if alone:
                    rows[-1][last] = rng.choice(alone)
        bad = data.draw(st.sampled_from([None, None, None, "zz", ["o1"]]), label="bad")
        if bad is not None:
            row = rng.choice(rows)
            row[rng.randrange(len(row))] = bad
        acts = [f"a{i}" for i in range(len(rows))]
        assessment = conftest.random_assessment(rng, prizes)
        if bad is not None:
            with pytest.raises(UnknownPrize) as caught:
                DecisionProblem(acts, rows, belief, assessment)
            assert str(caught.value) == f"prize {bad!r} is not in the prize set"
            return
        problem = DecisionProblem(acts, rows, belief, assessment)
        for act in acts:
            assert act_lottery(problem, act) == scan_act_lottery(problem, act)


class TestRankings:
    def test_single_act_earthquake(self):
        ranked = rank_acts(earthquake_problem())
        assert [(a, v.pair()) for a, v in ranked] == [("build", (1, 0))]

    def test_utility_prefers_act_a(self):
        ranked = rank_acts(ab_problem())
        assert [a for a, _ in ranked] == ["A", "B"]
        assert scalar_utility(ranked[0][1]) == 5
        assert scalar_utility(ranked[1][1]) == 1

    def test_maximin_prefers_act_b(self):
        ranked = maximin_rank(ab_problem())
        assert ranked == [("B", 1), ("A", 2)]

    def test_tied_acts_keep_input_order(self):
        states = Frame(("s1", "s2"))
        p = DecisionProblem(
            ("X", "Y"),
            (("o1", "o2"), ("o1", "o2")),
            DisbeliefFunction(states, (0, 1)),
            A3,
        )
        assert [a for a, _ in rank_acts(p)] == ["X", "Y"]
        assert [a for a, _ in maximin_rank(p)] == ["X", "Y"]

    def test_top_act_stable_under_act_permutation(self):
        p = ab_problem()
        flipped = DecisionProblem(
            ("B", "A"),
            (p.outcome[1], p.outcome[0]),
            p.belief,
            p.assessment,
        )
        assert rank_acts(p)[0][0] == rank_acts(flipped)[0][0] == "A"
        assert maximin_rank(p)[0][0] == maximin_rank(flipped)[0][0] == "B"

    def test_worst_prize_index(self):
        assert worst_prize_index(Leaf("o1", O3).reduce()) == 0
        assert worst_prize_index(act_lottery(ab_problem(), "A")) == 2


class TestDisagreementSearch:
    def test_small_bounds_find_a_witness(self):
        problem = find_maximin_disagreement(3, 5)
        assert problem is not None
        top_u = rank_acts(problem)[0][0]
        top_m = maximin_rank(problem)[0][0]
        assert top_u != top_m

    def test_degenerate_spaces_have_none(self):
        assert find_maximin_disagreement(2, 0) is None

    def test_single_act_cannot_disagree(self):
        problem = earthquake_problem()
        assert rank_acts(problem)[0][0] == maximin_rank(problem)[0][0] == "build"

    def test_bad_bounds_rejected(self):
        with pytest.raises(OutOfRange, match=r"^need at least 2 prizes and a "
                           r"non-negative delta bound, got \(1, 5\)$"):
            find_maximin_disagreement(1, 5)
        with pytest.raises(OutOfRange, match=r"got \(3, -1\)$"):
            find_maximin_disagreement(3, -1)

    def test_environment_does_not_bound_the_search(self, monkeypatch):
        unset = find_maximin_disagreement(3, 5)
        monkeypatch.setenv("KAPPA_SEARCH_BOUND", "0")
        assert find_maximin_disagreement(3, 5) == unset

    def test_witness_construction_is_sound(self):
        # the returned problem's act lotteries really are the vectors the
        # search compared: A prefers utility, B prefers maximin, strictly
        problem = find_maximin_disagreement(3, 5)
        a_lot = act_lottery(problem, "A")
        b_lot = act_lottery(problem, "B")
        assert min(a_lot.deltas) == 0 and min(b_lot.deltas) == 0
        ranked = dict(rank_acts(problem))
        assert scalar_utility(ranked["A"]) > scalar_utility(ranked["B"])
        assert worst_prize_index(a_lot) > worst_prize_index(b_lot)


class TestSearchAgainstExhaustiveScan:
    # the scan compares every pair from two prizes up, so it also checks
    # that the search may skip r = 2
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 40])
    def test_same_problem_with_and_without_a_bound(self, monkeypatch, r, delta):
        # the arguments are the only bound: setting the retired
        # KAPPA_SEARCH_BOUND variable changes nothing
        expected = scan_disagreement(r, delta)
        assert find_maximin_disagreement(r, delta) == expected
        monkeypatch.setenv("KAPPA_SEARCH_BOUND", "0")
        assert find_maximin_disagreement(r, delta) == expected


class TestSearchBudget:
    @pytest.mark.parametrize("max_prizes, max_delta", [(3, 80), (2, 100_000)])
    def test_search_returns_within_a_second(self, max_prizes, max_delta):
        # a witness sits early in the first assessment with three prizes,
        # and two prizes need no scan at all
        start = time.perf_counter()
        found = find_maximin_disagreement(max_prizes, max_delta)
        elapsed = time.perf_counter() - start
        assert (found is None) == (max_prizes == 2)
        assert elapsed < 1, f"search took {elapsed:.2f} s"
