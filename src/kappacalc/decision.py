"""Acts over uncertain states: ranking by qualitative expected utility.

A decision problem pairs a disbelief function over states with an outcome
table mapping (act, state) to a prize.  Each act induces a simple lottery
(min of the state potentials reaching each prize), acts are ranked by the
scalar utility of that lottery, and a separate maximin ranking orders acts
by their worst reachable prize.  The two rules genuinely disagree;
`find_maximin_disagreement` searches small problem spaces for a witness.
"""

from __future__ import annotations

import itertools
from operator import add
from collections.abc import Iterable, Iterator, Sequence

from .degrees import Degree, Frozen, INF, Signed, show
from .disbelief import DisbeliefFunction, Frame
from .errors import DuplicateLabel, EmptyList, OutOfRange, UnknownAct, UnknownWorld
from .lottery import PrizeSet, SimpleLottery
from .utility import (
    PrizeAssessment,
    UtilityValue,
    evaluate,
    scalar_utility,
)


class DecisionProblem(Frozen):
    """An outcome table plus beliefs over states and assessed prizes.

    `outcome` holds one row of prize labels per act, in act order, each
    with one entry per state of `belief.frame`, in frame order.  The table
    must be total and every label a prize of `assessment.prizes`.  Building
    the problem reads each label once: a row's set of prizes is checked
    against the prize set, then its states are walked least disbelieved
    first, so each prize's first state holds its minimum, until every prize
    in the set is seen.  Rows are refused in act order, length first.
    """

    _fields = ("acts", "outcome", "belief", "assessment")
    __slots__ = (*_fields, "_lotteries")

    def __init__(self, acts: Iterable[str], outcome: Iterable[Iterable[str]],
                 belief: DisbeliefFunction, assessment: PrizeAssessment):
        acts = tuple(acts)
        if not acts:
            raise EmptyList("a decision problem needs at least one act")
        if len(set(acts)) != len(acts):
            raise DuplicateLabel(f"act labels repeat: {show(acts)}")
        rows = tuple(outcome)
        if len(rows) != len(acts):
            raise UnknownAct(f"{len(rows)} outcome rows for {len(acts)} acts")
        prizes = assessment.prizes
        labels = frozenset(prizes.prizes)
        potential = belief.potential
        order = sorted(range(len(potential)), key=potential.__getitem__)
        table, lotteries = [], []
        for act, row in zip(acts, rows):
            row = tuple(row)
            if len(row) != len(potential):
                raise UnknownWorld(
                    f"outcome row for {show(act)} has {len(row)} entries, "
                    f"expected {len(potential)}"
                )
            try:
                reached = set(row)
            except TypeError:  # an unhashable label cannot be a prize either
                reached = None
            if reached is None or not labels.issuperset(reached):
                for prize in row:
                    prizes.index(prize)  # raises UnknownPrize on the first bad label
            low = {}
            for i in order:
                prize = row[i]
                if prize not in low:
                    low[prize] = potential[i]
                    if len(low) == len(reached):
                        break
            # S1 on the belief guarantees some state has potential 0, so the
            # prize it reaches gets delta 0 and no renormalization is needed.
            lotteries.append(SimpleLottery(prizes, tuple([low.get(p, INF) for p in prizes])))
            table.append(row)
        super().__init__(acts, tuple(table), belief, assessment)
        object.__setattr__(self, "_lotteries", tuple(lotteries))

    @property
    def states(self) -> Frame:
        return self.belief.frame

    @property
    def prizes(self) -> PrizeSet:
        return self.assessment.prizes


def act_lottery(problem: DecisionProblem, act: str) -> SimpleLottery:
    """The simple lottery an act induces: per prize, min potential over
    the states that yield it; INF for prizes no state reaches."""
    if act not in problem.acts:
        raise UnknownAct(f"{show(act)} is not an act of this problem")
    return problem._lotteries[problem.acts.index(act)]


def rank_acts(problem: DecisionProblem) -> list[tuple[str, UtilityValue]]:
    """Acts with their qualitative expected utilities, best first.

    Sorting is stable, so equally good acts keep their input order.
    """
    ranked = [
        (act, evaluate(lottery, problem.assessment))
        for act, lottery in zip(problem.acts, problem._lotteries)
    ]
    ranked.sort(key=lambda pair: scalar_utility(pair[1]), reverse=True)
    return ranked


def worst_prize_index(lottery: SimpleLottery) -> int:
    """Index of the least preferred prize the lottery can actually yield."""
    return max(i for i, d in enumerate(lottery.deltas) if d != INF)


def maximin_rank(problem: DecisionProblem) -> list[tuple[str, int]]:
    """Acts ordered by their worst reachable prize, most preferred worst
    first; ties keep input order."""
    ranked = [
        (act, worst_prize_index(lottery))
        for act, lottery in zip(problem.acts, problem._lotteries)
    ]
    ranked.sort(key=lambda pair: pair[1])
    return ranked


def _value_for_scalar(s: Signed) -> UtilityValue:
    return UtilityValue(0, s) if s >= 0 else UtilityValue(-s, 0)


def _scored_vectors(r: int, domain: list[Degree], ups: Sequence[Degree],
                    downs: Sequence[Degree]) -> Iterator[tuple[tuple[Degree, ...], Signed, int]]:
    """Normalized delta vectors over r prizes with entries in `domain`, in
    product order, each with its scalar utility and worst prize index."""
    for vec in itertools.product(domain, repeat=r):
        if min(vec) == 0:
            w = r - 1
            while vec[w] == INF:
                w -= 1
            yield vec, min(map(add, vec, downs)) - min(map(add, vec, ups)), w


def _problem_from_vectors(
    r: int,
    scalars: Sequence[Signed],
    vec_a: tuple[Degree, ...],
    vec_b: tuple[Degree, ...],
) -> DecisionProblem:
    """Package two delta vectors as an explicit two-act problem.

    States form an r x r product grid s_ij with potential a_i + b_j, so
    act A's row recovers vector a and act B's recovers b after the min.
    """
    prizes = PrizeSet(tuple(f"o{i + 1}" for i in range(r)))
    assessment = PrizeAssessment(prizes, tuple(_value_for_scalar(s) for s in scalars))
    grid = list(itertools.product(range(r), repeat=2))  # (i, j) for each state s_ij
    belief = DisbeliefFunction(Frame([f"s{i + 1}{j + 1}" for i, j in grid]),
                               [vec_a[i] + vec_b[j] for i, j in grid])
    rows = ([prizes.prizes[i] for i, _ in grid], [prizes.prizes[j] for _, j in grid])
    return DecisionProblem(("A", "B"), rows, belief, assessment)


def find_maximin_disagreement(max_prizes: int, max_delta: int) -> DecisionProblem | None:
    """Search two-act problems for a qualitative-vs-maximin disagreement.

    Returns the first problem where the utility ranking strictly prefers
    one act and the maximin ranking strictly prefers the other, in this
    order: for r = 3.. prizes, each strictly decreasing run of scalars
    (the best prize pinned to +INF), then pairs (a, b) of normalized delta
    vectors in row-major order.  The two arguments bound the search, so
    None means the space they span holds no witness.

    A lottery is worth at least its worst reachable prize, and exactly
    that when it yields the prize for certain.  So below[w], the least
    utility of a vector whose worst index is under w, is the scalar of
    prize w - 1 (+INF for w <= 1), and a has a witness b exactly when
    below[w_a] < u_a.  No vector qualifies with two prizes.  For each run
    one lazy scan finds the first such a and one more its first b.
    """
    if max_prizes < 2 or max_delta < 0:
        raise OutOfRange(
            f"need at least 2 prizes and a non-negative delta bound, "
            f"got ({max_prizes}, {max_delta})"
        )
    for r in range(3, max_prizes + 1):  # so two prizes build nothing, whatever max_delta
        domain = list(range(max_delta + 1)) + [INF]
        ladder = list(range(max_delta, -max_delta - 1, -1)) + [-INF]
        for tail in itertools.combinations(ladder, r - 1):
            scalars = (INF,) + tail
            below = (INF,) + scalars[:-1]
            ups, downs = zip(*(_value_for_scalar(s).pair() for s in scalars))
            vectors = _scored_vectors(r, domain, ups, downs)
            a = next(((vec, u, w) for vec, u, w in vectors if below[w] < u), None)
            if a is not None:
                vec_a, u_a, w_a = a
                vec_b = next(vec for vec, u, w in _scored_vectors(r, domain, ups, downs)
                             if u < u_a and w < w_a)
                return _problem_from_vectors(r, scalars, vec_a, vec_b)
    return None
