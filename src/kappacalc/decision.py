"""Acts over uncertain states: ranking by qualitative expected utility.

A decision problem pairs a disbelief function over states with an outcome
table mapping (act, state) to a prize.  Each act induces a simple lottery
(min of the state potentials reaching each prize), acts are ranked by the
scalar utility of that lottery, and a separate maximin ranking orders acts
by their worst reachable prize.  The two rules genuinely disagree;
`find_maximin_disagreement` builds the first witness of a bounded search.
"""

from __future__ import annotations

from operator import index
from collections.abc import Iterable

from .degrees import Frozen, INF, show
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


def find_maximin_disagreement(max_prizes: int, max_delta: int) -> DecisionProblem | None:
    """Search two-act problems for a qualitative-vs-maximin disagreement.

    Returns the first problem where the utility ranking strictly prefers
    one act and the maximin ranking strictly prefers the other, in this
    order: for r = 3.. prizes, each strictly decreasing run of scalars
    (the best prize pinned to +INF), then pairs (a, b) of normalized delta
    vectors in row-major order.  The two arguments bound the search, so
    None means the space they span holds no witness.

    A lottery is worth at least its worst reachable prize, and exactly
    that when it yields it for certain, so a has a witness b exactly when
    its utility is above the scalar of the prize before its worst.  Two
    prizes hold none, and with three a qualifies only with its worst prize
    at o3.  For d = max_delta >= 2 the first run (d, d - 1) makes (0, 1, 2)
    the first such a, worth d + 1, and (0, 0, INF) the first b, worth d.
    At d = 1 the runs (1, 0), (1, -1) and (1, -INF) hold no witness and
    (0, -1) does, with a = (0, 1, 1); at d = 0 no run holds one.
    """
    if max_prizes < 2 or max_delta < 0:
        raise OutOfRange("need at least 2 prizes and a non-negative delta bound, "
                         f"got {show((max_prizes, max_delta))}")
    if index(max_prizes) < 3 or (d := index(max_delta)) < 1:
        return None
    a, values = ((0, 1, 2), [(0, d), (0, d - 1)]) if d >= 2 else ((0, 1, 1), [(0, 0), (1, 0)])
    grid = [(i, j) for i in range(3) for j in range(3)]  # state s_ij has potential a_i + b_j
    belief = DisbeliefFunction(Frame([f"s{i + 1}{j + 1}" for i, j in grid]),
                               [a[i] + (0, 0, INF)[j] for i, j in grid])
    assessment = PrizeAssessment(PrizeSet(("o1", "o2", "o3")),
                                 [UtilityValue(*v) for v in [(0, INF), *values]])
    rows = ([f"o{i + 1}" for i, _ in grid], [f"o{j + 1}" for _, j in grid])
    return DecisionProblem(("A", "B"), rows, belief, assessment)
