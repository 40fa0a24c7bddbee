"""The two-sided qualitative utility scale and min-plus expected utility.

A utility value is a pair (toward_best, toward_worst): the disbelief
degrees of a standard lottery over the best and worst reference prizes
that the holder is indifferent to.  Values live on the scale where
``min(toward_best, toward_worst) == 0``; the pair maps to a single signed
scalar ``toward_worst - toward_best``, which is an order isomorphism onto
the integers with both infinities.

Expected utility of a lottery is the min-plus analogue of the familiar
sum-of-products: branch degrees are *added* to child utilities and the
results are *minimized* componentwise.  `evaluate` reduces the lottery to
its simple form first and takes the two minima as plain degrees; their
pair provably lands back on the scale, and building the `UtilityValue`
is the runtime checkpoint for that closure.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .degrees import Degree, Frozen, INF, Signed, check_degree, show
from .errors import InvalidAssessment, NotNormalized, UnassessedPrize
from .lottery import Lottery, PrizeSet, SimpleLottery


class UtilityValue(Frozen):
    """A degree pair on the scale proper: min(toward_best, toward_worst) == 0."""

    __slots__ = _fields = ("toward_best", "toward_worst")

    def __init__(self, toward_best: Degree, toward_worst: Degree):
        check_degree(toward_best)
        check_degree(toward_worst)
        if min(toward_best, toward_worst) != 0:
            raise NotNormalized(
                f"({show(toward_best)}, {show(toward_worst)}) is off the utility scale: "
                "one component must be 0"
            )
        self._init(toward_best, toward_worst)

    def pair(self) -> tuple[Degree, Degree]:
        return (self.toward_best, self.toward_worst)


def scalar_utility(value: UtilityValue) -> Signed:
    """Collapse a pair to its signed scalar, toward_worst - toward_best.

    (0, INF) is the top of the scale (+INF), (INF, 0) the bottom (-INF);
    since one component is always 0, no INF - INF case can arise.
    """
    return value.toward_worst - value.toward_best


class PrizeAssessment(Frozen):
    """A standard-lottery value for every prize, consistent with preference.

    The best prize must be held with certainty, (0, INF).  Scalars must
    strictly decrease along the prize order; ties would silently break the
    monotonicity of the standard-lottery order.  The worst prize is *not*
    pinned to (INF, 0): assessments may be expressed against a reference
    best/worst pair wider than the prizes at hand, so the worst prize may
    carry any finite bottom value.
    """

    __slots__ = _fields = ("prizes", "values")

    def __init__(self, prizes: PrizeSet, values: Iterable[UtilityValue]):
        values = tuple(values)
        if len(values) != len(prizes):
            raise UnassessedPrize(f"{len(values)} values for {len(prizes)} prizes")
        for v in values:
            if not isinstance(v, UtilityValue):
                raise InvalidAssessment(f"assessment entries must be scale values, got {show(v)}")
        top = values[0]
        if top.pair() != (0, INF):
            raise InvalidAssessment(
                f"{prizes.best} must map to (0,inf), got "
                f"({show(top.toward_best)}, {show(top.toward_worst)})"
            )
        scalars = [scalar_utility(v) for v in values]
        for p, q, a, b in zip(prizes, list(prizes)[1:], scalars, scalars[1:]):
            if not a > b:
                raise InvalidAssessment(
                    f"utilities must strictly decrease with preference: "
                    f"{p} has {show(a)}, {q} has {show(b)}"
                )
        self._init(prizes, values)

    @classmethod
    def from_map(
        cls,
        prizes: PrizeSet,
        mapping: Mapping[str, UtilityValue | tuple[Degree, Degree]],
    ) -> "PrizeAssessment":
        """Build from a prize -> value mapping; bare pairs are accepted."""
        for p in mapping:
            prizes.index(p)
        missing = [p for p in prizes if p not in mapping]
        if missing:
            raise UnassessedPrize(f"no value for prizes: {show(missing)}")
        values = []
        for p in prizes:
            v = mapping[p]
            if not isinstance(v, UtilityValue):
                v = UtilityValue(*v)
            values.append(v)
        return cls(prizes, tuple(values))

    def value_of(self, prize: str) -> UtilityValue:
        return self.values[self.prizes.index(prize)]


def evaluate(lottery: Lottery | SimpleLottery, assessment: PrizeAssessment) -> UtilityValue:
    """Qualitative expected utility of a lottery under an assessment.

    Each prize's assessed value is shifted by the prize's degree and the
    results are minimized componentwise.  Addition distributes over min, so
    a tree is first reduced to its simple lottery and then valued flat.
    The minimum is converted back to a scale value, which asserts closure.
    """
    if lottery.prizes != assessment.prizes:
        raise UnassessedPrize("the assessment does not cover this lottery's prize set")
    terms = [(d, v) for d, v in zip(lottery.reduce().deltas, assessment.values) if d != INF]
    return UtilityValue(  # INF terms set no minimum, and adding one may overflow
        min([d + v.toward_best for d, v in terms if v.toward_best != INF], default=INF),
        min([d + v.toward_worst for d, v in terms if v.toward_worst != INF], default=INF),
    )


def standard_equivalent(
    lottery: Lottery | SimpleLottery, assessment: PrizeAssessment
) -> SimpleLottery:
    """The unique standard lottery (over best and worst prize) indifferent to this one."""
    value = evaluate(lottery, assessment)
    pair = PrizeSet((assessment.prizes.best, assessment.prizes.worst))
    return SimpleLottery(pair, value.pair())
