"""Epistemic-belief calculus: disbelief degrees, min-plus lotteries,
qualitative utility, and the order-of-magnitude probability bridge.

Worlds are ranked by non-negative integer degrees of disbelief (0 = not
disbelieved, INF = impossible) instead of probabilities; lotteries carry
those degrees on their branches and are valued by a min-plus analogue of
expected utility.  See the README for the correspondence between this
algebra and ordinary probability via orders of magnitude.
"""

from .decision import (
    DecisionProblem,
    act_lottery,
    find_maximin_disagreement,
    maximin_rank,
    rank_acts,
    worst_prize_index,
)
from .degrees import INF, Degree, Signed, normalize_degrees
from .disbelief import DisbeliefFunction, Frame
from .errors import KappaCalcError, ParseError
from .lottery import (
    Leaf,
    Lottery,
    Node,
    PrizeSet,
    SimpleLottery,
    make_node,  # not in __all__: perfbench/run.py still imports it (ROADMAP B)
)
from .oom_bridge import (
    EpsilonBase,
    OrderAgreement,
    ProbLottery,
    agreement_bound,
    kappa_of,
    order_agreement,
    vnm_eu,
)
from .utility import (
    PrizeAssessment,
    UtilityValue,
    evaluate,
    scalar_utility,
    standard_equivalent,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Degree",
    "Signed",
    "normalize_degrees",
    "Frame",
    "DisbeliefFunction",
    "KappaCalcError",
    "ParseError",
    "PrizeSet",
    "SimpleLottery",
    "Leaf",
    "Node",
    "Lottery",
    "UtilityValue",
    "PrizeAssessment",
    "scalar_utility",
    "evaluate",
    "standard_equivalent",
    "DecisionProblem",
    "act_lottery",
    "rank_acts",
    "maximin_rank",
    "worst_prize_index",
    "find_maximin_disagreement",
    "EpsilonBase",
    "ProbLottery",
    "OrderAgreement",
    "kappa_of",
    "vnm_eu",
    "order_agreement",
    "agreement_bound",
    "__version__",
]
