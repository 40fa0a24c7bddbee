"""Order-of-magnitude reading of probabilities, and the agreement check.

kappa_of(p) counts the leading zeros of p in base epsilon: floor of
-log_eps(p), closed on the right so that an exact power eps**-k maps to k,
with p up to relative 1e-12 above a boundary (float noise) snapped onto it:
floor(x + s) for x = -ln(p) / ln(eps), s = min(ln(1 + 1e-12) / ln(eps), 1).
The float x + s decides the class unless it lies within its error margin of
an integer; only there is the class certified exactly, on integer ratios.

The bridge then compares two ways of valuing a probabilistic lottery:
kappa of its quantitative expected utility, versus the min-plus combination
min_i(kappa(p_i) + kappa(u_i)).  They agree only up to a bounded gap;
order_agreement reports the gap instead of pretending it is zero.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Union

from .degrees import Degree, Frozen, INF, show
from .errors import LengthMismatch, NotNormalized, OutOfRange
from .lottery import PrizeSet, SimpleLottery

PROB_SUM_TOL = 1e-9
BOUNDARY_RTOL = 10**12  # p <= eps**-(k+1) * (1 + 1/BOUNDARY_RTOL) is in class k+1
_LOG_SNAP = math.log1p(1 / BOUNDARY_RTOL)
# The float x + s is within 3.5 * 2**-52 of its value, relative (the logs are
# within 1 ulp; 1e-12, the divisions and the sum round once each); 18x that:
_FLOAT_MARGIN = 2.0**-46


class EpsilonBase(Frozen):
    """The base of the order-of-magnitude scale; any real > 1."""

    __slots__ = _fields = ("epsilon",)

    def __init__(self, epsilon: float = 10.0):
        if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
            raise OutOfRange(f"epsilon must be a real number, got {epsilon!r}")
        if not 1 < epsilon <= sys.float_info.max:  # exact for ints; false for NaN
            raise OutOfRange(f"epsilon must be finite and > 1, got {show(epsilon)}")
        self._init(float(epsilon))


Epsilon = Union[EpsilonBase, float, int]


def _epsilon_value(eps: Epsilon) -> float:
    if isinstance(eps, EpsilonBase):
        return eps.epsilon
    return EpsilonBase(eps).epsilon


def kappa_of(p: float, eps: Epsilon = 10.0) -> Degree:
    """Degree of disbelief of probability p: floor(-log_eps(p)).

    0 maps to INF, 1 to 0; otherwise k such that eps**-(k+1) < p <= eps**-k,
    but p <= eps**-(k+1) * (1 + 1e-12) counts as eps**-(k+1), class k+1.
    The float floor(x + s) of the module docstring decides unless x + s is
    within 2**-46 * (x + s) of an integer.  There the class is certified
    exactly: for p = n/d, eps = n_e/d_e, p <= eps**-j iff n*n_e**j <= d*d_e**j.
    """
    e = _epsilon_value(eps)
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise OutOfRange(f"probability must be a real number, got {p!r}")
    if not 0 <= p <= 1:  # exact for ints; false for NaN
        raise OutOfRange(f"probability must lie in [0, 1], got {show(p)}")
    if p == 0:
        return INF
    if p == 1:
        return 0

    log_e = math.log(e)
    x = -math.log(p) / log_e
    y = x + min(_LOG_SNAP / log_e, 1.0)
    k = math.floor(y)
    margin = y * _FLOAT_MARGIN
    if margin < y - k < 1 - margin:
        return k
    n, d = p.as_integer_ratio()
    n_e, d_e = e.as_integer_ratio()
    k = max(math.floor(x), 0)
    num, den = n * n_e**k, d * d_e**k  # the one power; each step reuses it
    while num > den:  # p > eps**-k; p < 1 stops this at k = 0
        k -= 1
        num //= n_e
        den //= d_e
    while num * n_e <= den * d_e:  # p <= eps**-(k+1)
        k += 1
        num *= n_e
        den *= d_e
    if num * n_e * BOUNDARY_RTOL <= den * d_e * (BOUNDARY_RTOL + 1):
        return k + 1
    return k


def _real(x: object, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise OutOfRange(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int past the float range is outside [0, 1]
        raise OutOfRange(f"{what} out of [0, 1]: an int past the float range") from None


class ProbLottery(Frozen):
    """A probability vector and normalized prize utilities, in prize order.

    Probabilities are non-negative and sum to 1 within 1e-9.  Utilities
    are reals in [0, 1], weakly decreasing along the prize order, with the
    best prize at exactly 1 and the worst at exactly 0.
    """

    __slots__ = _fields = ("prizes", "probs", "utils")

    def __init__(self, prizes: PrizeSet, probs: Iterable[float], utils: Iterable[float]):
        probs = tuple([_real(p, "probability") for p in probs])
        utils = tuple([_real(u, "utility") for u in utils])
        r = len(prizes)
        if len(probs) != r:
            raise LengthMismatch(f"{len(probs)} probabilities for {r} prizes")
        if len(utils) != r:
            raise LengthMismatch(f"{len(utils)} utilities for {r} prizes")
        for p in probs:
            if math.isnan(p) or p < 0 or p > 1:
                raise OutOfRange(f"probability out of [0, 1]: {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
        for u in utils:
            if math.isnan(u) or u < 0 or u > 1:
                raise OutOfRange(f"utility out of [0, 1]: {u!r}")
        if utils[0] != 1.0:
            raise OutOfRange(f"best prize utility must be 1, got {utils[0]!r}")
        if utils[-1] != 0.0:
            raise OutOfRange(f"worst prize utility must be 0, got {utils[-1]!r}")
        for a, b in zip(utils, utils[1:]):
            if a < b:
                raise OutOfRange(
                    f"utilities must weakly decrease along the prize order: "
                    f"{a!r} before {b!r}"
                )
        self._init(prizes, probs, utils)


def spohnian_from_prob(lottery: ProbLottery, eps: Epsilon = 10.0) -> SimpleLottery:
    """Convert each probability to its kappa and renormalize.

    The floor can leave every kappa positive (all probabilities below
    1/eps), so the vector is shifted back onto the scale afterwards.
    """
    kappas = [kappa_of(p, eps) for p in lottery.probs]
    return SimpleLottery.from_raw(lottery.prizes, kappas)


def vnm_eu(lottery: ProbLottery) -> float:
    """Quantitative expected utility: the probability-utility dot product."""
    return math.fsum(p * u for p, u in zip(lottery.probs, lottery.utils))


class OrderAgreement(Frozen):
    """Both valuations of one lottery, and how far apart they landed.

    gap = kappa_of_eu - qualitative_eu.  When every positive-utility prize
    has probability 0 both sides are INF and the gap is 0 by convention:
    the valuations agree the lottery is worthless.
    """

    __slots__ = _fields = ("kappa_of_eu", "qualitative_eu", "gap", "eu")

    def __init__(self, kappa_of_eu: Degree, qualitative_eu: Degree, gap: int, eu: float):
        self._init(kappa_of_eu, qualitative_eu, gap, eu)


def order_agreement(lottery: ProbLottery, eps: Epsilon = 10.0) -> OrderAgreement:
    """Compare kappa of the expected utility with the min-plus valuation.

    Zero-utility prizes contribute nothing to the expected utility and an
    INF term to the min, so they are excluded from both sides; the report
    carries the (bounded) disagreement between what remains.
    """
    eu = vnm_eu(lottery)
    kappa_eu = kappa_of(eu, eps)
    terms = [
        kappa_of(p, eps) + kappa_of(u, eps)
        for p, u in zip(lottery.probs, lottery.utils)
        if u > 0
    ]
    qualitative = min(terms) if terms else INF
    if kappa_eu == INF and qualitative == INF:
        gap = 0
    else:
        gap = kappa_eu - qualitative
    return OrderAgreement(kappa_eu, qualitative, int(gap), eu)


def agreement_bound(num_prizes: int, eps: Epsilon = 10.0) -> int:
    """The guaranteed cap on |gap| for lotteries with this many prizes."""
    e = _epsilon_value(eps)
    if num_prizes < 2:
        raise OutOfRange(f"a lottery has at least 2 prizes, got {num_prizes}")
    return math.ceil(math.log(num_prizes) / math.log(e)) + 1
