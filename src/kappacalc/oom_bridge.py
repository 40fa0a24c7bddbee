"""Order-of-magnitude reading of probabilities, and the agreement check.

kappa_of(p) counts the leading zeros of p in base epsilon: floor of
-log_eps(p), closed on the right so that an exact power eps**-k maps to k,
with p up to relative 1e-12 above a boundary (float noise) snapped onto it:
floor(x + s) for x = -ln(p) / ln(eps), s = min(ln(1 + 1e-12) / ln(eps), 1).
The float x + s decides the class unless it is within its error margin of an
integer K: then one exact comparison picks K - 1 or K, up to POWER_BITS bits.

The bridge then compares two ways of valuing a probabilistic lottery:
kappa of its quantitative expected utility, versus the min-plus combination
min_i(kappa(p_i) + kappa(u_i)).  They agree only up to a bounded gap;
order_agreement reports the gap instead of pretending it is zero.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable

from .degrees import Degree, Frozen, INF, show
from .errors import LengthMismatch, NotNormalized, OutOfRange
from .lottery import PrizeSet, SimpleLottery

PROB_SUM_TOL = 1e-9
BOUNDARY_RTOL = 10**12  # p <= eps**-(k+1) * (1 + 1/BOUNDARY_RTOL) is in class k+1
_LOG_SNAP = math.log1p(1 / BOUNDARY_RTOL)
# The float x + s is within 3.5 * 2**-52 of its value, relative (the logs are
# within 1 ulp; 1e-12, the divisions and the sum round once each); 18x that:
_FLOAT_MARGIN = 2.0**-46
# Cap on K * bits(numerator of eps) in kappa_of's exact comparison: under it
# x + s < 2**22, so its margin is below 2**-24 and the class is K - 1 or K.
POWER_BITS = 2**22


class EpsilonBase(Frozen):
    """The base of the order-of-magnitude scale; any real > 1."""

    __slots__ = _fields = ("epsilon",)

    def __init__(self, epsilon: float = 10.0):
        if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
            raise OutOfRange(f"epsilon must be a real number, got {show(epsilon)}")
        if not 1 < epsilon <= sys.float_info.max:  # exact for ints; false for NaN
            raise OutOfRange(f"epsilon must be finite and > 1, got {show(epsilon)}")
        super().__init__(float(epsilon))


Epsilon = EpsilonBase | float | int


def _epsilon_value(eps: Epsilon) -> float:
    if isinstance(eps, EpsilonBase):
        return eps.epsilon
    return EpsilonBase(eps).epsilon


def kappa_of(p: float, eps: Epsilon = 10.0) -> Degree:
    """Degree of disbelief of probability p: floor(-log_eps(p)).

    0 maps to INF, 1 to 0; otherwise k such that eps**-(k+1) < p <= eps**-k,
    but p <= eps**-(k+1) * (1 + 1e-12) counts as eps**-(k+1), class k+1.
    The float floor(x + s) of the module docstring decides unless x + s is
    within 2**-46 * (x + s) of an integer K.  The class is then K - 1 or K,
    and K iff p <= eps**-(K-1) and p <= eps**-K * (1 + 1e-12), compared on
    integer ratios; OutOfRange if K * n_e.bit_length() exceeds POWER_BITS.
    """
    e = _epsilon_value(eps)
    if type(p) is not float and (isinstance(p, bool) or not isinstance(p, (int, float))):
        raise OutOfRange(f"probability must be a real number, got {show(p)}")
    if not 0 <= p <= 1:  # exact for ints; false for NaN
        raise OutOfRange(f"probability must lie in [0, 1], got {show(p)}")
    if p == 0:
        return INF
    if p == 1:
        return 0

    log_e = math.log(e)
    x = -math.log(p) / log_e
    y = x + (_LOG_SNAP / log_e if _LOG_SNAP < log_e else 1.0)  # s, capped at 1
    k = math.floor(y)
    margin = y * _FLOAT_MARGIN
    if margin < y - k < 1 - margin:
        return k
    k = round(y)  # the integer within margin of y; not 0, as margin < y
    n, d = p.as_integer_ratio()
    n_e, d_e = e.as_integer_ratio()
    if k * n_e.bit_length() > POWER_BITS:
        raise OutOfRange(f"the class of probability {show(p)} at base {show(e)} "
                         f"is too costly to certify: eps**{k} passes {POWER_BITS} bits")
    num, den = n * n_e ** (k - 1), d * d_e ** (k - 1)
    if num <= den and num * n_e * BOUNDARY_RTOL <= den * d_e * (BOUNDARY_RTOL + 1):
        return k
    return k - 1


def _real(x: object, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise OutOfRange(f"{what} must be a real number, got {show(x)}")
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
        probs = tuple([p if type(p) is float else _real(p, "probability") for p in probs])
        utils = tuple([u if type(u) is float else _real(u, "utility") for u in utils])
        r = len(prizes)
        if len(probs) != r:
            raise LengthMismatch(f"{len(probs)} probabilities for {r} prizes")
        if len(utils) != r:
            raise LengthMismatch(f"{len(utils)} utilities for {r} prizes")
        for p in probs:
            if not 0 <= p <= 1:  # false for NaN
                raise OutOfRange(f"probability out of [0, 1]: {p!r}")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
        for u in utils:
            if not 0 <= u <= 1:
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
        # a prize with p, u > 0 makes the min-plus side finite; kappa(eu) must be too
        if not any([p * u for p, u in zip(probs, utils)]) and any(map(min, probs, utils)):
            raise OutOfRange("expected utility underflows to 0, though a prize has p > 0 and u > 0")
        super().__init__(prizes, probs, utils)


def vnm_eu(lottery: ProbLottery) -> float:
    """Quantitative expected utility: the probability-utility dot product."""
    return math.fsum(p * u for p, u in zip(lottery.probs, lottery.utils))


class OrderAgreement(Frozen):
    """The converted lottery, both valuations, and how far apart they landed.

    gap = kappa_of_eu - qualitative_eu.  When every positive-utility prize
    has probability 0 both sides are INF and the gap is 0 by convention:
    the valuations agree the lottery is worthless.
    """

    __slots__ = _fields = ("spohnian", "kappa_of_eu", "qualitative_eu", "gap", "eu")


def order_agreement(lottery: ProbLottery, eps: Epsilon = 10.0) -> OrderAgreement:
    """Convert the lottery by order of magnitude and compare its valuations.

    Each probability's kappa is read once and serves both results.  The
    converted lottery shifts the kappas back onto the scale, since the floor
    can leave every one positive (all probabilities below 1/eps).  The
    min-plus valuation excludes zero-utility prizes, which contribute nothing
    to the expected utility and an INF term to the min; the report carries
    the (bounded) disagreement between what remains.
    """
    kappas = [kappa_of(p, eps) for p in lottery.probs]
    low = min(kappas)  # finite, since the probabilities sum to 1
    spohnian = SimpleLottery(lottery.prizes, [k if k == INF else k - low for k in kappas])
    eu = vnm_eu(lottery)
    kappa_eu = kappa_of(min(eu, 1.0), eps)  # the sum tolerance lets eu pass 1 by 1e-9
    terms = [k + kappa_of(u, eps) for k, u in zip(kappas, lottery.utils) if u > 0]
    qualitative = min(terms)  # utils[0] is 1, so terms is never empty
    gap = 0 if kappa_eu == INF else kappa_eu - qualitative  # INF on both sides or neither
    return OrderAgreement(spohnian, kappa_eu, qualitative, gap, eu)


def agreement_bound(num_prizes: int, eps: Epsilon = 10.0) -> int:
    """The guaranteed cap on |gap| for lotteries with this many prizes: k + 1
    for the least k with eps**k >= num_prizes.  A float log within 2**-46 of
    an integer K (125 at 5 gives 3.0000000000000004) leaves k at K or K + 1,
    decided on integer ratios up to POWER_BITS, as in kappa_of."""
    e = _epsilon_value(eps)
    if num_prizes < 2:
        raise OutOfRange(f"a lottery has at least 2 prizes, got {show(num_prizes)}")
    x = math.log(num_prizes) / math.log(e)
    k = round(x)
    if abs(x - k) > x * _FLOAT_MARGIN:
        return math.ceil(x) + 1
    n_e, d_e = e.as_integer_ratio()
    if k * n_e.bit_length() > POWER_BITS:
        raise OutOfRange(f"the agreement bound for {show(num_prizes)} prizes at base {show(e)} "
                         f"is too costly to certify: eps**{k} passes {POWER_BITS} bits")
    return k + 1 if n_e ** k >= num_prizes * d_e ** k else k + 2
