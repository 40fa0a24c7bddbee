"""Independent reference implementations the real code is checked against.

Everything here deliberately avoids the library's recursive formulations:
reduction and evaluation are computed by enumerating complete root-to-leaf
paths (addition distributes over min, so the path expansion must agree),
kappa is found by scanning exponents with exact rational arithmetic,
never touching a logarithm, an act's lottery is a plain min over its row,
the utility order is the standard-lottery case analysis rather than a
subtraction, conditioning subtracts the event's degree member by member
instead of renormalizing, and the disagreement search compares every pair
of candidate acts.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from kappacalc import INF, Degree, Leaf, SimpleLottery, UtilityValue


def _paths(lottery, acc=0):
    """Yield (total degree along the path, leaf prize) for every path."""
    if isinstance(lottery, Leaf):
        yield acc, lottery.prize
        return
    if isinstance(lottery, SimpleLottery):
        for prize, d in zip(lottery.prizes, lottery.deltas):
            yield acc + d, prize
        return
    for d, child in lottery.branches:
        yield from _paths(child, acc + d)


def path_sum_reduce(lottery) -> SimpleLottery:
    """Reduce by brute-force path enumeration instead of recursion."""
    prizes = lottery.prizes
    best = {p: INF for p in prizes}
    for total, prize in _paths(lottery):
        best[prize] = min(best[prize], total)
    return SimpleLottery(prizes, tuple(best[p] for p in prizes))


class PathSum(NamedTuple):
    """The two flat minima; unlike a UtilityValue, never checked to be on the scale."""

    toward_best: Degree
    toward_worst: Degree


def path_sum_evaluate(lottery, assessment) -> PathSum:
    """Evaluate as a flat min over paths of path degree + leaf value."""
    first = INF
    second = INF
    for total, prize in _paths(lottery):
        value = assessment.value_of(prize)
        first = min(first, total + value.toward_best)
        second = min(second, total + value.toward_worst)
    return PathSum(first, second)


def compare_standard(left: UtilityValue, right: UtilityValue) -> int:
    """Order two scale values by the standard-lottery rule: -1, 0, or +1.

    Strict preference holds in exactly three situations: both pairs sit on
    the believing-the-best half-line and the left believes it more firmly;
    the left is on the best half-line while the right has tipped toward the
    worst; or both have tipped toward the worst and the left disbelieves
    the best less firmly.  This is the case analysis itself, checked against
    the library's scalar order (`scalar_utility`).
    """
    lb, lw = left.toward_best, left.toward_worst
    rb, rw = right.toward_best, right.toward_worst

    def beats(b1: Degree, w1: Degree, b2: Degree, w2: Degree) -> bool:
        if b1 == 0 and b2 == 0 and w1 > w2:
            return True
        if b1 == 0 and b2 > 0:
            return True
        if b1 < b2 and w1 == 0 and w2 == 0:
            return True
        return False

    if beats(lb, lw, rb, rw):
        return 1
    if beats(rb, rw, lb, lw):
        return -1
    return 0


def scan_kappa(p: Fraction, eps: Fraction):
    """kappa by upward scan: the least k with p > eps**-(k+1).

    Exact rationals only; p must lie in (0, 1].  Agrees with the
    closed-right convention: p == eps**-k lands in class k.
    """
    assert 0 < p <= 1
    k = 0
    while p * eps ** (k + 1) <= 1:
        k += 1
    return k



def shift_condition(fn, event) -> tuple:
    """The potential conditioned on an event by the explicit S3 shift: each
    member drops by the event's least degree, every other world goes to INF."""
    members = set(event)
    shift = min([v for w, v in zip(fn.frame, fn.potential) if w in members], default=INF)
    return tuple([(v - shift if v != INF else INF) if w in members else INF
                  for w, v in zip(fn.frame, fn.potential)])


def scan_act_lottery(problem, act) -> SimpleLottery:
    """An act's simple lottery by a direct min over the states, in frame order."""
    row = problem.outcome[problem.acts.index(act)]
    low = {p: INF for p in problem.prizes}
    for prize, v in zip(row, problem.belief.potential):
        low[prize] = min(low[prize], v)
    return SimpleLottery(problem.prizes, tuple(low[p] for p in problem.prizes))


def scan_disagreement(max_prizes: int, max_delta: int):
    """The maximin-disagreement search by comparing every ordered pair.

    The enumeration is `find_maximin_disagreement`'s, except that it starts
    at r = 2 prizes, which the search skips as provably witness-free: for
    each r, each strictly decreasing run of assessment scalars (the best
    prize pinned to +INF), then every (a, b) of normalized delta vectors in
    row-major order.  Returns the first witness problem, or None.
    """
    from kappacalc.decision import _problem_from_vectors

    for r in range(2, max_prizes + 1):
        domain = list(range(max_delta + 1)) + [INF]
        vectors = [v for v in product(domain, repeat=r) if min(v) == 0]
        worsts = [max(i for i, d in enumerate(v) if d != INF) for v in vectors]
        ladder = list(range(max_delta, -max_delta - 1, -1)) + [-INF]
        for tail in combinations(ladder, r - 1):
            scalars = (INF,) + tail
            # a scalar s >= 0 is the value (0, s); s < 0 is (-s, 0)
            values = [(0, s) if s >= 0 else (-s, 0) for s in scalars]
            utilities = [
                min(d + worst for d, (_, worst) in zip(vec, values))
                - min(d + best for d, (best, _) in zip(vec, values))
                for vec in vectors
            ]
            for ia, vec_a in enumerate(vectors):
                for ib, vec_b in enumerate(vectors):
                    if utilities[ia] > utilities[ib] and worsts[ia] > worsts[ib]:
                        return _problem_from_vectors(r, scalars, vec_a, vec_b)
    return None
