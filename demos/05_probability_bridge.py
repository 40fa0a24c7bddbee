"""
From probabilities to disbelief degrees and back
================================================

kappa_of(p) counts the leading zeros of p in base epsilon: the order of
magnitude of its improbability.  order_agreement reads each probability of
a lottery this way once, and returns the converted lottery beside both
valuations.  Valuing the converted lottery qualitatively lands close to,
but not exactly on, the kappa of its quantitative expected utility.  The
gap is bounded; the bridge reports it rather than hiding it.
"""

from kappacalc import (
    INF,
    PrizeSet,
    ProbLottery,
    agreement_bound,
    kappa_of,
    order_agreement,
    vnm_eu,
)

for p in (0.325, 0.05, 0.004, 1.0, 0.0):
    print(f"kappa({p}) =", kappa_of(p))

# Exact powers of the base sit in the class of their own exponent.
print("kappa(0.01) =", kappa_of(0.01))
print("kappa(0.25, base 2) =", kappa_of(0.25, 2))

prizes = PrizeSet(("win", "draw", "lose"))
lottery = ProbLottery(prizes, probs=(0.9, 0.09, 0.01), utils=(1.0, 0.5, 0.0))

report = order_agreement(lottery)
print("converted lottery:", dict(zip(prizes, report.spohnian.deltas)))
print(f"expected utility = {report.eu:.6g}")
print("kappa(eu) =", report.kappa_of_eu)
print("qualitative valuation =", report.qualitative_eu)
print("gap =", report.gap, "| bound for 3 prizes:", agreement_bound(3))

# The gap can be negative: summing many same-order terms pushes the
# expected utility one class up while the min-plus side stays put.
quarters = ProbLottery(
    PrizeSet(("a", "b", "c")), (0.5, 0.25, 0.25), (1.0, 0.5, 0.0)
)
print("negative-gap example:", order_agreement(quarters, 2).gap)

# Degenerate case: every prize with positive utility has probability 0,
# so both valuations call the lottery worthless and the gap is 0.
worthless = ProbLottery(PrizeSet(("a", "b")), (0.0, 1.0), (1.0, 0.0))
degenerate = order_agreement(worthless)
assert degenerate.kappa_of_eu == INF and degenerate.gap == 0
print("worthless lottery: both sides INF, gap", degenerate.gap)
print(f"(eu = {vnm_eu(worthless)})")
