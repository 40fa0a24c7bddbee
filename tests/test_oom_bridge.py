import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacalc import oom_bridge
from kappacalc import (
    INF,
    EpsilonBase,
    PrizeSet,
    ProbLottery,
    agreement_bound,
    SimpleLottery,
    kappa_of,
    normalize_degrees,
    order_agreement,
    vnm_eu,
)
from kappacalc.errors import LengthMismatch, NotNormalized, OutOfRange

from oracles import scan_kappa

O2 = PrizeSet(("o1", "o2"))
O3 = PrizeSet(("o1", "o2", "o3"))

unit_open = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False
)


def expected_kappa(p: float, eps: float) -> int:
    """kappa_of's contract for 0 < p <= 1: 1 maps to 0; otherwise the exact
    scan classifies the rational, then a p within relative 1e-12 above the
    lower boundary is snapped into the class below it."""
    if p == 1:
        return 0
    P, E = Fraction(p), Fraction(eps)
    k = scan_kappa(P, E)
    lower = 1 / E ** (k + 1)
    return k + 1 if P - lower <= lower / 10**12 else k


def ulp_neighbours(q: float, reach: int = 3) -> list:
    """q and the floats up to `reach` ulps either side, kept inside (0, 1)."""
    out, up, down = [q], q, q
    for _ in range(reach):
        up, down = math.nextafter(up, 1.0), math.nextafter(down, 0.0)
        out += [up, down]
    return [v for v in out if 0 < v < 1]


class TestEpsilon:
    def test_default_and_validation(self):
        assert EpsilonBase().epsilon == 10.0
        assert EpsilonBase(2).epsilon == 2.0
        for bad in (1, 1.0, 0.5, 0, -3, float("inf"), float("nan")):
            with pytest.raises(OutOfRange):
                EpsilonBase(bad)


@pytest.mark.parametrize(
    "huge", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: kappa_of(n),
        lambda n: kappa_of(0.5, n),
        lambda n: EpsilonBase(n),
        lambda n: agreement_bound(3, n),
        lambda n: ProbLottery(O2, (n, 0.5), (1, 0)),
        lambda n: ProbLottery(O2, (1, 0), (n, 0)),
    ],
    ids=["kappa_of_p", "kappa_of_eps", "EpsilonBase", "agreement_bound", "probs", "utils"],
)
def test_ints_past_the_float_range_are_out_of_range(call, huge):
    # 10**5000 is also past sys.get_int_max_str_digits(): no message may repr it
    with pytest.raises(OutOfRange):
        call(huge)


@pytest.mark.parametrize(
    "probs, utils, message",
    [
        (("0.5", "0.5"), (1, 0), "probability must be a real number, got '0.5'"),
        ((0.5, 0.5), ("1", 0), "utility must be a real number, got '1'"),
        ((0.5, 0.5), (1, False), "utility must be a real number, got False"),
        ((True, 0), (1, 0), "probability must be a real number, got True"),
        ((0.5, None), (1, 0), "probability must be a real number, got None"),
        ((Fraction(1, 2), 0.5), (1, 0), "probability must be a real number, got Fraction(1, 2)"),
        ((0.5, 0.5), (1, 0j), "utility must be a real number, got 0j"),
    ],
    ids=["str-prob", "str-util", "bool-util", "bool-prob", "none", "fraction", "complex"],
)
def test_prob_lottery_refuses_non_reals(probs, utils, message):
    # as kappa_of does: float() would otherwise coerce "0.5" and False
    with pytest.raises(OutOfRange) as caught:
        ProbLottery(O2, probs, utils)
    assert str(caught.value) == message



class TestKappaOf:
    def test_leading_zero_counts(self):
        assert kappa_of(0.325) == 0
        assert kappa_of(0.05) == 1
        assert kappa_of(1) == 0
        assert kappa_of(0) == INF

    def test_closed_right_boundaries(self):
        # an exact power of the base sits in the class of its own exponent
        assert kappa_of(0.1) == 1
        assert kappa_of(0.25, 2) == 2
        assert kappa_of(0.5, 2) == 1
        assert kappa_of(1 / 16, 2) == 4

    def test_float_noise_snaps_to_the_boundary(self):
        # 0.001 as a float is a hair above the exact rational 1/1000;
        # without the snap it would land in the class above
        assert kappa_of(0.001) == 3
        assert kappa_of(0.01) == 2
        assert kappa_of(1e-7) == 7

    def test_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(OutOfRange):
                kappa_of(bad)
        with pytest.raises(OutOfRange):
            kappa_of(0.5, eps=1.0)

    def test_non_integer_base(self):
        assert kappa_of(0.4, 2.5) == 1
        assert kappa_of(1 / 2.5, 2.5) == 1
        assert kappa_of(0.41, 2.5) == 0

    @given(unit_open)
    @settings(max_examples=300)
    def test_matches_exact_scan(self, p):
        assert kappa_of(p) == expected_kappa(p, 10)

    @given(unit_open, unit_open)
    @settings(max_examples=200)
    def test_weakly_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert kappa_of(lo) >= kappa_of(hi)

    @given(unit_open, unit_open)
    @settings(max_examples=200)
    def test_product_rule_within_one(self, a, b):
        k = kappa_of(a * b) if a * b > 0 else INF
        lo = kappa_of(a) + kappa_of(b)
        assert k in (lo, lo + 1) or (k == INF and a * b == 0.0)

    @given(st.lists(unit_open, min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_sum_rule_within_log_of_count(self, terms):
        total = math.fsum(terms)
        if total > 1:
            return
        k = kappa_of(total)
        best = min(kappa_of(t) for t in terms)
        assert best - math.ceil(math.log10(len(terms))) - 1 <= k <= best


BAND_EPSILONS = (10.0, 2.0, 2.5, 1.5, 1.1, 1.01, 1.001)
BAND_KS = (1, 2, 3, 5, 8, 13, 40, 110)


class TestDecisionBand:
    """Inputs on and beside a class threshold, where the float decision
    hands over to the exact certification."""

    @pytest.mark.parametrize("eps", BAND_EPSILONS)
    def test_powers_and_snap_boundaries(self, eps):
        for k in BAND_KS:
            for q in (eps**-k, eps**-k * (1 + 1e-12)):
                for p in ulp_neighbours(q):
                    assert kappa_of(p, eps) == expected_kappa(p, eps), (p, eps)

    @pytest.mark.parametrize("eps", BAND_EPSILONS)
    def test_one_minus_tiny(self, eps):
        for tiny in (2**-53, 2**-52, 1e-15, 1e-13, 1e-12, 1e-9):
            for p in ulp_neighbours(1 - tiny):
                assert kappa_of(p, eps) == expected_kappa(p, eps), (p, eps)

    @pytest.mark.parametrize("eps", (10.0, 2.0))
    def test_smallest_subnormals(self, eps):
        for p in ulp_neighbours(5e-324):
            assert kappa_of(p, eps) == expected_kappa(p, eps), (p, eps)

    def test_snap_wider_than_a_class(self):
        # here ln(1 + 1e-12) / ln(eps) > 1: every p < 1 is within 1e-12 of
        # its lower boundary, so the class is always the exact one plus 1
        eps = 1 + 2**-40
        assert math.log1p(1e-12) / math.log(eps) > 1
        near_one = [1 - t * 2**-53 for t in range(1, 40)]
        for q in (eps**-1, eps**-2, eps**-3, eps**-2 * (1 + 1e-12), *near_one):
            for p in ulp_neighbours(q):
                assert kappa_of(p, eps) == expected_kappa(p, eps), (p, eps)

    def test_snap_wider_than_a_class_just_above_a_power(self):
        # p is 5.6e-24 above eps**-15516, relative: x + s is within its margin of
        # 15517, but p > eps**-15516 puts p in class floor(x) + 1 = 15516.  Only
        # the test p <= eps**-(K-1) excludes K here (found by a search over bases)
        p, eps = float.fromhex("0x1.ffffff80010e9p-1"), 1 + 4325 * 2**-52
        n, d = p.as_integer_ratio()
        n_e, d_e = eps.as_integer_ratio()
        num, den = n * n_e**15515, d * d_e**15515
        assert num * n_e > den * d_e and num <= den  # eps**-15516 < p <= eps**-15515
        assert kappa_of(p, eps) == 15516


def assert_unsnapped_class(p: float, eps: float, k: int):
    # eps**-(k+1) * (1 + 1e-12) < p <= eps**-k, exactly
    n, d = p.as_integer_ratio()
    n_e, d_e = eps.as_integer_ratio()
    num, den = n * n_e**k, d * d_e**k
    assert num <= den and num * n_e * 10**12 > den * d_e * (10**12 + 1)


class TestTimeBound:
    def test_deep_class_at_small_base(self):
        start = time.perf_counter()
        k = kappa_of(1e-300, 1.01)
        assert time.perf_counter() - start < 0.05
        assert_unsnapped_class(1e-300, 1.01, k)

    def test_smallest_subnormal_at_small_base(self):
        # certifying this class would need a 3.97M-bit power, under POWER_BITS
        k = kappa_of(5e-324, 1.01)
        assert_unsnapped_class(5e-324, 1.01, k)

    def test_exact_power_at_small_base(self):
        # on the exact path: a 3.2M-bit power
        assert kappa_of(1.01**-60000, 1.01) == 60000

    @pytest.mark.parametrize("p, eps", [(0.5, 1 + 2**-52), (0.3**250, 1 + 2**-40)])
    def test_class_too_costly_to_certify_is_refused(self, p, eps):
        # x + s is about 3e15 and 3e14, within its float margin of an integer
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match=r"^the class of probability .* is too costly "
                                             r"to certify: eps\*\*\d+ passes 4194304 bits$"):
            kappa_of(p, eps)
        assert time.perf_counter() - start < 0.05

    def test_power_bits_bounds_the_certified_class(self, monkeypatch):
        # past k = 101 the snap of 2**-k is inside the float margin, so 2**-k takes
        # the exact path; 2 is 2 bits long: 200 * 2 bits pass, 201 * 2 do not
        monkeypatch.setattr(oom_bridge, "POWER_BITS", 400)
        assert kappa_of(2.0**-200, 2) == 200
        with pytest.raises(OutOfRange, match="eps\\*\\*201 passes 400 bits"):
            kappa_of(2.0**-201, 2)
        # agreement_bound certifies an exact power the same way
        assert agreement_bound(2**200, 2) == 201
        with pytest.raises(OutOfRange, match="^the agreement bound for .* is too costly "
                                             "to certify: eps\\*\\*201 passes 400 bits$"):
            agreement_bound(2**201, 2)


class TestProbLottery:
    def test_validation(self):
        with pytest.raises(LengthMismatch):
            ProbLottery(O3, (0.5, 0.5), (1, 0.5, 0))
        with pytest.raises(LengthMismatch, match=r"^2 utilities for 3 prizes$"):
            ProbLottery(O3, (0.5, 0.3, 0.2), (1, 0))
        with pytest.raises(NotNormalized):
            ProbLottery(O2, (0.7, 0.2), (1, 0))
        with pytest.raises(OutOfRange):
            ProbLottery(O2, (1.2, -0.2), (1, 0))
        with pytest.raises(OutOfRange, match=r"^utility out of \[0, 1\]: 1\.5$"):
            ProbLottery(O3, (0.5, 0.3, 0.2), (1, 1.5, 0))
        with pytest.raises(OutOfRange, match="best"):
            ProbLottery(O2, (0.5, 0.5), (0.9, 0))
        with pytest.raises(OutOfRange, match="worst"):
            ProbLottery(O2, (0.5, 0.5), (1, 0.1))
        with pytest.raises(OutOfRange, match=r"^utilities must weakly decrease along the prize "
                                             r"order: 0\.2 before 0\.5$"):
            O4 = PrizeSet(("o1", "o2", "o3", "o4"))
            ProbLottery(O4, (0.4, 0.3, 0.2, 0.1), (1, 0.2, 0.5, 0))
        # weakly decreasing means ties are fine
        ProbLottery(O3, (0.5, 0.3, 0.2), (1, 1, 0))

    def test_sum_tolerance(self):
        ProbLottery(O2, (0.5, 0.5 + 5e-10), (1, 0))

    def test_underflowing_expected_utility_is_refused(self):
        with pytest.raises(OutOfRange, match="expected utility underflows to 0"):
            ProbLottery(O3, (0, 1e-200, 1.0), (1, 1e-200, 0))
        # one product underflows, but eu is positive: accepted
        ProbLottery(O3, (0.5, 1e-200, 0.5), (1, 1e-200, 0))


class Real(float):
    pass


# a value and the refusal it gets, "{}" naming the field; an accepted value
# goes in as the last probability of (0.5, 0.5 - v, v) or the middle utility
# of (1, v, 0), a refused one as the last of (0.5, 0.3, v) or the same utility
ODD_REALS = [
    (0, None),
    (True, "{} must be a real number, got True"),
    ("0.5", "{} must be a real number, got '0.5'"),
    (Real(0.25), None),
    (math.nan, "{} out of [0, 1]: nan"),
    (math.inf, "{} out of [0, 1]: inf"),
    (-math.inf, "{} out of [0, 1]: -inf"),
    (-0.0, None),
    (10**400, "{} out of [0, 1]: an int past the float range"),
]


class TestOddReals:
    """Values past the float shortcuts of ProbLottery keep their answers."""

    @pytest.mark.parametrize("value, refused", ODD_REALS,
                             ids=["int", "bool", "str", "float-subclass", "nan", "inf", "-inf",
                                  "-0.0", "huge-int"])
    def test_refusal_or_float_values(self, value, refused):
        if refused is not None:
            for field, probs, utils in (("probability", (0.5, 0.3, value), (1, 0.5, 0)),
                                        ("utility", (0.5, 0.3, 0.2), (1, value, 0))):
                with pytest.raises(OutOfRange) as caught:
                    ProbLottery(O3, probs, utils)
                assert str(caught.value) == refused.format(field)
            return
        for probs, utils in (((0.5, 0.5 - value, value), (1, 0.5, 0)),
                             ((0.5, 0.3, 0.2), (1, value, 0))):
            lot = ProbLottery(O3, probs, utils)
            assert {type(x) for x in lot.probs + lot.utils} == {float}
            assert (lot.probs, lot.utils) == (probs, utils)
            assert order_agreement(lot).spohnian.deltas == tuple(
                INF if p == 0 else 0 for p in probs)


class TestConversion:
    def test_leading_zeros_example(self):
        lot = ProbLottery(O3, (0.9, 0.09, 0.01), (1, 0.5, 0))
        assert order_agreement(lot).spohnian.deltas == (0, 1, 2)

    def test_even_split(self):
        lot = ProbLottery(O2, (0.5, 0.5), (1, 0))
        assert order_agreement(lot).spohnian.deltas == (0, 0)

    def test_certainty(self):
        lot = ProbLottery(O2, (1.0, 0.0), (1, 0))
        assert order_agreement(lot).spohnian.deltas == (0, INF)

    def test_renormalizes_when_every_prob_is_small(self):
        # twelve prizes at 1/12 each: every kappa is 1, shifted back to 0
        prizes = PrizeSet(tuple(f"p{i}" for i in range(12)))
        utils = (1.0,) + tuple((11 - i) / 12 for i in range(1, 11)) + (0.0,)
        lot = ProbLottery(prizes, (1 / 12,) * 12, utils)
        assert order_agreement(lot).spohnian.deltas == (0,) * 12


class TestVnm:
    def test_dot_product(self):
        assert vnm_eu(ProbLottery(O2, (1.0, 0.0), (1, 0))) == 1.0
        assert vnm_eu(ProbLottery(O2, (0.5, 0.5), (1, 0))) == 0.5
        lot = ProbLottery(O3, (0.9, 0.09, 0.01), (1, 0.5, 0))
        assert vnm_eu(lot) == pytest.approx(0.945, abs=1e-12)


class TestAgreement:
    def test_trivial_certainty(self):
        report = order_agreement(ProbLottery(O2, (1.0, 0.0), (1, 0)))
        assert (report.kappa_of_eu, report.qualitative_eu, report.gap) == (0, 0, 0)

    def test_two_point_example(self):
        report = order_agreement(ProbLottery(O2, (0.9, 0.1), (1, 0)))
        assert (report.kappa_of_eu, report.qualitative_eu, report.gap) == (0, 0, 0)

    def test_exact_powers_single_term(self):
        report = order_agreement(ProbLottery(O2, (0.5, 0.5), (1, 0)), 2)
        assert (report.kappa_of_eu, report.qualitative_eu, report.gap) == (1, 1, 0)

    def test_worthless_lottery_agrees_by_convention(self):
        report = order_agreement(ProbLottery(O2, (0.0, 1.0), (1, 0)))
        assert report.kappa_of_eu == INF
        assert report.qualitative_eu == INF
        assert report.gap == 0

    def test_eu_past_one_by_the_sum_tolerance_is_class_0(self):
        report = order_agreement(ProbLottery(O3, (0.5, 0.5 + 5e-10, 0), (1, 1, 0)))
        assert report.eu > 1
        assert (report.kappa_of_eu, report.qualitative_eu, report.gap) == (0, 0, 0)

    def test_gap_can_be_negative(self):
        # two equal contributions halve the expected utility's class
        lot = ProbLottery(O3, (0.5, 0.25, 0.25), (1, 0.5, 0))
        report = order_agreement(lot, 2)
        assert report.gap == -1
        assert abs(report.gap) <= agreement_bound(3, 2)

    def test_bound_holds_on_random_lotteries(self, rng):
        for _ in range(2000):
            r = rng.randint(2, 6)
            prizes = PrizeSet(tuple(f"p{i}" for i in range(r)))
            raw = [rng.random() for _ in range(r)]
            total = sum(raw)
            probs = tuple(x / total for x in raw)
            mids = sorted((rng.random() for _ in range(r - 2)), reverse=True)
            utils = (1.0, *mids, 0.0)
            report = order_agreement(ProbLottery(prizes, probs, utils))
            assert abs(report.gap) <= agreement_bound(r)

    # zero, subnormal and tiny values, so that products p * u underflow
    tiny = st.sampled_from([0.0, 5e-324, 2.5e-310, 1e-200, 1e-12])

    @given(st.data(), st.integers(2, 5), st.sampled_from([10, 2, 1.5]))
    @settings(max_examples=400)
    def test_infinite_on_both_sides_or_neither(self, data, r, eps):
        small = st.one_of(self.tiny, st.floats(0.0, 1.0 / r))
        probs = data.draw(st.lists(small, min_size=r - 1, max_size=r - 1))
        probs.insert(data.draw(st.integers(0, r - 1)), 1.0 - math.fsum(probs))
        mids = data.draw(st.lists(st.one_of(self.tiny, unit_open),
                                  min_size=r - 2, max_size=r - 2))
        utils = (1.0, *sorted(mids, reverse=True), 0.0)
        prizes = PrizeSet(tuple(f"p{i}" for i in range(r)))
        try:
            lot = ProbLottery(prizes, probs, utils)
        except OutOfRange as e:  # an expected utility that underflows is refused
            assert "underflows" in str(e)
            return
        report = order_agreement(lot, eps)
        assert (report.kappa_of_eu == INF) == (report.qualitative_eu == INF)
        if report.kappa_of_eu == INF:
            assert report.gap == 0
        else:
            assert type(report.gap) is int

    @given(st.data(), st.integers(2, 6), st.sampled_from([10, 2, 1.5, 1.0095]))
    @settings(max_examples=300)
    def test_converted_lottery_is_the_normalized_kappas(self, data, r, eps):
        # order_agreement shifts the kappas itself; normalize_degrees is the reference
        small = st.one_of(TestAgreement.tiny, st.floats(0.0, 1.0 / r))
        probs = data.draw(st.lists(small, min_size=r - 1, max_size=r - 1))
        probs.insert(data.draw(st.integers(0, r - 1)), 1.0 - math.fsum(probs))
        prizes = PrizeSet(tuple(f"p{i}" for i in range(r)))
        lot = ProbLottery(prizes, probs, (1.0,) * (r - 1) + (0.0,))  # eu cannot underflow
        expected = SimpleLottery(prizes, normalize_degrees([kappa_of(p, eps) for p in probs]))
        assert order_agreement(lot, eps).spohnian == expected

    def test_agreement_bound_values(self):
        with pytest.raises(OutOfRange, match="^a lottery has at least 2 prizes, got 1$"):
            agreement_bound(1)
        assert agreement_bound(2) == 2
        assert agreement_bound(6) == 2
        assert agreement_bound(11) == 3
        assert agreement_bound(4, 2) == 3
        # exact powers, where log(125) / log(5) is 3.0000000000000004
        assert agreement_bound(125, 5) == 4
        assert agreement_bound(216, 6) == 4
        # eps**k past the float range, a float log that rounds down to 15, and
        # a float power 5.0**24 that rounds below 5**24
        assert agreement_bound(2**1100, 2) == 1101
        assert agreement_bound(10**400, 10) == 401
        assert agreement_bound(10**15 + 1) == 17
        assert agreement_bound(5**24, 5) == 25
        with pytest.raises(OutOfRange, match="^a lottery has at least 2 prizes, got an int of"):
            agreement_bound(-(10**5000))
        # a float count is a TypeError whatever its value; True still counts as 1
        for args in ((1.5**1700, 1.5), (float("inf"),), (float("nan"),), (3.0,)):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                agreement_bound(*args)
        with pytest.raises(OutOfRange, match="^a lottery has at least 2 prizes, got True$"):
            agreement_bound(True)
