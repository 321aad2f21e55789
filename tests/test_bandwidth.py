import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condu.bandwidth import (
    RateRegime,
    dyadic_bandwidths,
    dyadic_grid,
    gamma_threshold,
    lower_bandwidth,
    normalizer,
    truncate_split,
)
from condu.errors import (
    BandwidthOutOfRange,
    EmptyBandwidthRange,
    InvalidBandwidth,
    SampleTooSmall,
    SchemaError,
)


class TestLowerBandwidth:
    def test_bounded_formula_m1(self):
        r = RateRegime("bounded", c=1.0, m=1, b0=0.5)
        assert lower_bandwidth(r, 100) == pytest.approx(
            math.log(100) / 100, rel=1e-12
        )
        assert lower_bandwidth(r, 100) == pytest.approx(0.046052, abs=1e-6)

    def test_bounded_formula_m2(self):
        r = RateRegime("bounded", c=1.0, m=2, b0=0.5)
        assert lower_bandwidth(r, 100) == pytest.approx(
            math.sqrt(math.log(100) / 100), rel=1e-12
        )
        assert lower_bandwidth(r, 100) == pytest.approx(0.214597, abs=1e-6)

    def test_unbounded_exponent_adjustment(self):
        # p=4: exponent 1 - 2/4 = 1/2, so a' = sqrt(ln n / n) at m=1
        r = RateRegime("unbounded", c=1.0, m=1, b0=0.5, p=4.0)
        assert lower_bandwidth(r, 100) == pytest.approx(0.214597, abs=1e-6)

    def test_small_n_rejected(self):
        r = RateRegime("bounded", c=1.0, m=1, b0=0.5)
        with pytest.raises(SampleTooSmall):
            lower_bandwidth(r, 2)

    def test_rate_anchor_identity_n_times_a_equals_log_n(self):
        r = RateRegime("bounded", c=1.0, m=1, b0=0.5)
        for n in (100, 1000, 4096):
            assert n * lower_bandwidth(r, n) == pytest.approx(math.log(n), rel=1e-12)

    def test_unbounded_anchor_matches_gamma_power_at_block_sizes(self):
        # a'^m = c^m * gamma^{2/p - 1} when n = 2^ell
        c, m, p, ell = 0.7, 2, 3.0, 10
        r = RateRegime("unbounded", c=c, m=m, b0=0.5, p=p)
        n = 2 ** ell
        gamma, _ = gamma_threshold(ell, 1.0, p)
        a = lower_bandwidth(r, n)
        assert a ** m == pytest.approx(c ** m * gamma ** (2.0 / p - 1.0), rel=1e-12)


class TestDyadicGrid:
    def test_doubling_until_twice_cap(self):
        # anchors 0.01 * 2^j up to 0.64 <= 2*b0 = 1 < 1.28
        c = 0.01 / (math.log(2 ** 12) / 2 ** 12)
        r = RateRegime("bounded", c=c, m=1, b0=0.5)
        g = dyadic_grid(r, 12)
        assert g.anchors[0] == pytest.approx(0.01, rel=1e-12)
        assert g.L == 6
        assert g.anchors[-1] == pytest.approx(0.64, rel=1e-12)

    def test_consecutive_ratio_is_2_to_the_1_over_m(self):
        r = RateRegime("bounded", c=1.0, m=2, b0=0.4)
        g = dyadic_grid(r, 10)
        ratios = np.diff(np.log(np.array(g.anchors)))
        assert np.allclose(np.exp(ratios), 2 ** 0.5, rtol=1e-12)

    def test_mth_power_doubles(self):
        r = RateRegime("bounded", c=1.0, m=3, b0=0.4)
        g = dyadic_grid(r, 12)
        for j, h in enumerate(g.anchors):
            assert h ** 3 == pytest.approx(2.0 ** j * g.anchors[0] ** 3, rel=1e-12)

    def test_block_count_within_two_log_n(self):
        for ell in range(8, 16):
            r = RateRegime("bounded", c=1.0, m=1, b0=0.5)
            g = dyadic_grid(r, ell)
            assert g.L <= 2 * math.log(g.n_ell)

    def test_grid_covers_anchor_to_cap(self):
        r = RateRegime("bounded", c=1.0, m=2, b0=0.4)
        g = dyadic_grid(r, 10)
        assert g.anchors[0] <= r.b0
        assert g.anchors[-1] >= r.b0  # last block reaches past the cap

    def test_oversized_anchor_rejected(self):
        r = RateRegime("bounded", c=50.0, m=1, b0=0.3)
        with pytest.raises(EmptyBandwidthRange):
            dyadic_grid(r, 8)

    @pytest.mark.parametrize("c", [1e-200, 1e-320])
    def test_anchor_whose_power_underflows_is_rejected(self, c):
        # a^2 underflows to 0.0, so no h_j = (2^j a^2)^{1/2} can reach the cap
        with pytest.raises(BandwidthOutOfRange, match="underflows"):
            dyadic_grid(RateRegime("bounded", c=c, m=2, b0=0.4), 10)

    def test_subnormal_power_scales_to_the_cap_without_overflow(self):
        # a^2 is subnormal: 2^j a^2 reaches 2*b0 only past j = 1024, where
        # 2.0 ** j overflows
        g = dyadic_grid(RateRegime("bounded", c=1e-160, m=2, b0=0.4), 10)
        assert g.L > 1024
        assert g.anchors[-1] <= 0.8 < math.ldexp(g.anchors[0] ** 2, g.L + 1) ** 0.5

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-105, 0.5), m=st.integers(1, 3))
    def test_grid_is_the_power_of_two_formula_bit_for_bit(self, a, m):
        want = [a] + [(2.0 ** j * a ** m) ** (1.0 / m) for j in range(1, 64)]
        got = list(itertools.islice(dyadic_bandwidths(a, m, math.inf), 64))
        assert got == want


class TestGammaThreshold:
    def test_gamma_at_ell_10(self):
        gamma, _ = gamma_threshold(10, 1.0, 4.0)
        assert gamma == pytest.approx(1024 / math.log(1024), rel=1e-12)
        assert gamma == pytest.approx(147.732, abs=1e-3)

    def test_threshold_fourth_root(self):
        _, thr = gamma_threshold(10, 1.0, 4.0)
        assert thr == pytest.approx(147.732 ** 0.25, abs=1e-4)
        assert thr == pytest.approx(3.4863, abs=1e-3)

    def test_invalid_epsilon_and_p(self):
        with pytest.raises(ValueError):
            gamma_threshold(10, 0.0, 4.0)
        with pytest.raises(ValueError):
            gamma_threshold(10, 1.0, 2.0)


class TestNormalizer:
    def test_log_bandwidth_dominates(self):
        # n=100, h=0.1: |ln h| = 2.302585 > lnln 100 = 1.527180
        assert normalizer(100, 0.1, 1) == pytest.approx(
            math.sqrt(10.0) / math.sqrt(math.log(10.0)), rel=1e-12
        )
        assert normalizer(100, 0.1, 1) == pytest.approx(2.08397, abs=1e-5)

    def test_loglog_dominates_for_moderate_bandwidth(self):
        # n=100, h=1/e: |ln h| = 1 < lnln 100, denominator sqrt(lnln 100)
        v = normalizer(100, 1.0 / math.e, 1)
        expected = math.sqrt(100 / math.e) / math.sqrt(math.log(math.log(100)))
        assert v == pytest.approx(expected, rel=1e-12)
        assert v == pytest.approx(4.909827, rel=5e-3)

    def test_numerator_at_rate_anchor_is_sqrt_log_n(self):
        r = RateRegime("bounded", c=1.0, m=1, b0=0.5)
        n = 10_000
        h = lower_bandwidth(r, n)
        assert n * h == pytest.approx(math.log(n), rel=1e-12)

    def test_out_of_range_bandwidths(self):
        with pytest.raises(BandwidthOutOfRange):
            normalizer(100, 1.0, 1)
        with pytest.raises(InvalidBandwidth):
            normalizer(100, 0.0, 1)

    def test_nan_bandwidth_raises(self):
        with pytest.raises(InvalidBandwidth):
            normalizer(100, math.nan, 1)

    def test_small_n_loglog_is_clamped_positive(self):
        assert normalizer(4, 0.5, 1) > 0.0


class TestTruncateSplit:
    def setup_method(self):
        self.gbar = lambda ys: ys[0] + ys[1]
        self.ftilde = lambda ys: abs(ys[0]) + abs(ys[1])

    def test_partition_identity_and_disjoint_supports(self, rng):
        split = truncate_split(self.gbar, self.ftilde, 1.5)
        for _ in range(100):
            ys = tuple(rng.normal(0, 2, 2))
            t, r = split.truncated(ys), split.remainder(ys)
            assert t + r == self.gbar(ys)
            assert t * r == 0.0

    def test_boundary_goes_to_truncated(self):
        split = truncate_split(self.gbar, self.ftilde, 3.0)
        ys = (1.0, 2.0)  # ftilde = 3.0 exactly
        assert split.truncated(ys) == 3.0
        assert split.remainder(ys) == 0.0

    def test_huge_threshold_kills_remainder(self, rng):
        split = truncate_split(self.gbar, self.ftilde, 1e9)
        for _ in range(20):
            ys = tuple(rng.normal(0, 2, 2))
            assert split.remainder(ys) == 0.0

    def test_tiny_threshold_kills_truncated(self, rng):
        split = truncate_split(self.gbar, self.ftilde, 1e-12)
        for _ in range(20):
            ys = tuple(rng.normal(3, 0.1, 2))
            assert split.truncated(ys) == 0.0

    @given(thr=st.floats(0.1, 10.0), y1=st.floats(-5, 5), y2=st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, thr, y1, y2):
        split = truncate_split(self.gbar, self.ftilde, thr)
        ys = (y1, y2)
        assert split.truncated(ys) + split.remainder(ys) == self.gbar(ys)


class TestRateRegimeValidation:
    def test_unbounded_needs_p(self):
        for p in (None, 2.0):
            with pytest.raises(SchemaError, match="finite p > 2"):
                RateRegime("unbounded", c=1.0, m=1, b0=0.5, p=p)

    def test_b0_range(self):
        with pytest.raises(ValueError):
            RateRegime("bounded", c=1.0, m=1, b0=1.5)
