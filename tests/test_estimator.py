import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condu.estimator
from condu.errors import (
    DegenerateSample,
    NoClosedFormConditional,
    SchemaError,
    ZeroDensityWindow,
)
from condu.estimator import (
    centering,
    convolve,
    estimate,
    estimate_grid,
    expected_u,
    expected_u_one,
    make_dgp,
    product_density,
    true_regression,
)
from condu.function_class import FunctionClass, builtin_member
from condu.harness import bias_from_cache, expectation_cache
from condu.kernels import composite_integral, get_kernel
from condu.ucore import Sample, UKernelSpec, u_stat_windowed
from conftest import make_rng, random_sample


UNIF = get_kernel("uniform")
EPA = get_kernel("epanechnikov-rescaled")


class TestEstimate:
    def test_hand_computed_ratio(self):
        # window |x| <= 0.25 keeps (0, 1) and (0.1, 2):
        # numerator (1/3)(1 + 2)/h = 2, denominator (1/3)(2)/h = 4/3
        s = Sample(np.array([0.0, 0.1, 1.0]), np.array([1.0, 2.0, 5.0]))
        cell = estimate(builtin_member("identity_j:1", 1), 0.5, (0.0,), s, UNIF)
        assert cell.status == "ok"
        assert cell.numerator == pytest.approx(2.0, rel=1e-15)
        assert cell.denominator == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert cell.mhat == pytest.approx(1.5, rel=1e-15)

    def test_empty_window_is_a_status_not_an_error(self):
        s = Sample(np.array([0.0, 0.1]), np.array([1.0, 2.0]))
        cell = estimate(builtin_member("sum", 1), 0.1, (5.0,), s, UNIF)
        assert cell.status == "empty_window"
        assert cell.mhat is None

    def test_constant_one_gives_exactly_one(self):
        rng = make_rng(41)
        s = random_sample(rng, 50)
        cell = estimate(builtin_member("one", 2), 0.5, (0.5, 0.5), s, EPA)
        assert cell.status == "ok"
        assert cell.mhat == 1.0

    def test_constant_member_recovers_the_constant(self):
        rng = make_rng(42)
        s = random_sample(rng, 50)
        cell = estimate(builtin_member("const:3.5", 2), 0.5, (0.5, 0.5), s, UNIF)
        assert cell.mhat == pytest.approx(3.5, rel=1e-12)

    def test_order_above_sample_size_raises(self):
        s = Sample(np.array([0.1]), np.array([1.0]))
        with pytest.raises(DegenerateSample):
            estimate(builtin_member("sum", 2), 0.5, (0.0, 0.0), s, UNIF)

    def test_m1_within_window_range(self):
        rng = make_rng(43)
        s = random_sample(rng, 80)
        h, t = 0.3, 0.5
        cell = estimate(builtin_member("identity_j:1", 1), h, (t,), s, UNIF)
        inside = s.y[np.abs(s.x - t) <= h / 2]
        assert inside.size > 0
        assert inside.min() - 1e-12 <= cell.mhat <= inside.max() + 1e-12

    @given(b=st.floats(-3, 3), a=st.floats(0.1, 3))
    @settings(max_examples=25, deadline=None)
    def test_affine_equivariance_in_y(self, b, a):
        rng = make_rng(44)
        s = random_sample(rng, 40)
        h, t = 0.5, (0.5, 0.5)
        phi = builtin_member("sum", 2)
        base = estimate(phi, h, t, s, UNIF).mhat
        shifted = estimate(phi, h, t, Sample(s.x, a * s.y + b), UNIF).mhat
        assert shifted == pytest.approx(a * base + 2 * b, abs=1e-10 * (1 + abs(base)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_denominator_is_the_one_member_without_building_it(self, m, monkeypatch):
        s = random_sample(make_rng(45), 60)
        hs, points = [0.1, 0.999], list(itertools.product([0.4, 0.5], repeat=m))
        one = builtin_member("one", m)
        expected = [[u_stat_windowed(UKernelSpec(one, h, t, EPA), s).value for t in points]
                    for h in hs]

        def no_member(*args):
            raise AssertionError("estimate_grid built a member")

        monkeypatch.setattr(condu.estimator, "builtin_member", no_member)
        cells = estimate_grid([builtin_member("sum", m)], hs, points, s, EPA)
        got = [[t_cells[0].denominator for t_cells in h_cells] for h_cells in cells]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert [[t_cells[0].h for t_cells in h_cells] for h_cells in cells] == [
            [h] * len(points) for h in hs]


class TestDgpCatalog:
    def test_unknown_id_and_bad_noise(self):
        with pytest.raises(SchemaError):
            make_dgp("cauchy_linear")
        with pytest.raises(SchemaError):
            make_dgp("uniform_linear", "laplace", 1.0)
        with pytest.raises(SchemaError):
            make_dgp("uniform_linear", "gaussian", 0.0)

    def test_noise_bounds(self):
        assert make_dgp("uniform_linear", "uniform", 0.3).noise.bound == 0.3
        assert make_dgp("uniform_linear", "gaussian", 0.3).noise.bound is None
        assert make_dgp("uniform_linear", "none").noise.bound == 0.0

    def test_product_density_values(self):
        d = make_dgp("uniform_linear", "none")
        assert product_density(d, (0.5, 0.5)) == 1.0
        assert product_density(d, (1.5, 0.5)) == 0.0
        dn = make_dgp("normal_linear", "gaussian", 1.0)
        assert product_density(dn, (0.0,)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_product_density_batch_shape(self):
        d = make_dgp("uniform_linear", "none")
        pts = np.array([[0.5, 0.5], [2.0, 0.5]])
        assert np.array_equal(product_density(d, pts), np.array([1.0, 0.0]))


class TestTrueRegression:
    def test_sum_and_product_linear_link(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        assert true_regression(d, builtin_member("sum", 2), (0.3, 0.4)) == pytest.approx(0.7)
        assert true_regression(
            d, builtin_member("product", 2), (0.2, 0.5)
        ) == pytest.approx(0.10)
        assert true_regression(d, builtin_member("one", 2), (0.1, 0.9)) == 1.0

    def test_identity_picks_one_coordinate(self):
        d = make_dgp("uniform_quadratic", "gaussian", 0.5)
        assert true_regression(
            d, builtin_member("identity_j:2", 2), (0.3, 0.4)
        ) == pytest.approx(0.16)

    def test_indicator_uses_noise_cdf(self):
        from scipy.special import ndtr

        d = make_dgp("uniform_linear", "gaussian", 0.5)
        v = true_regression(d, builtin_member("indicator_leq:0.6", 1), (0.4,))
        assert v == pytest.approx(float(ndtr((0.6 - 0.4) / 0.5)), rel=1e-12)

    def test_max_under_uniform_noise_matches_monte_carlo(self):
        d = make_dgp("uniform_linear", "uniform", 0.4)
        t = (0.3, 0.5)
        v = true_regression(d, builtin_member("max", 2), t)
        rng = make_rng(45)
        draws = np.max(
            np.array(t)[None, :] + rng.uniform(-0.4, 0.4, (400_000, 2)), axis=1
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(v - draws.mean()) <= 4 * se

    @pytest.mark.parametrize("m, t", [
        (1, (0.5,)), (1, (0.0,)), (1, (1.0,)), (1, (1.2,)),
        (2, (0.5, 0.5)), (2, (0.0, 1.0)), (2, (1.05, 0.5)), (2, (-0.3, 1.3)),
    ])
    def test_expected_u_one_is_expected_u_of_member_one(self, m, t):
        d = make_dgp("uniform_linear", "uniform", 0.25)
        k = get_kernel("epanechnikov-rescaled")
        for h in (0.2, 0.5):
            a = expected_u_one(d, m, k, h, t, 16)
            b = expected_u(d, builtin_member("one", m), k, h, t, 16)
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_max_cut_points_need_no_end_points_or_filter(self):
        # the rule with the end points lo and hi added to the cuts and the
        # cuts filtered to [lo, hi]: both steps change no bit
        def with_bounds(centers, a):
            lo, hi = float(np.min(centers) - a), float(np.max(centers) + a)
            cuts = np.unique(np.concatenate([centers - a, centers + a, [lo, hi]]))
            cuts = cuts[(cuts >= lo) & (cuts <= hi)]

            def survival(v):
                cdf = np.prod(np.clip((v[:, None] - centers[None, :] + a) / (2.0 * a),
                                      0.0, 1.0), axis=1)
                return 1.0 - cdf

            return lo + composite_integral(survival, cuts, centers.size + 2)

        rng = make_rng(46)
        for _ in range(20_000):
            a = float(rng.choice([0.1, 0.25, 0.4, rng.uniform(0.01, 1.0)]))
            size = int(rng.integers(1, 5))
            # centers on a grid of step a/2: ties, and panels that touch
            if rng.random() < 0.5:
                centers = rng.integers(-4, 5, size) * (a / 2.0)
            else:
                centers = rng.uniform(-1.0, 2.0, size)
            got = condu.estimator._max_uniform_expectation(centers[None, :], a)[0]
            assert np.float64(got).tobytes() == np.float64(with_bounds(centers, a)).tobytes()

    @staticmethod
    def frozen_max_uniform_expectation(centers, a):
        """The max truth of one row as it was before rows were batched: its
        own np.unique of the cuts and composite_integral."""
        centers = np.asarray(centers, dtype=float)
        if a == 0.0:
            return float(np.max(centers))
        cuts = np.unique(np.concatenate([centers - a, centers + a]))
        lo = float(cuts[0])

        def survival(v):
            cdf = np.prod(
                np.clip((v[:, None] - centers[None, :] + a) / (2.0 * a), 0.0, 1.0),
                axis=1,
            )
            return 1.0 - cdf

        return lo + composite_integral(survival, cuts, centers.size + 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 3), rows=st.integers(1, 40),
           a=st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.01, 1.0))
    def test_batched_max_truth_is_the_row_by_row_rule_bit_for_bit(self, data, m, rows, a):
        # half the draws put centers on a grid of step a/2: equal centers,
        # and cuts c_i + a that meet cuts c_j - a
        on_grid = st.integers(-4, 4).map(lambda k: k * (a / 2.0))
        values = st.one_of(on_grid, st.floats(-1.0, 2.0)) if a else st.floats(-1.0, 2.0)
        centers = np.array(data.draw(st.lists(values, min_size=rows * m, max_size=rows * m)),
                           dtype=float).reshape(rows, m)
        got = condu.estimator._max_uniform_expectation(centers, a)
        want = [self.frozen_max_uniform_expectation(row, a) for row in centers]
        assert got.tobytes() == np.array(want, dtype=float).tobytes()

    def test_max_under_gaussian_noise_has_no_closed_form(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        with pytest.raises(NoClosedFormConditional):
            true_regression(d, builtin_member("max", 2), (0.3, 0.5))

    def test_sum_clipped_requires_inactive_clip(self):
        d = make_dgp("uniform_linear", "uniform", 0.5)
        phi_ok = builtin_member("sum_clipped:4", 2)
        assert true_regression(d, phi_ok, (0.3, 0.4)) == pytest.approx(0.7)
        with pytest.raises(NoClosedFormConditional):
            true_regression(d, builtin_member("sum_clipped:1", 2), (0.3, 0.4))

    def test_batch_evaluation_matches_pointwise(self):
        d = make_dgp("uniform_quadratic", "gaussian", 0.5)
        phi = builtin_member("sum", 2)
        grid = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.3]])
        batch = true_regression(d, phi, grid)
        for row, v in zip(grid, batch):
            assert true_regression(d, phi, tuple(row)) == pytest.approx(v, rel=1e-14)


class TestConvolve:
    def test_constant_is_a_fixed_point(self):
        for kern in (UNIF, EPA):
            v = convolve(lambda p: np.full(p.shape[0], 2.5), kern, 0.3, (0.0, 0.0))
            assert v == pytest.approx(2.5, abs=1e-12)

    def test_linear_function_is_preserved_by_even_kernels(self):
        v = convolve(lambda p: p[:, 0], EPA, 0.4, (0.7,))
        assert v == pytest.approx(0.7, abs=1e-12)

    def test_cosine_against_closed_form(self):
        # uniform kernel: (cos * K~_h)(z) = 2 sin(h/2) cos(z) / h
        for z, h in [(0.0, 0.2), (1.1, 0.35), (-0.4, 0.5)]:
            v = convolve(lambda p: np.cos(p[:, 0]), UNIF, h, (z,))
            assert v == pytest.approx(2 * math.sin(h / 2) * math.cos(z) / h, abs=1e-10)

    def test_quadratic_under_uniform_kernel_gains_h_squared_over_12(self):
        for z, h in [(0.5, 0.2), (0.3, 0.1)]:
            v = convolve(lambda p: p[:, 0] ** 2, UNIF, h, (z,))
            assert v == pytest.approx(z ** 2 + h ** 2 / 12.0, abs=1e-12)

    def test_bias_halves_quadratically_for_smooth_targets(self):
        z = 0.4
        truth = math.cos(z)
        b = [abs(convolve(lambda p: np.cos(p[:, 0]), EPA, h, (z,)) - truth)
             for h in (0.2, 0.1)]
        assert 3.5 <= b[0] / b[1] <= 4.5


class TestCentering:
    def test_constant_one_centers_to_exactly_one(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        assert centering(builtin_member("one", 2), 0.2, (0.5, 0.5), d, EPA) == 1.0

    def test_linear_link_is_bias_free_in_the_interior(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        v = centering(builtin_member("identity_j:1", 1), 0.2, (0.5,), d, EPA)
        assert v == pytest.approx(0.5, abs=1e-8)

    def test_quadratic_link_uniform_kernel_exact_bias(self):
        d = make_dgp("uniform_quadratic", "gaussian", 0.5)
        for t, h in [(0.5, 0.2), (0.4, 0.3)]:
            v = centering(builtin_member("identity_j:1", 1), h, (t,), d, UNIF)
            assert v == pytest.approx(t ** 2 + h ** 2 / 12.0, abs=1e-8)

    def test_zero_density_window_raises(self):
        d = make_dgp("uniform_linear", "none")
        with pytest.raises(ZeroDensityWindow):
            centering(builtin_member("one", 1), 0.1, (5.0,), d, UNIF)

    def test_boundary_segmentation_two_dimensional(self):
        # window straddles the support edge; quadrature must split there
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        v = centering(builtin_member("one", 2), 0.3, (0.05, 0.5), d, UNIF)
        assert v == 1.0
        den = expected_u_one(d, 2, UNIF, 0.3, (0.05, 0.5))
        # mass of the window that overlaps [0,1]^2: (0.20/0.3) * 1
        assert den == pytest.approx(0.2 / 0.3, rel=1e-10)


class TestExpectedU:
    def test_matches_monte_carlo_mean_within_3_se(self):
        d = make_dgp("uniform_linear", "gaussian", 0.5)
        phi = builtin_member("identity_j:1", 1)
        h, t, n, reps = 0.3, (0.5,), 200, 2000
        target = expected_u(d, phi, UNIF, h, t)
        rng = make_rng(46)
        spec = UKernelSpec(phi, h, t, UNIF)
        vals = np.empty(reps)
        for r in range(reps):
            x = d.sample_x(rng, n)
            y = d.simulate_y_given_x(x, rng)
            vals[r] = u_stat_windowed(spec, Sample(x, y)).value
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se


class TestBiasSup:
    def test_quadratic_scaling_and_constant(self):
        d = make_dgp("uniform_quadratic", "gaussian", 0.5)
        fc = FunctionClass([builtin_member("identity_j:1", 1)])
        grid = [(t,) for t in np.linspace(0.35, 0.65, 5)]
        cfg = SimpleNamespace(dgp=d, fc=fc, m=1, kernel=UNIF, quad_order=64)
        cache = expectation_cache(cfg, None, (0.2, 0.1), grid)
        b = {h: bias_from_cache(cfg, (h,), grid, cache) for h in (0.2, 0.1)}
        assert 3.5 <= b[0.2] / b[0.1] <= 4.5
        for h, v in b.items():
            assert 1 / 24 <= v / h ** 2 <= 1 / 6
