import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condu.estimator
import condu.harness
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
from conftest import frozen_composite_integral, make_rng, random_sample


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

    @pytest.mark.parametrize("dgp_id", sorted(condu.estimator._DGP_BUILDERS))
    def test_builtin_density_integrates_to_one_over_its_support(self, dgp_id):
        dgp = make_dgp(dgp_id)
        total = composite_integral(dgp.fx, np.linspace(*dgp.support, 33), 64)
        assert abs(total - 1.0) <= 1e-8

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

            return lo + frozen_composite_integral(survival, cuts, centers.size + 2)

        rng = make_rng(46)
        cases = []
        for _ in range(20_000):
            a = float(rng.choice([0.1, 0.25, 0.4, rng.uniform(0.01, 1.0)]))
            size = int(rng.integers(1, 5))
            # centers on a grid of step a/2: ties, and panels that touch
            if rng.random() < 0.5:
                centers = rng.integers(-4, 5, size) * (a / 2.0)
            else:
                centers = rng.uniform(-1.0, 2.0, size)
            cases.append((a, centers))
        # one batched call per (a, size); each row keeps the bits of a call
        # of its own (the batched max truth property below)
        groups, got = {}, [None] * len(cases)
        for i, (a, centers) in enumerate(cases):
            groups.setdefault((a, centers.size), []).append(i)
        for (a, _), rows in groups.items():
            values = condu.estimator._max_uniform_expectation(
                np.array([cases[i][1] for i in rows]), a)
            for i, v in zip(rows, values):
                got[i] = v
        for (a, centers), v in zip(cases, got):
            assert np.float64(v).tobytes() == np.float64(with_bounds(centers, a)).tobytes()

    @staticmethod
    def frozen_max_uniform_expectation(centers, a):
        """The max truth of one row as it was before rows were batched: its
        own np.unique of the cuts and the frozen composite rule."""
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

        return lo + frozen_composite_integral(survival, cuts, centers.size + 2)

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


def frozen_expected_u(dgp, phi, kernel, h, t, quad_order):
    """E U_n(phi, h, t) as it was computed point by point before the grid
    routine: the point's cuts at the support ends, its tensor rule, the
    integrand m_phi * f~ at z - h*U, and one np.dot."""
    z = np.asarray(t, dtype=float).ravel()
    cuts = tuple(
        tuple(sorted({u for u in ((zj - b) / h for b in list(dgp.support)) if -0.5 < u < 0.5}))
        for zj in z
    )
    U, w, kw = condu.estimator._kernel_rule(kernel, quad_order, cuts)
    pts = z[None, :] - h * U
    vals = np.asarray(true_regression(dgp, phi, pts), dtype=float) * product_density(dgp, pts)
    return float(np.dot(vals * kw, w))


# (dgp id, noise, noise parameter); normal_linear's support ends at -+6 cut
# only the points near them, so its grids split into several cut groups
GRID_DGPS = [("uniform_linear", "uniform", 0.25), ("uniform_quadratic", "gaussian", 0.3),
             ("normal_linear", "uniform", 0.3), ("normal_linear", "gaussian", 0.5),
             ("uniform_linear", "none", 0.0)]
# per m, orders whose tensor rule is below and above one block of 8,192
# mapped points (an axis cut at a support end doubles its nodes)
GRID_ORDERS = {1: [3, 32, 64], 2: [4, 20, 91], 3: [3, 12, 21]}


def grid_members(dgp, m):
    """Every built-in member with a closed-form truth under the dgp."""
    ids = ["sum", "product", "one", "const:-1.5", "indicator_leq:0.3", "sum_clipped:50"]
    ids += [f"identity_j:{j}" for j in range(1, m + 1)]
    if dgp.noise.kind != "gaussian":
        ids.append("max")
    return [builtin_member(i, m) for i in ids if i != "sum_clipped:50" or dgp.noise.bound is not None]


class TestExpectedUGrid:
    """expected_u_grid against the per-point rule it replaced, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_grid_is_the_per_point_rule_bit_for_bit(self, m, data):
        dgp = make_dgp(*data.draw(st.sampled_from(GRID_DGPS)))
        kernel = get_kernel(data.draw(st.sampled_from(
            ["uniform", "epanechnikov-rescaled", "triweight-rescaled"])))
        h = data.draw(st.sampled_from([0.05, 0.3, 0.999]) | st.floats(0.01, 2.0))
        quad_order = data.draw(st.sampled_from(GRID_ORDERS[m]))
        block = data.draw(st.sampled_from([1, 50, condu.estimator._BLOCK_POINTS]))
        lo, hi = dgp.support
        # points on and near the support ends, where the cuts fall, and inside
        near_end = st.tuples(st.sampled_from([lo, hi]), st.floats(-0.6, 0.6)).map(sum)
        coord = near_end | st.sampled_from([lo, hi, 0.5]) | st.floats(lo - 0.5, hi + 0.5)
        points = data.draw(st.lists(st.tuples(*[coord] * m), min_size=1, max_size=6))
        members = grid_members(dgp, m)
        if quad_order != GRID_ORDERS[m][0]:
            # the max truth costs up to 50 ms per point at the larger rules,
            # on each side; its rows are independent at any batch size (the
            # batched max truth property above)
            members = [phi for phi in members if phi.id != "max"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.estimator, "_BLOCK_POINTS", block)
            den, nums = condu.estimator.expected_u_grid(dgp, members, kernel, h, points,
                                                         quad_order)
        one = builtin_member("one", m)
        want = [frozen_expected_u(dgp, one, kernel, h, t, quad_order) for t in points]
        assert den.tobytes() == np.array(want).tobytes()
        for phi, got in zip(members, nums):
            want = [frozen_expected_u(dgp, phi, kernel, h, t, quad_order) for t in points]
            assert got.tobytes() == np.array(want).tobytes(), phi.id
        t, phi = points[0], members[-1]
        assert np.float64(expected_u(dgp, phi, kernel, h, t, quad_order)).tobytes() == (
            np.float64(nums[-1][0]).tobytes())
        assert np.float64(expected_u_one(dgp, m, kernel, h, t, quad_order)).tobytes() == (
            np.float64(den[0]).tobytes())

    @pytest.mark.parametrize("m, members", [
        (1, ["identity_j:1", "max", "indicator_leq:0.5"]),
        (2, ["sum", "max", "product"]),
        (3, ["sum", "max", "identity_j:2"]),
    ])
    def test_expectation_cache_is_the_per_point_cache_bit_for_bit(self, m, members,
                                                                  monkeypatch):
        dgp = make_dgp("normal_linear", "uniform", 0.25)
        fc = FunctionClass([builtin_member(i, m) for i in members])
        cfg = SimpleNamespace(dgp=dgp, fc=fc, m=m, kernel=EPA, quad_order=6)
        axis = (-5.9, 0.4, 5.95)
        grid = list(itertools.product(axis, repeat=m))
        hs = (0.2, 0.7)
        want_truth = [[float(true_regression(dgp, phi, np.asarray(t))) for t in grid]
                      for phi in fc.members]
        want = {}
        for h in hs:
            eu1 = [frozen_expected_u(dgp, builtin_member("one", m), EPA, h, t, 6)
                   for t in grid]
            eu = [[frozen_expected_u(dgp, phi, EPA, h, t, 6) for t in grid]
                  for phi in fc.members]
            want[h] = (eu1, eu, [[e / d for e, d in zip(row, eu1)] for row in eu])
        if m > 1:
            # the far corners' windows hold less design density than the
            # zero-density cutoff: the table raises, unless the rule is lifted
            with pytest.raises(ZeroDensityWindow):
                expectation_cache(cfg, hs, grid)
            monkeypatch.setattr(condu.harness, "centering_ratio", lambda e, d, h, t: e / d)
        truth, table = expectation_cache(cfg, hs, grid)
        assert list(table) == list(hs)
        shape = (len(fc.members), len(grid))
        for h in hs:
            assert [np.shape(x) for x in table[h]] == [shape[1:], shape, shape]
        got = [truth] + [x for h in hs for x in table[h]]
        expected = [want_truth] + [x for h in hs for x in want[h]]
        for g, w in zip(got, expected):
            rows = g if isinstance(g[0], list) else [g]
            assert all(type(v) is float for row in rows for v in row)
            assert np.array(g).tobytes() == np.array(w).tobytes()


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
        cache = expectation_cache(cfg, (0.2, 0.1), grid)
        b = {h: bias_from_cache((h,), cache) for h in (0.2, 0.1)}
        assert 3.5 <= b[0.2] / b[0.1] <= 4.5
        for h, v in b.items():
            assert 1 / 24 <= v / h ** 2 <= 1 / 6
