import math

import numpy as np
import pytest

import condu.hoeffding
from condu.errors import InvalidProjectionOrder, MeasureTooLarge, SchemaError
from condu.estimator import make_dgp
from condu.hoeffding import (
    ReferenceMeasure,
    decomposition_check,
    degeneracy_check,
    empirical_measure,
    nesting_check,
    project,
    projection_variance_check,
    variance_bound_check,
)
from condu.ucore import Sample, symmetrize
from conftest import make_rng, random_sample


def uniform01_measure():
    # uniform on y-atoms {0, 1}; x-coordinates irrelevant for y-only kernels
    return ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                            np.array([0.5, 0.5]))


class TestReferenceMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(SchemaError):
            ReferenceMeasure(np.array([0.0]), np.array([0.0]), np.array([0.9]))

    @pytest.mark.parametrize("ax, ay, w", [
        ([0.0, 1.0], [0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [0.0, 1.0], [math.inf, 1.0]),
        ([0.0, math.inf], [0.0, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [-math.inf, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 1.0], [0.5, 0.5]),
    ], ids=["nan-weight", "inf-weight", "inf-x", "-inf-y", "nan-y"])
    def test_non_finite_atoms_and_weights_are_rejected(self, ax, ay, w):
        with pytest.raises(SchemaError, match="finite"):
            ReferenceMeasure(np.array(ax), np.array(ay), np.array(w))

    def test_empirical_measure_is_uniform(self):
        s = Sample(np.array([0.1, 0.2]), np.array([1.0, 2.0]))
        Q = empirical_measure(s)
        assert np.allclose(Q.weights, 0.5)


class TestProject:
    def test_first_order_projection_is_centering_at_the_mean(self):
        # L = y, Q uniform on {0, 1}: pi_1 L = y - 1/2
        pk = project(lambda xs, ys: ys[0], 1, 1, uniform01_measure())
        assert pk((0.0,), (1.0,)) == pytest.approx(0.5, abs=1e-14)
        assert pk((0.0,), (0.0,)) == pytest.approx(-0.5, abs=1e-14)

    def test_constants_are_annihilated(self):
        Q = uniform01_measure()
        for k in (1, 2):
            pk = project(lambda xs, ys: 3.25, 2, k, Q)
            assert pk((0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_partial_projection_hand_expansion(self):
        # L = y1*y2, m=2, k=1: pi_1 L(y) = E[y*Y2] - E[Y1*Y2] = y/2 - 1/4
        pk = project(lambda xs, ys: ys[0] * ys[1], 2, 1, uniform01_measure())
        for y in (0.0, 1.0, 0.3):
            assert pk((0.0,), (y,)) == pytest.approx(y / 2 - 0.25, abs=1e-14)

    def test_order_out_of_range(self):
        with pytest.raises(InvalidProjectionOrder):
            project(lambda xs, ys: 1.0, 2, 3, uniform01_measure())

    def test_atom_budget_guard(self):
        n = 500
        Q = ReferenceMeasure(np.zeros(n), np.zeros(n), np.full(n, 1.0 / n))
        with pytest.raises(MeasureTooLarge):
            project(lambda xs, ys: 1.0, 3, 1, Q)


class TestDecomposition:
    def test_product_kernel_with_empirical_measure(self):
        s = Sample(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        L = lambda xs, ys: ys[0] * ys[1]
        assert decomposition_check(L, 2, s, empirical_measure(s)) <= 1e-10

    def test_first_order_is_telescoping(self):
        s = Sample(np.array([0.1, 0.4]), np.array([2.0, 5.0]))
        Q = uniform01_measure()
        assert decomposition_check(lambda xs, ys: ys[0] ** 2, 1, s, Q) <= 1e-12

    def test_third_order_random_polynomial(self):
        rng = make_rng(31)
        s = random_sample(rng, 10)
        Q = empirical_measure(random_sample(rng, 4))
        c = rng.normal(0, 1, 4)

        def L(xs, ys):
            return (
                c[0]
                + c[1] * (ys[0] + ys[1] + ys[2])
                + c[2] * ys[0] * ys[1] * ys[2]
                + c[3] * (xs[0] * xs[1] + xs[1] * xs[2] + xs[0] * xs[2])
            )

        assert decomposition_check(L, 3, s, Q) <= 1e-10


class TestDegeneracy:
    def test_first_order_projection_is_centered(self):
        Q = uniform01_measure()
        pk = project(lambda xs, ys: ys[0] ** 3 + 2.0, 1, 1, Q)
        assert degeneracy_check(pk, Q) <= 1e-12

    def test_full_projection_of_product_kernel(self):
        rng = make_rng(32)
        Q = empirical_measure(random_sample(rng, 4))
        pk = project(lambda xs, ys: ys[0] * ys[1], 2, 2, Q)
        assert degeneracy_check(pk, Q) <= 1e-12

    def test_constant_gives_exact_zero(self):
        Q = uniform01_measure()
        pk = project(lambda xs, ys: 5.0, 2, 2, Q)
        assert degeneracy_check(pk, Q) == pytest.approx(0.0, abs=1e-14)


class TestNesting:
    def test_idempotence_at_equal_orders(self):
        rng = make_rng(33)
        Q = empirical_measure(random_sample(rng, 4))
        L = symmetrize(lambda xs, ys: ys[0] * ys[1] + xs[0], 2)
        probes = [((0.1, 0.2), (1.0, -1.0)), ((0.5, 0.5), (2.0, 2.0))]
        assert nesting_check(L, 2, 2, 2, Q, probes) <= 1e-12

    def test_canonical_projection_idempotent_on_its_own_order(self):
        # pi_k of an already canonical k-ary kernel is itself
        rng = make_rng(34)
        Q = empirical_measure(random_sample(rng, 4))
        L = symmetrize(lambda xs, ys: ys[0] * ys[1] + ys[0] + ys[1], 2)
        pk = project(L, 2, 2, Q)
        pkk = project(pk, 2, 2, Q)
        for xs, ys in [((0.1, 0.2), (1.0, -1.0)), ((0.0, 0.9), (0.5, 3.0))]:
            assert pkk(xs, ys) == pytest.approx(pk(xs, ys), abs=1e-12)

    def test_nested_composition_drops_to_lower_order(self):
        # the worked case: m=2, k=1, l=2, L=y1*y2, Q uniform on {0,1}
        Q = uniform01_measure()
        L = lambda xs, ys: ys[0] * ys[1]
        probes = [((0.0,), (0.0,)), ((0.0,), (1.0,)), ((0.0,), (0.37,))]
        assert nesting_check(L, 2, 1, 2, Q, probes) <= 1e-12

    def test_constant_kernel_gives_zero(self):
        Q = uniform01_measure()
        probes = [((0.0,), (0.0,))]
        assert nesting_check(lambda xs, ys: 4.0, 2, 1, 2, Q, probes) == pytest.approx(
            0.0, abs=1e-14
        )


class TestProjectionVariance:
    def test_constant_kernel(self):
        Q = uniform01_measure()
        lhs, mid, rhs = projection_variance_check(lambda xs, ys: 2.0, 2, 1, Q)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert mid == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(4.0, rel=1e-14)

    def test_first_order_projection_variance_equals_variance(self):
        Q = uniform01_measure()
        lhs, mid, rhs = projection_variance_check(lambda xs, ys: ys[0], 1, 1, Q)
        assert lhs == pytest.approx(mid, abs=1e-14)
        assert mid <= rhs + 1e-12

    def test_two_sided_inequality_product_kernel(self):
        Q = uniform01_measure()
        lhs, mid, rhs = projection_variance_check(
            lambda xs, ys: ys[0] * ys[1], 2, 1, Q
        )
        assert lhs <= mid + 1e-12
        assert mid <= rhs + 1e-12


class TestVarianceBound:
    @pytest.mark.parametrize("n, reps, name", [
        (5.5, 500, "n"), (True, 500, "n"), (0, 500, "n"), ("5", 500, "n"),
        (5, 500.5, "reps"), (5, True, "reps"), (5, 499, "reps"), (5, None, "reps")])
    def test_an_n_or_reps_that_is_no_integer_in_budget_raises_before_any_draw(
            self, n, reps, name, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(condu.hoeffding, "generator", no_draw)
        with pytest.raises(SchemaError, match=f"^{name} "):
            variance_bound_check(lambda xs, ys: ys[..., 0], 1, make_dgp("uniform_linear"),
                                 n, reps, seed=1)

    def test_constant_kernel_zero_variance(self):
        dgp = make_dgp("uniform_linear", "none")
        emp, bound, se = variance_bound_check(
            lambda xs, ys: np.full(xs.shape[:-1], 3.0), 2, dgp, 50, 500, seed=1
        )
        assert emp == 0.0
        assert bound == pytest.approx((2 / 50) * 9.0, rel=1e-12)

    def test_mean_of_uniform_hits_classical_bound(self):
        # Y ~ U(0,1): Var(mean) = 1/(12n) <= E Y^2 / n = 1/(3n)
        dgp = make_dgp("uniform_linear", "none")
        n = 50
        emp, bound, se = variance_bound_check(
            lambda xs, ys: ys[..., 0], 1, dgp, n, 2000, seed=2
        )
        assert emp == pytest.approx(1.0 / (12 * n), rel=0.2)
        assert bound == pytest.approx(1.0 / (3 * n), rel=0.05)
        assert emp <= bound + 3 * se
