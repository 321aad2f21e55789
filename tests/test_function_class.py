import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condu.errors import DimensionMismatch, SchemaError
from condu.estimator import make_dgp
from condu.function_class import (
    Bounded,
    FunctionSpec,
    Unbounded,
    builtin_member,
    conditional_moment_estimate,
    envelope_check,
    envelope_tilde,
    make_function_class,
    member_kind,
    polynomial_member,
)

BUILTIN_IDS = ["sum", "product", "max", "one", "const:2.5", "identity_j:2",
               "indicator_leq:0.5", "sum_clipped:1.5"]


class TestMemberKind:
    @pytest.mark.parametrize("spec_id", BUILTIN_IDS)
    def test_builtin_ids_round_trip(self, spec_id):
        kind, param = member_kind(spec_id)
        assert (kind if param is None else f"{kind}:{param}") == spec_id
        assert builtin_member(spec_id, 2).id == spec_id

    @pytest.mark.parametrize("spec_id", ["q", "sum:3", "one:1"])
    def test_ids_outside_the_family(self, spec_id):
        assert member_kind(spec_id) == (None, None)

    @pytest.mark.parametrize("spec_id", ["const:abc", "identity_j:1.5"])
    def test_bad_number_is_a_schema_error(self, spec_id):
        with pytest.raises(SchemaError):
            member_kind(spec_id)

    @pytest.mark.parametrize("spec_id", ["sum", "identity_j:1", "const:abc"])
    def test_polynomial_may_not_take_a_builtin_id(self, spec_id):
        with pytest.raises(SchemaError):
            polynomial_member(spec_id, 1, [(1.0, (3,))])

    def test_duplicate_member_ids_are_rejected(self):
        members = [builtin_member("sum", 1), polynomial_member("q", 1, [(5.0, (0,))]),
                   polynomial_member("q", 1, [(1.0, (1,))])]
        with pytest.raises(SchemaError, match="duplicate"):
            make_function_class(members, Bounded(5.0))


class TestBuiltinMembers:
    def test_sum_product_max_small_values(self):
        y = np.array([1.0, 2.0])
        assert builtin_member("sum", 2)(y) == 3.0
        assert builtin_member("product", 2)(y) == 2.0
        assert builtin_member("max", 2)(y) == 2.0

    def test_identity_and_indicator(self):
        y = np.array([1.0, -2.0])
        assert builtin_member("identity_j:2", 2)(y) == -2.0
        assert builtin_member("indicator_leq:0.0", 2)(y) == 0.0
        assert builtin_member("indicator_leq:1.5", 2)(y) == 1.0

    def test_sum_clipped_is_inactive_inside_bound(self):
        y = np.array([1.0, 2.0])
        assert builtin_member("sum_clipped:10", 2)(y) == 3.0
        assert builtin_member("sum_clipped:2", 2)(y) == 2.0

    def test_identity_index_out_of_range(self):
        with pytest.raises(SchemaError):
            builtin_member("identity_j:3", 2)

    def test_polynomial_member_matches_hand_expansion(self):
        # 2*y1*y2 + y1^2 at (3, 4) -> 24 + 9 = 33
        f = polynomial_member("q", 2, [(2.0, (1, 1)), (1.0, (2, 0))])
        assert f(np.array([3.0, 4.0])) == 33.0

    def test_wrong_trailing_dimension_raises(self):
        with pytest.raises(DimensionMismatch):
            builtin_member("sum", 2)(np.array([1.0, 2.0, 3.0]))


class TestEnvelope:
    def test_triangle_inequality_family_passes(self, rng):
        members = [
            FunctionSpec("plus", lambda y: y[..., 0] + y[..., 1], 2),
            FunctionSpec("minus", lambda y: y[..., 0] - y[..., 1], 2),
        ]
        fc = make_function_class(
            members, Bounded(2.0),
            envelope=lambda y: np.abs(y[..., 0]) + np.abs(y[..., 1]),
        )
        probes = rng.uniform(-1, 1, (200, 2))
        assert envelope_check(fc, probes).passed

    def test_undersized_envelope_fails_with_culprit(self):
        fc = make_function_class(
            [FunctionSpec("double", lambda y: 2.0 * y[..., 0], 1)],
            Bounded(2.0),
            envelope=lambda y: np.abs(y[..., 0]),
        )
        rep = envelope_check(fc, np.array([[1.0]]))
        assert not rep.passed
        assert rep.max_violation == pytest.approx(1.0)
        assert rep.offending_member == "double"

    def test_default_envelope_is_pointwise_max(self, rng):
        fc = make_function_class(
            [builtin_member("sum", 2), builtin_member("product", 2)], Bounded(10.0)
        )
        assert envelope_check(fc, rng.uniform(-2, 2, (100, 2))).passed

    def test_envelope_equal_to_abs_member_has_zero_violation(self, rng):
        fc = make_function_class(
            [builtin_member("product", 2)],
            Bounded(4.0),
            envelope=lambda y: np.abs(y[..., 0] * y[..., 1]),
        )
        rep = envelope_check(fc, rng.uniform(-1, 1, (50, 2)))
        assert rep.passed
        assert rep.max_violation == 0.0


class TestEnvelopeTilde:
    def test_two_permutations_sum(self):
        fc = make_function_class(
            [builtin_member("sum", 2)], Bounded(3.0),
            envelope=lambda y: np.abs(y[..., 0]) + np.abs(y[..., 1]),
        )
        assert envelope_tilde(fc, 1.0, np.array([1.0, 2.0])) == 6.0

    def test_m1_scales_by_kappa(self):
        fc = make_function_class(
            [builtin_member("identity_j:1", 1)], Bounded(3.0),
            envelope=lambda y: np.abs(y[..., 0]),
        )
        assert envelope_tilde(fc, 2.0, np.array([3.0])) == 6.0

    def test_symmetric_envelope_collapses_to_factorial_multiple(self, rng):
        fc = make_function_class([builtin_member("product", 2)], Bounded(1.0))
        y = rng.uniform(-1, 1, (20, 2))
        expected = 2.0 * np.abs(y[:, 0] * y[:, 1])
        assert np.allclose(envelope_tilde(fc, 1.0, y), expected, atol=1e-15)

    @given(
        y1=st.floats(-3, 3), y2=st.floats(-3, 3), kappa=st.floats(0.5, 3.0)
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance_and_lower_bound(self, y1, y2, kappa):
        fc = make_function_class([builtin_member("sum", 2)], Bounded(6.0))
        a = envelope_tilde(fc, kappa, np.array([y1, y2]))
        b = envelope_tilde(fc, kappa, np.array([y2, y1]))
        assert a == b
        assert a >= kappa ** 2 * float(fc.envelope(np.array([y1, y2]))) - 1e-12

    def test_bounded_class_global_bound(self, rng):
        M, kappa, m = 5.0, 1.5, 2
        fc = make_function_class(
            [builtin_member("sum_clipped:5", m)], Bounded(M)
        )
        y = rng.normal(0, 10, (500, m))
        ft = envelope_tilde(fc, kappa, y)
        assert np.all(ft <= kappa ** m * math.factorial(m) * M + 1e-12)


class TestConditionalMoment:
    def test_deterministic_link_gives_exact_power(self):
        dgp = make_dgp("uniform_linear", "none")
        fc = make_function_class(
            [builtin_member("identity_j:1", 1)], Unbounded(p=3.0),
            envelope=lambda y: np.abs(y[..., 0]),
        )
        v = conditional_moment_estimate(fc, dgp, 3.0, [(0.5,)], 1000, seed=1)
        assert v == pytest.approx(0.125, abs=1e-12)

    def test_constant_envelope_gives_one(self):
        dgp = make_dgp("uniform_linear", "gaussian", 0.5)
        fc = make_function_class(
            [builtin_member("one", 1)], Unbounded(p=4.0),
            envelope=lambda y: np.ones(y.shape[:-1]),
        )
        v = conditional_moment_estimate(fc, dgp, 4.0, [(0.2,), (0.8,)], 1000, seed=2)
        assert v == 1.0

    def test_gaussian_fourth_moment_matches_closed_form(self):
        # oracle: E|x + sigma Z|^4 = x^4 + 6 x^2 sigma^2 + 3 sigma^4
        sigma, x = 0.5, 0.0
        dgp = make_dgp("uniform_linear", "gaussian", sigma)
        fc = make_function_class(
            [builtin_member("identity_j:1", 1)], Unbounded(p=4.0),
            envelope=lambda y: np.abs(y[..., 0]),
        )
        reps = 200_000
        v = conditional_moment_estimate(fc, dgp, 4.0, [(x,)], reps, seed=3)
        truth = x ** 4 + 6 * x ** 2 * sigma ** 2 + 3 * sigma ** 4
        # se of the MC mean of (x + sigma Z)^4: sd = sigma^4 sqrt(96)
        se = sigma ** 4 * math.sqrt(96.0) / math.sqrt(reps)
        assert abs(v - truth) <= 3 * se

    def test_determinism_given_seed(self):
        dgp = make_dgp("uniform_linear", "gaussian", 0.5)
        fc = make_function_class(
            [builtin_member("identity_j:1", 1)], Unbounded(p=3.0),
            envelope=lambda y: np.abs(y[..., 0]),
        )
        a = conditional_moment_estimate(fc, dgp, 3.0, [(0.5,)], 2000, seed=9)
        b = conditional_moment_estimate(fc, dgp, 3.0, [(0.5,)], 2000, seed=9)
        assert a == b


class TestRegimes:
    def test_unbounded_requires_p_above_two(self):
        with pytest.raises(ValueError):
            Unbounded(p=2.0)

    def test_members_must_agree_on_arity(self):
        with pytest.raises(DimensionMismatch):
            make_function_class(
                [builtin_member("sum", 2), builtin_member("sum", 3)], Bounded(1.0)
            )
