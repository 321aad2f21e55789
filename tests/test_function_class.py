import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condu.errors import DimensionMismatch, SchemaError
from condu.function_class import (
    Bounded,
    FunctionClass,
    Unbounded,
    builtin_member,
    envelope_tilde,
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
            FunctionClass(members, Bounded(5.0))


class TestBuiltinMembers:
    def test_sum_product_max_small_values(self):
        y = np.array([1.0, 2.0])
        assert builtin_member("sum", 2).eval(y) == 3.0
        assert builtin_member("product", 2).eval(y) == 2.0
        assert builtin_member("max", 2).eval(y) == 2.0

    def test_identity_and_indicator(self):
        y = np.array([1.0, -2.0])
        assert builtin_member("identity_j:2", 2).eval(y) == -2.0
        assert builtin_member("indicator_leq:0.0", 2).eval(y) == 0.0
        assert builtin_member("indicator_leq:1.5", 2).eval(y) == 1.0

    def test_sum_clipped_is_inactive_inside_bound(self):
        y = np.array([1.0, 2.0])
        assert builtin_member("sum_clipped:10", 2).eval(y) == 3.0
        assert builtin_member("sum_clipped:2", 2).eval(y) == 2.0

    def test_identity_index_out_of_range(self):
        with pytest.raises(SchemaError):
            builtin_member("identity_j:3", 2)

    def test_polynomial_member_matches_hand_expansion(self):
        # 2*y1*y2 + y1^2 at (3, 4) -> 24 + 9 = 33
        f = polynomial_member("q", 2, [(2.0, (1, 1)), (1.0, (2, 0))])
        assert f.eval(np.array([3.0, 4.0])) == 33.0

    @pytest.mark.parametrize("exponent", [2.5, -1, True, math.inf, "2"])
    def test_polynomial_exponent_must_be_a_nonnegative_integer(self, exponent):
        with pytest.raises(SchemaError, match="'q'"):
            polynomial_member("q", 1, [(1.0, (exponent,))])

    def test_polynomial_exponent_may_be_an_integral_float(self):
        assert polynomial_member("q", 1, [(1.0, (2.0,))]).eval(np.array([3.0])) == 9.0


class TestEnvelope:
    def test_default_envelope_is_pointwise_max(self, rng):
        members = [builtin_member("sum", 2), builtin_member("product", 2)]
        fc = FunctionClass(members, Bounded(10.0))
        y = rng.uniform(-2, 2, (100, 2))
        expected = np.maximum(np.abs(y[:, 0] + y[:, 1]), np.abs(y[:, 0] * y[:, 1]))
        assert np.array_equal(fc.envelope(y), expected)


class TestEnvelopeTilde:
    def test_two_permutations_sum(self):
        fc = FunctionClass([builtin_member("sum", 2)], Bounded(3.0))
        assert envelope_tilde(fc, 1.0, np.array([1.0, 2.0])) == 6.0

    def test_m1_scales_by_kappa(self):
        fc = FunctionClass([builtin_member("identity_j:1", 1)], Bounded(3.0))
        assert envelope_tilde(fc, 2.0, np.array([3.0])) == 6.0

    def test_symmetric_envelope_collapses_to_factorial_multiple(self, rng):
        fc = FunctionClass([builtin_member("product", 2)], Bounded(1.0))
        y = rng.uniform(-1, 1, (20, 2))
        expected = 2.0 * np.abs(y[:, 0] * y[:, 1])
        assert np.allclose(envelope_tilde(fc, 1.0, y), expected, atol=1e-15)

    @given(
        y1=st.floats(-3, 3), y2=st.floats(-3, 3), kappa=st.floats(0.5, 3.0)
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance_and_lower_bound(self, y1, y2, kappa):
        fc = FunctionClass([builtin_member("sum", 2)], Bounded(6.0))
        a = envelope_tilde(fc, kappa, np.array([y1, y2]))
        b = envelope_tilde(fc, kappa, np.array([y2, y1]))
        assert a == b
        assert a >= kappa ** 2 * float(fc.envelope(np.array([y1, y2]))) - 1e-12

    def test_bounded_class_global_bound(self, rng):
        M, kappa, m = 5.0, 1.5, 2
        fc = FunctionClass(
            [builtin_member("sum_clipped:5", m)], Bounded(M)
        )
        y = rng.normal(0, 10, (500, m))
        ft = envelope_tilde(fc, kappa, y)
        assert np.all(ft <= kappa ** m * math.factorial(m) * M + 1e-12)


class TestRegimes:
    def test_unbounded_requires_p_above_two(self):
        with pytest.raises(ValueError):
            Unbounded(p=2.0)

    def test_members_must_agree_on_arity(self):
        with pytest.raises(DimensionMismatch):
            FunctionClass(
                [builtin_member("sum", 2), builtin_member("sum", 3)], Bounded(1.0)
            )
