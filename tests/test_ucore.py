import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condu.errors import (
    BruteForceBudgetExceeded,
    BudgetExceedsPopulation,
    DegenerateSample,
    InvalidBandwidth,
    NonFiniteSum,
    PopulationTooLarge,
    SchemaError,
    UnsupportedOrder,
)
from condu.function_class import FunctionSpec, builtin_member, polynomial_member
from condu.kernels import eval_scaled, get_kernel, table_kernel
import condu.ucore
from condu.ucore import (
    EXACT_PATH_MAX,
    Sample,
    UKernelSpec,
    WindowGrid,
    _common_positions,
    _tuples_eval,
    _windows,
    count_indices,
    incomplete_u,
    read_sample_csv,
    symmetrize,
    u_process,
    u_stat_brute,
    u_stat_windowed,
    ukernel_scalar,
    write_sample_csv,
)
from conftest import make_rng, random_sample


class TestCountIndices:
    def test_ordered_pairs_of_five(self):
        assert count_indices(5, 2) == 20

    def test_full_permutations(self):
        assert count_indices(3, 3) == 6

    def test_empty_when_order_exceeds_n(self):
        assert count_indices(2, 3) == 0


class TestBrute:
    def test_mean_for_first_order_identity(self):
        s = Sample(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        res = u_stat_brute(lambda xs, ys: ys[0], s, 1)
        assert res.value == 2.0
        assert res.mode == "brute"

    def test_constant_kernel_averages_to_itself(self):
        s = Sample(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        assert u_stat_brute(lambda xs, ys: 7.5, s, 2).value == 7.5

    def test_pairwise_product_hand_enumeration(self):
        # ordered pairs of {1,2,3}: products 2,3,2,6,3,6 -> mean 22/6 = 11/3
        s = Sample(np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        assert u_stat_brute(lambda xs, ys: ys[0] * ys[1], s, 2).value == pytest.approx(
            11.0 / 3.0, rel=1e-15
        )

    def test_order_exceeding_n_raises(self):
        s = Sample(np.array([0.1]), np.array([1.0]))
        with pytest.raises(DegenerateSample):
            u_stat_brute(lambda xs, ys: 1.0, s, 2)

    def test_budget_guard_fires(self):
        s = Sample(np.arange(2000.0), np.arange(2000.0))
        with pytest.raises(BruteForceBudgetExceeded):
            u_stat_brute(lambda xs, ys: 1.0, s, 3)


class TestWindowed:
    def test_two_of_three_points_inside_window(self):
        # g=1, uniform K, m=1, h=1, t=0: |x| <= 1/2 keeps -0.2 and 0.1
        s = Sample(np.array([-0.2, 0.6, 0.1]), np.array([1.0, 1.0, 1.0]))
        spec = UKernelSpec(builtin_member("one", 1), 1.0, (0.0,), get_kernel("uniform"))
        assert u_stat_windowed(spec, s).value == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_remote_t_gives_zero_with_no_tuples(self):
        s = Sample(np.array([0.0, 0.1]), np.array([1.0, 2.0]))
        spec = UKernelSpec(builtin_member("one", 1), 0.1, (5.0,), get_kernel("uniform"))
        res = u_stat_windowed(spec, s)
        assert res.value == 0.0
        assert res.tuples_evaluated == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kid", ["uniform", "epanechnikov-rescaled"])
    def test_matches_brute_oracle_small_samples(self, m, kid):
        rng = make_rng(100 + m)
        for rep in range(5):
            s = random_sample(rng, 15)
            h = float(rng.uniform(0.1, 0.8))
            t = tuple(rng.uniform(0.2, 0.8, m))
            phi = builtin_member("sum", m)
            spec = UKernelSpec(phi, h, t, get_kernel(kid))
            brute = u_stat_brute(ukernel_scalar(spec), s, m).value
            fast = u_stat_windowed(spec, s).value
            assert abs(fast - brute) <= 1e-12 * (1.0 + abs(brute))

    def test_large_window_vectorized_path_matches_brute(self):
        # force the vectorized m=2 path (window above the exact-path cutoff)
        rng = make_rng(7)
        s = random_sample(rng, 60)
        spec = UKernelSpec(
            builtin_member("product", 2), 0.9, (0.5, 0.5),
            get_kernel("epanechnikov-rescaled"),
        )
        brute = u_stat_brute(ukernel_scalar(spec), s, 2).value
        res = u_stat_windowed(spec, s)
        assert res.tuples_evaluated > 400  # vectorized branch actually taken
        assert abs(res.value - brute) <= 1e-12 * (1.0 + abs(brute))

    def test_large_window_vectorized_m3_matches_brute(self):
        rng = make_rng(8)
        s = random_sample(rng, 30)
        spec = UKernelSpec(
            builtin_member("sum", 3), 0.9, (0.5, 0.5, 0.5), get_kernel("uniform")
        )
        brute = u_stat_brute(ukernel_scalar(spec), s, 3).value
        res = u_stat_windowed(spec, s)
        assert res.tuples_evaluated > 400
        assert abs(res.value - brute) <= 1e-12 * (1.0 + abs(brute))

    def test_vectorized_path_rejects_orders_above_three(self):
        s = Sample(np.linspace(0.3, 0.7, 10), np.ones(10))
        spec = UKernelSpec(
            builtin_member("sum", 4), 0.9, (0.5,) * 4, get_kernel("uniform")
        )
        with pytest.raises(UnsupportedOrder):
            u_stat_windowed(spec, s)

    def test_nadaraya_watson_numerator_reduction_m1(self):
        # m=1 reduces to (1/n) sum phi(y_i) K_h(t - x_i)
        rng = make_rng(9)
        s = random_sample(rng, 40)
        h, t = 0.3, 0.5
        k = get_kernel("epanechnikov-rescaled")
        spec = UKernelSpec(builtin_member("identity_j:1", 1), h, (t,), k)
        z = t - s.x
        w = np.where(np.abs(z) <= h / 2, k(z / h) / h, 0.0)
        direct = float(np.mean(s.y * w))
        assert u_stat_windowed(spec, s).value == pytest.approx(direct, rel=1e-12)

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_linearity_in_the_function(self, a, b):
        rng = make_rng(11)
        s = random_sample(rng, 20)
        k = get_kernel("uniform")
        h, t = 0.5, (0.5, 0.5)
        f1 = builtin_member("sum", 2)
        f2 = builtin_member("product", 2)
        combo = FunctionSpec(
            "combo", lambda y: a * f1.eval(y) + b * f2.eval(y), 2
        )
        u1 = u_stat_windowed(UKernelSpec(f1, h, t, k), s).value
        u2 = u_stat_windowed(UKernelSpec(f2, h, t, k), s).value
        uc = u_stat_windowed(UKernelSpec(combo, h, t, k), s).value
        assert uc == pytest.approx(a * u1 + b * u2, abs=1e-12 * (1 + abs(uc)))


class TestUKernelSpecValidation:
    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_bad_bandwidth_is_a_typed_error(self, h):
        with pytest.raises(InvalidBandwidth):
            UKernelSpec(builtin_member("one", 1), h, (0.5,), get_kernel("uniform"))

    def test_non_finite_evaluation_point_is_a_typed_error(self):
        with pytest.raises(InvalidBandwidth):
            UKernelSpec(
                builtin_member("one", 2), 0.3, (0.5, math.nan), get_kernel("uniform")
            )


# piecewise-linear table kernel that turns negative near the support edges
SIGNED_TABLE = table_kernel(
    [-0.5, -0.25, 0.0, 0.25, 0.5], [-0.5, 1.0, 2.0, 1.0, -0.5], kernel_id="signed"
)
ORACLE_KERNELS = [get_kernel("uniform"), get_kernel("epanechnikov-rescaled"), SIGNED_TABLE]
ORACLE_MEMBERS = ["sum", "product", "max", "one", "const:2", "indicator_leq:0.5",
                  "sum_clipped:1.5", "identity_j:1"]


def oracle_member(m, poly=False):
    """Every built-in member (identity_j on the first and the last coordinate)
    and, with poly, polynomial members with exponents up to 5."""
    ids = st.sampled_from(ORACLE_MEMBERS + [f"identity_j:{m}"])
    builtins = ids.map(lambda i: builtin_member(i, m))
    if not poly:
        return builtins
    exponents = st.tuples(*[st.integers(0, 5)] * m)
    term = st.tuples(st.sampled_from([1.0, -0.5, 2.25]), exponents)
    polys = st.lists(term, min_size=1, max_size=3).map(
        lambda terms: polynomial_member("poly", m, terms)
    )
    return st.one_of(builtins, polys)


@st.composite
def oracle_case(draw, m, n_lo, n_hi, poly=False):
    """A sample around t with points exactly on t_j -+ h/2 and tied x values."""
    h = draw(st.sampled_from([0.05, 0.3, 0.5, 0.999]))
    t = tuple(draw(st.floats(0.0, 1.0)) for _ in range(m))
    n = draw(st.integers(n_lo, n_hi))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.uniform(-0.55, 0.55, n)
    x = np.array([t[i % m] for i in range(n)]) + h * u
    edges = [tj + sign * h / 2.0 for tj in t for sign in (-1.0, 1.0)]
    n_edges = draw(st.integers(0, min(n, len(edges))))
    x[:n_edges] = edges[:n_edges]
    ties = draw(st.integers(0, n // 2))
    x[n - ties:] = x[:ties]
    y = np.round(rng.normal(0.5, 1.0, n), 1)  # rounded so indicator ties occur
    phi = draw(oracle_member(m, poly))
    spec = UKernelSpec(phi, h, t, draw(st.sampled_from(ORACLE_KERNELS)))
    return spec, Sample(x, y)


def window_tuples(spec, s):
    return math.prod(hi - lo for lo, hi in _windows(spec, s))


class TestWindowedOracleProperties:
    """u_stat_windowed against the brute enumerator on both of its paths."""

    @pytest.mark.parametrize("m, n_hi", [(1, 30), (2, 14), (3, 7)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_path_is_bitwise_brute(self, m, n_hi, data):
        spec, s = data.draw(oracle_case(m, m, n_hi, poly=True))
        assert window_tuples(spec, s) <= EXACT_PATH_MAX
        brute = u_stat_brute(ukernel_scalar(spec), s, m)
        got = u_stat_windowed(spec, s)
        assert np.float64(got.value).tobytes() == np.float64(brute.value).tobytes()
        wins = [s.sort_index[lo:hi] for lo, hi in _windows(spec, s)]
        distinct = sum(1 for idx in itertools.product(*wins) if len(set(idx)) == m)
        assert got.tuples_evaluated == distinct
        assert got.tuples_total == brute.tuples_total

    def test_out_of_window_overflow_never_reaches_the_member(self):
        # two points 2 ulps outside t -+ h/2: inside the widened search range,
        # outside |z| <= h/2; their product overflows if g ever sees the pair
        t, h = 0.5, 0.25
        lo = np.nextafter(np.nextafter(t - h / 2, -np.inf), -np.inf)
        hi = np.nextafter(np.nextafter(t + h / 2, np.inf), np.inf)
        x = np.array([lo, hi, 0.45, 0.5, 0.55, 0.6])
        y = np.array([1e200, 1e200, 1.0, -2.0, 0.5, 3.0])
        s = Sample(x, y)
        spec = UKernelSpec(builtin_member("product", 2), h, (t, t),
                           get_kernel("epanechnikov-rescaled"))
        assert all(abs(t - v) > h / 2 for v in (lo, hi))
        assert _windows(spec, s) == [(0, 6), (0, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = u_stat_windowed(spec, s)
            brute = u_stat_brute(ukernel_scalar(spec), s, 2)
        assert math.isfinite(got.value)
        assert np.float64(got.value).tobytes() == np.float64(brute.value).tobytes()
        assert got.tuples_evaluated == 30

    @pytest.mark.parametrize("m, n_lo, n_hi", [(1, 600, 700), (2, 50, 60)])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_vectorized_path_matches_brute(self, m, n_lo, n_hi, data):
        spec, s = data.draw(oracle_case(m, n_lo, n_hi))
        assume(window_tuples(spec, s) > EXACT_PATH_MAX)
        brute = u_stat_brute(ukernel_scalar(spec), s, m).value
        fast = u_stat_windowed(spec, s).value
        assert abs(fast - brute) <= 1e-12 * (1.0 + abs(brute))


def stacked_eval(g, *coords):
    """g over the outer grid of the coordinates, from one stacked (..., m)
    array: the evaluation _tuples_eval replaces."""
    m = len(coords)
    grids = np.broadcast_arrays(
        *(c.reshape((1,) * j + (-1,) + (1,) * (m - 1 - j)) for j, c in enumerate(coords))
    )
    return g.eval(np.stack(grids, axis=-1))


def all_members(m):
    ids = ["sum", "product", "max", "one", "const:-1.5", "indicator_leq:0.0",
           "sum_clipped:1.0"] + [f"identity_j:{j}" for j in range(1, m + 1)]
    poly = polynomial_member(
        "poly", m, [(1.5, (2,) + (1,) * (m - 1)), (-0.5, (0,) * (m - 1) + (3,))]
    )
    return [builtin_member(i, m) for i in ids] + [poly]


# few distinct values, so coordinates tie; both signed zeros included
TUPLE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.25, 1e-300, 3.0e5]),
    st.floats(-1e3, 1e3),
)


class TestTuplesEval:
    @pytest.mark.parametrize("m", [2, 3])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_stacked_evaluation_bit_for_bit(self, m, data):
        phi = data.draw(st.sampled_from(all_members(m)))
        coords = [
            np.array(data.draw(st.lists(TUPLE_VALUES, min_size=1, max_size=6)))
            for _ in range(m)
        ]
        new = np.ascontiguousarray(_tuples_eval(phi, *coords), dtype=float)
        old = np.ascontiguousarray(stacked_eval(phi, *coords), dtype=float)
        assert new.shape == old.shape == tuple(c.size for c in coords)
        assert np.array_equal(new.view(np.int64), old.view(np.int64))


def stacked_pair_value(spec, s):
    """The m=2 vectorized sum as computed from a stacked pair array, with the
    diagonal found by np.intersect1d: the reference for byte identity."""
    wins = [s.sort_index[lo:hi] for lo, hi in _windows(spec, s)]
    w = [eval_scaled(spec.kernel, spec.h, tj - s.x[win]) for tj, win in zip(spec.t, wins)]
    G = stacked_eval(spec.g, s.y[wins[0]], s.y[wins[1]])
    acc = float(w[0] @ (G @ w[1]))
    common, i1, i2 = np.intersect1d(wins[0], wins[1], return_indices=True)
    if common.size:
        diag = spec.g.eval(np.stack([s.y[common], s.y[common]], axis=-1))
        acc -= float(np.sum(diag * w[0][i1] * w[1][i2]))
    return acc / count_indices(s.n, 2)


class TestPairDiagonal:
    """The m=2 diagonal correction, read off the overlap of the two windows'
    position ranges, against np.intersect1d and the brute enumerator."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vectorized_value_is_the_stacked_one_bit_for_bit(self, data):
        spec, s = data.draw(oracle_case(2, 50, 60))
        spec = dataclasses.replace(spec, g=data.draw(st.sampled_from(all_members(2))))
        assume(window_tuples(spec, s) > EXACT_PATH_MAX)
        got = np.float64(u_stat_windowed(spec, s).value)
        assert got.tobytes() == np.float64(stacked_pair_value(spec, s)).tobytes()

    @pytest.mark.parametrize(
        "t, h, layout",
        [
            ((0.2, 0.8), 0.3, "disjoint"),
            ((0.0, 0.1), 0.4, "nested"),
            ((0.5, 0.5), 0.5, "identical"),
            ((0.4, 0.6), 0.5, "overlapping"),
        ],
    )
    def test_window_layouts(self, t, h, layout):
        s = random_sample(make_rng(21), 120)
        s = Sample(np.concatenate([s.x, s.x[:10]]), np.concatenate([s.y, s.y[:10]]))
        spec = UKernelSpec(builtin_member("sum", 2), h, t,
                           get_kernel("epanechnikov-rescaled"))
        (lo1, hi1), (lo2, hi2) = r1, r2 = _windows(spec, s)
        assert layout == (
            "disjoint" if hi1 <= lo2 else
            "identical" if (lo1, hi1) == (lo2, hi2) else
            "nested" if lo2 <= lo1 and hi1 <= hi2 else
            "overlapping" if lo1 < lo2 < hi1 < hi2 else "other"
        )
        w1, w2 = s.sort_index[lo1:hi1], s.sort_index[lo2:hi2]
        got = _common_positions(r1, r2, s.sort_index)
        want = np.intersect1d(w1, w2, return_indices=True)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        res = u_stat_windowed(spec, s)
        assert res.tuples_evaluated > EXACT_PATH_MAX
        assert res.tuples_evaluated == sum(1 for i in w1 for j in w2 if i != j)
        brute = u_stat_brute(ukernel_scalar(spec), s, 2).value
        assert abs(res.value - brute) <= 1e-12 * (1.0 + abs(brute))


class TestSymmetrize:
    def test_projection_onto_symmetric_average(self):
        H = lambda xs, ys: ys[0]
        Hbar = symmetrize(H, 2)
        assert Hbar((0.0, 0.0), (1.0, 3.0)) == 2.0

    def test_symmetric_input_is_fixed_point(self):
        H = lambda xs, ys: ys[0] * ys[1] + xs[0] + xs[1]
        Hbar = symmetrize(H, 2)
        assert Hbar((0.5, 0.25), (2.0, 3.0)) == H((0.5, 0.25), (2.0, 3.0))

    def test_m1_is_identity(self):
        H = lambda xs, ys: ys[0] ** 2
        assert symmetrize(H, 1)((0.1,), (3.0,)) == 9.0

    def test_u_statistic_invariant_under_symmetrization(self):
        rng = make_rng(13)
        s = random_sample(rng, 9)
        H = lambda xs, ys: xs[0] * ys[1] - ys[0]
        a = u_stat_brute(H, s, 2).value
        b = u_stat_brute(symmetrize(H, 2), s, 2).value
        assert a == pytest.approx(b, abs=1e-12)


class TestUProcess:
    def test_centered_at_own_value_is_zero(self):
        rng = make_rng(14)
        s = random_sample(rng, 25)
        spec = UKernelSpec(
            builtin_member("sum", 2), 0.4, (0.5, 0.5), get_kernel("uniform")
        )
        u = u_stat_windowed(spec, s).value
        assert u_process(spec, s, u) == 0.0

    def test_empty_window_gives_minus_sqrt_n_expected(self):
        s = Sample(np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.0, 1.0]))
        spec = UKernelSpec(builtin_member("one", 1), 0.1, (9.0,), get_kernel("uniform"))
        assert u_process(spec, s, 0.25) == pytest.approx(-math.sqrt(3) * 0.25)


class TestIncompleteU:
    def test_exhaustive_budget_equals_brute(self):
        rng = make_rng(15)
        s = random_sample(rng, 8)
        spec = UKernelSpec(
            builtin_member("sum", 2), 0.8, (0.5, 0.5), get_kernel("uniform")
        )
        total = count_indices(8, 2)
        inc = incomplete_u(spec, s, total, seed=3).value
        brute = u_stat_brute(ukernel_scalar(spec), s, 2).value
        assert abs(inc - brute) <= 1e-12 * (1 + abs(brute))

    def test_same_seed_identical(self):
        rng = make_rng(16)
        s = random_sample(rng, 100)
        spec = UKernelSpec(
            builtin_member("product", 2), 0.4, (0.5, 0.5), get_kernel("uniform")
        )
        assert (
            incomplete_u(spec, s, 500, seed=1).value
            == incomplete_u(spec, s, 500, seed=1).value
        )

    def test_population_beyond_int64_is_a_typed_error(self):
        n = 3_000_000  # n (n-1) (n-2) ~ 2.7e19 ordered triples
        s = Sample(np.zeros(n), np.zeros(n))
        spec = UKernelSpec(
            builtin_member("sum", 3), 0.3, (0.5, 0.5, 0.5), get_kernel("uniform")
        )
        with pytest.raises(PopulationTooLarge):
            incomplete_u(spec, s, 10, seed=0)

    def test_budget_above_population_rejected(self):
        s = Sample(np.array([0.0, 0.1]), np.array([1.0, 2.0]))
        spec = UKernelSpec(builtin_member("one", 1), 1.0, (0.0,), get_kernel("uniform"))
        with pytest.raises(BudgetExceedsPopulation):
            incomplete_u(spec, s, 3, seed=0)

    def test_unbiased_against_windowed_across_seeds(self):
        rng = make_rng(17)
        s = random_sample(rng, 2000)
        spec = UKernelSpec(
            builtin_member("product", 2), 0.3, (0.5, 0.5), get_kernel("uniform")
        )
        truth = u_stat_windowed(spec, s).value
        vals = np.array(
            [incomplete_u(spec, s, 200_000, seed=sd).value for sd in range(50)]
        )
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - truth) <= 3 * se


class TestSampleIo:
    def test_roundtrip_is_exact_at_17_digits(self, tmp_path):
        rng = make_rng(18)
        s = random_sample(rng, 30)
        path = tmp_path / "s.csv"
        write_sample_csv(str(path), s)
        back = read_sample_csv(str(path))
        assert np.array_equal(back.x, s.x)
        assert np.array_equal(back.y, s.y)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        rng = make_rng(19)
        path = tmp_path / "s.csv"
        write_sample_csv(str(path), random_sample(rng, 10))
        before = path.read_bytes()
        calls = []

        def failing(v):
            calls.append(v)
            if len(calls) == 7:
                raise RuntimeError("formatter failed mid-file")
            return "%.17g" % v

        monkeypatch.setattr(condu.ucore, "format_float", failing)
        with pytest.raises(RuntimeError, match="mid-file"):
            write_sample_csv(str(path), random_sample(rng, 10))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_missing_value_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.1,1.0\n0.2,\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_sample_csv(str(path))

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            Sample(np.array([0.0, np.nan]), np.array([1.0, 2.0]))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,1.0\n")
        with pytest.raises(SchemaError):
            read_sample_csv(str(path))


CUBE = polynomial_member("cube", 1, [(1.0, (3,))])


class TestNonFiniteSum:
    def test_inf_minus_inf_cell(self):
        s = Sample(np.array([0.49, 0.51, 0.50, 0.2, 0.8]),
                   np.array([1e200, -1e200, 1.0, 0.0, 0.0]))
        spec = UKernelSpec(CUBE, 0.1, (0.5,), get_kernel("uniform"))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteSum, match="inf") as windowed:
                u_stat_windowed(spec, s)
            with pytest.raises(ValueError) as brute:
                u_stat_brute(ukernel_scalar(spec), s, 1)
        # both are ValueErrors; the oracle keeps math.fsum's own error
        assert isinstance(windowed.value, ValueError)
        assert not isinstance(brute.value, NonFiniteSum)

    def test_finite_terms_that_overflow(self):
        s = Sample(np.array([0.4, 0.6]), np.array([1e308, 1e308]))
        spec = UKernelSpec(builtin_member("identity_j:1", 1), 1.0, (0.5,),
                           get_kernel("uniform"))
        with pytest.raises(NonFiniteSum, match="overflow"):
            u_stat_windowed(spec, s)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("m, member", [(1, CUBE), (2, builtin_member("product", 2))])
    def test_vectorized_path_raises_on_a_non_finite_sum(self, m, member):
        x = np.linspace(0.3, 0.7, 500)
        y = np.zeros(500)
        y[100], y[300] = 1e200, -1e200
        s = Sample(x, y)
        spec = UKernelSpec(member, 0.5, (0.5,) * m, get_kernel("uniform"))
        assert window_tuples(spec, s) > EXACT_PATH_MAX
        with pytest.raises(NonFiniteSum, match="vectorized sum is nan"):
            u_stat_windowed(spec, s)
        grid = WindowGrid(s, 0.5, [(0.45,) * m, (0.5,) * m], get_kernel("uniform"))
        with pytest.raises(NonFiniteSum):
            grid.u_stats(member)


def frozen_windows(h, t, s):
    """The per-coordinate window search, one value at a time."""
    out = []
    for tj in t:
        lo_val, hi_val = tj - h / 2.0, tj + h / 2.0
        for _ in range(4):
            lo_val = np.nextafter(lo_val, -np.inf)
            hi_val = np.nextafter(hi_val, np.inf)
        out.append((int(np.searchsorted(s.x_sorted, lo_val, side="left")),
                    int(np.searchsorted(s.x_sorted, hi_val, side="right"))))
    return out


def frozen_cell(spec, s):
    """A frozen copy of the per-point windowed formula for m <= 3, kept as
    the bit-for-bit reference of WindowGrid: (value, tuples evaluated)."""
    m, h, t, g = spec.m, spec.h, spec.t, spec.g
    total = count_indices(s.n, m)
    ranges = frozen_windows(h, t, s)
    wins = [s.sort_index[lo:hi] for lo, hi in ranges]
    sizes = [w.size for w in wins]
    window_tuples = int(np.prod([float(sz) for sz in sizes]))
    if min(sizes) == 0:
        return 0.0, 0
    if window_tuples <= EXACT_PATH_MAX:
        idx = np.stack(np.meshgrid(*wins, indexing="ij"), axis=-1).reshape(-1, m)
        if m > 1:
            srt = np.sort(idx, axis=1)
            idx = idx[np.all(srt[:, 1:] != srt[:, :-1], axis=1)]
        zs = [t[j] - s.x[idx[:, j]] for j in range(m)]
        w = 1.0
        for z in zs:
            w = w * eval_scaled(spec.kernel, h, z)
        inside = np.logical_and.reduce([np.abs(z) <= h / 2.0 for z in zs])
        terms = g.eval(s.y[idx[inside]]) * w[inside]
        return math.fsum(terms.tolist()) / total, len(idx)
    weights = [eval_scaled(spec.kernel, h, t[j] - s.x_sorted[lo:hi])
               for j, (lo, hi) in enumerate(ranges)]
    ys = [s.y[w] for w in wins]
    if m == 1:
        return float(np.dot(g.eval(ys[0][:, None]), weights[0])) / total, sizes[0]
    if m == 2:
        G = stacked_eval(g, ys[0], ys[1])
        if not G.flags.owndata:
            G = np.stack([G, G], axis=-1)[..., 0]
        acc = float(weights[0] @ (G @ weights[1]))
        common, i1, i2 = np.intersect1d(wins[0], wins[1], return_indices=True)
        if common.size:
            diag = g.eval(np.stack([s.y[common], s.y[common]], axis=-1))
            acc -= float(np.sum(diag * weights[0][i1] * weights[1][i2]))
        return acc / total, sizes[0] * sizes[1] - common.size
    acc, evaluated = 0.0, 0
    w23 = np.outer(weights[1], weights[2])
    neq23 = wins[1][:, None] != wins[2][None, :]
    chunk = max(1, condu.ucore._CHUNK_ELEMENTS // max(1, sizes[1] * sizes[2]))
    for lo in range(0, sizes[0], chunk):
        hi = min(lo + chunk, sizes[0])
        i1 = wins[0][lo:hi]
        mask = (
            neq23[None, :, :]
            & (i1[:, None, None] != wins[1][None, :, None])
            & (i1[:, None, None] != wins[2][None, None, :])
        )
        G = stacked_eval(g, ys[0][lo:hi], ys[1], ys[2])
        acc += float(np.sum(G * mask * weights[0][lo:hi, None, None] * w23[None, :, :]))
        evaluated += int(np.sum(mask))
    return acc / total, evaluated


@st.composite
def grid_case(draw, m):
    """A sample, a bandwidth, a member and a shuffled tensor grid of points
    whose windows range from empty through exact-path to vectorized, with
    tied x values and points exactly on the window edges."""
    h = draw(st.sampled_from([0.05, 0.2, 0.5, 0.7, 0.999]))
    axis = draw(st.lists(st.floats(0.25, 0.75), min_size=1, max_size=4, unique=True))
    points = draw(st.permutations(list(itertools.product(axis, repeat=m))))
    sizes = {1: [(2, 40), (600, 800)], 2: [(2, 20), (25, 70)], 3: [(3, 8), (8, 14)]}[m]
    n = draw(st.integers(*draw(st.sampled_from(sizes))))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.0, 1.0, n)
    edges = [v + sign * h / 2.0 for v in axis for sign in (-1.0, 1.0)]
    n_edges = draw(st.integers(0, min(n, len(edges))))
    x[:n_edges] = edges[:n_edges]
    ties = draw(st.integers(0, n // 2))
    x[n - ties:] = x[:ties]
    y = np.round(rng.normal(0.5, 1.0, n), 1)
    phi = draw(oracle_member(m, poly=True))
    kernel = draw(st.sampled_from(ORACLE_KERNELS))
    return Sample(x, y), h, points, phi, kernel


class TestWindowGrid:
    """WindowGrid against the frozen per-point formula, bit for bit, with
    band budgets small enough to split rows and group runs of windows."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_grid_is_the_per_point_formula_bit_for_bit(self, m, data):
        s, h, points, phi, kernel = data.draw(grid_case(m))
        band = data.draw(st.sampled_from([1, 40, 700, 2 ** 19]))
        fill = data.draw(st.sampled_from([1, 30, 2 ** 15]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
            patch.setattr(condu.ucore, "_FILL_ELEMENTS", fill)
            got = WindowGrid(s, h, points, kernel).u_stats(phi)
        assert len(got) == len(points)
        for t, res in zip(points, got):
            value, evaluated = frozen_cell(UKernelSpec(phi, h, t, kernel), s)
            assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
            assert res.tuples_evaluated == evaluated
            assert res.tuples_total == count_indices(s.n, m)

    @pytest.mark.parametrize("m, n", [(1, 1500), (2, 300)])
    @pytest.mark.parametrize("band, fill", [(2 ** 19, 2 ** 15), (3000, 50)])
    def test_every_member_on_a_banded_grid(self, m, n, band, fill):
        s = random_sample(make_rng(23), n)
        k = get_kernel("epanechnikov-rescaled")
        points = list(itertools.product(np.linspace(0.3, 0.7, 5), repeat=m))
        for phi in all_members(m):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
                patch.setattr(condu.ucore, "_FILL_ELEMENTS", fill)
                got = WindowGrid(s, 0.3, points, k).u_stats(phi)
            for t, res in zip(points, got):
                spec = UKernelSpec(phi, 0.3, t, k)
                assert window_tuples(spec, s) > EXACT_PATH_MAX
                value, evaluated = frozen_cell(spec, s)
                assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                assert res.tuples_evaluated == evaluated
                assert res == u_stat_windowed(spec, s)

    @pytest.mark.parametrize("h, t", [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5),
                                      (math.inf, 0.5), (0.3, math.nan), (0.3, -math.inf)])
    def test_bad_bandwidth_or_point_is_a_typed_error(self, h, t):
        s = random_sample(make_rng(24), 10)
        with pytest.raises(InvalidBandwidth):
            WindowGrid(s, h, [(0.5,), (t,)], get_kernel("uniform"))

    def test_point_length_must_match_the_member(self):
        s = random_sample(make_rng(25), 10)
        grid = WindowGrid(s, 0.3, [(0.5, 0.5)], get_kernel("uniform"))
        with pytest.raises(SchemaError):
            grid.u_stats(builtin_member("sum", 1))
