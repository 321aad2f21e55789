import dataclasses
import itertools
import math
import tracemalloc
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
from condu.kernels import builtin_kernel_ids, eval_scaled, get_kernel, table_kernel, write_csv
import condu.kernels
import condu.ucore
from condu.ucore import (
    BRUTE_TUPLE_BUDGET,
    EXACT_PATH_MAX,
    Sample,
    UKernelSpec,
    WindowGrid,
    _common_positions,
    _windows,
    count_indices,
    incomplete_u,
    read_sample_csv,
    symmetrize,
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
SIGNED_TABLE = table_kernel([-0.5, -0.25, 0.0, 0.25, 0.5], [-0.5, 1.0, 2.0, 1.0, -0.5])
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


def index_brute(H, s, k):
    """The brute oracle as it enumerated index tuples and fancy-indexed the
    sample for each one; u_stat_brute must give H the same arguments in the
    same order, and so the same bits."""
    n = s.n
    if k > n:
        raise DegenerateSample(f"order k={k} exceeds sample size n={n}")
    total = count_indices(n, k)
    if n ** k > BRUTE_TUPLE_BUDGET:
        raise BruteForceBudgetExceeded(f"n^k = {n ** k} exceeds the brute-force budget")
    x, y = s.x, s.y
    terms = (
        H(tuple(x[list(idx)]), tuple(y[list(idx)]))
        for idx in itertools.permutations(range(n), k)
    )
    return math.fsum(terms) / total


def brute_outcome(brute, spec, s):
    """(the value's bits or the error's type and text, H's arguments as
    (type, bits) per coordinate in call order)."""
    H, calls = ukernel_scalar(spec), []

    def logged(xs, ys):
        calls.append(tuple((type(v), np.float64(v).tobytes()) for v in xs + ys))
        return H(xs, ys)

    try:
        value = brute(logged, s, spec.m)
        result = np.float64(getattr(value, "value", value)).tobytes()
    except (ValueError, OverflowError) as exc:
        result = (type(exc), str(exc))
    return result, calls


class TestBruteEnumeration:
    """u_stat_brute against the index enumeration it replaced."""

    @pytest.mark.parametrize("m, n_hi", [(1, 12), (2, 8), (3, 6)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_terms_in_the_same_order(self, m, n_hi, data):
        spec, s = data.draw(oracle_case(m, m, n_hi, poly=True))
        kernels = [get_kernel(k) for k in builtin_kernel_ids()] + [SIGNED_TABLE]
        spec = dataclasses.replace(spec, kernel=data.draw(st.sampled_from(kernels)))
        if data.draw(st.booleans()):  # terms that overflow, or sums that do
            s = Sample(s.x, s.y * 1e306)
        with np.errstate(over="ignore", invalid="ignore"):
            assert brute_outcome(u_stat_brute, spec, s) == brute_outcome(index_brute, spec, s)


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
        # outside |z| <= h/2, so the closed windows leave them out; their
        # product overflows if g ever sees the pair
        t, h = 0.5, 0.25
        lo = np.nextafter(np.nextafter(t - h / 2, -np.inf), -np.inf)
        hi = np.nextafter(np.nextafter(t + h / 2, np.inf), np.inf)
        x = np.array([lo, hi, 0.45, 0.5, 0.55, 0.6])
        y = np.array([1e200, 1e200, 1.0, -2.0, 0.5, 3.0])
        s = Sample(x, y)
        spec = UKernelSpec(builtin_member("product", 2), h, (t, t),
                           get_kernel("epanechnikov-rescaled"))
        assert all(abs(t - v) > h / 2 for v in (lo, hi))
        assert _windows(spec, s) == [(1, 5), (1, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = u_stat_windowed(spec, s)
            brute = u_stat_brute(ukernel_scalar(spec), s, 2)
        assert math.isfinite(got.value)
        assert np.float64(got.value).tobytes() == np.float64(brute.value).tobytes()
        assert got.tuples_evaluated == 12

    def test_a_point_rounding_onto_an_edge_near_zero_is_in_the_window(self):
        # t + h/2 is near 0, so its ulps are 16 times finer than those of
        # h/2, at which t - x rounds: x lies 5 ulps of t + h/2 past it, yet
        # t - x rounds to -h/2, and the oracle counts it
        t, h = -0.11174247705527751, 0.25
        x = np.array([-0.21689786399431812, -0.15, 0.013257522944722497, 0.5])
        s = Sample(x, np.ones(4))
        spec = UKernelSpec(builtin_member("one", 1), h, (t,), get_kernel("uniform"))
        assert abs(t - x[2]) == h / 2
        assert _windows(spec, s) == [(0, 3)]
        assert u_stat_windowed(spec, s).value == u_stat_brute(ukernel_scalar(spec), s, 1).value

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_windows_are_the_points_within_h_over_2(self, data):
        # x a few units from the window edges, in ulps of the edge and of
        # |t| + h/2 (far coarser where an edge is near 0)
        hs = data.draw(st.lists(st.sampled_from([1e-9, 0.05, 0.25, 0.5, 0.999, 3.0]),
                                min_size=1, max_size=3, unique=True))
        values = data.draw(st.lists(st.one_of(st.floats(-1.5, 1.5),
                                              st.sampled_from([0.0, 0.125, -0.25])),
                                    min_size=1, max_size=4, unique=True))
        x = []
        for _ in range(data.draw(st.integers(1, 30))):
            v, h = data.draw(st.sampled_from(values)), data.draw(st.sampled_from(hs))
            edge = v + data.draw(st.sampled_from([-0.5, 0.5])) * h
            unit = data.draw(st.sampled_from([np.spacing(edge), np.spacing(abs(v) + h / 2)]))
            x.append(edge + data.draw(st.integers(-6, 6)) * unit)
        s = Sample(np.array(x), np.ones(len(x)))
        kernel = data.draw(st.sampled_from(ORACLE_KERNELS))
        points = [(v,) for v in values]
        grid = WindowGrid(s, hs, points, kernel)
        for q, h in enumerate(hs):
            for (v,), (i,) in zip(points, grid.cells):
                lo, hi = grid.ranges[q][i]
                assert range(lo, hi) == range(*frozen_windows(h, (v,), s)[0])
                want = eval_scaled(kernel, h, v - s.x_sorted[lo:hi])
                assert grid.weights[q][i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, n_lo, n_hi", [(1, 5, 40), (1, 450, 600), (2, 3, 18),
                                               (2, 25, 40), (3, 3, 7), (3, 9, 13)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_points_just_outside_the_closed_window_never_reach_the_member(
            self, m, n_lo, n_hi, data):
        # x well inside every window, plus points 1-4 ulps below the lowest
        # window or above the highest, outside every window, with y = 1e200,
        # on which every member overflows: the oracle never calls g there
        n = data.draw(st.integers(n_lo, n_hi))
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        t = tuple(data.draw(st.floats(0.45, 0.55)) for _ in range(m))
        h = data.draw(st.sampled_from([0.5, 0.8]))
        x, y = list(rng.uniform(0.45, 0.55, n)), list(np.round(rng.normal(0.5, 1.0, n), 1))
        for _ in range(data.draw(st.integers(1, 4))):
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            tj = min(t) if sign < 0 else max(t)
            v = tj + sign * h / 2.0
            while abs(tj - v) <= h / 2.0:
                v = np.nextafter(v, sign * np.inf)
            for _ in range(data.draw(st.integers(0, 3))):
                v = np.nextafter(v, sign * np.inf)
            x.append(v)
            y.append(1e200)
        squares = [(1.0, tuple(2 * (i == j) for i in range(m))) for j in range(m)]
        phi = data.draw(st.sampled_from([polynomial_member("squares", m, squares),
                                         polynomial_member("cube", m, [(1.0, (3,) * m)]),
                                         builtin_member("product", m)]))
        s = Sample(np.array(x), np.array(y))
        spec = UKernelSpec(phi, h, t, data.draw(st.sampled_from(ORACLE_KERNELS)))
        want = u_stat_brute(ukernel_scalar(spec), s, m).value
        assert math.isfinite(want)
        got = u_stat_windowed(spec, s).value
        if window_tuples(spec, s) <= EXACT_PATH_MAX:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert abs(got - want) <= 1e-12 * abs(want)

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
    array: the reference for WindowGrid's bands."""
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


class TestPairBand:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_band_is_the_stacked_evaluation_bit_for_bit(self, data):
        # rows filled `step` at a time, the last block partial
        phi = data.draw(st.sampled_from([None] + all_members(2)))
        step = data.draw(st.integers(2, 4))
        rows = data.draw(st.integers(1, 2)) * step + data.draw(st.integers(1, step - 1))
        cols = data.draw(st.integers(1, 6))
        y = np.array(data.draw(st.lists(TUPLE_VALUES, min_size=max(rows, cols),
                                        max_size=max(rows, cols) + 4)))
        x = np.array(data.draw(st.permutations(range(y.size))), dtype=float)
        lo = data.draw(st.integers(0, y.size - rows))
        c_lo = data.draw(st.integers(0, y.size - cols))
        grid = WindowGrid(Sample(x, y), [1.0], [(0.5, 0.5)], get_kernel("uniform"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.ucore, "_FILL_ELEMENTS", step * cols)
            band = grid._band(phi, lo, lo + rows, c_lo, c_lo + cols)
        ys = grid.y_sorted
        want = (np.ones((rows, cols)) if phi is None
                else stacked_eval(phi, ys[lo:lo + rows], ys[c_lo:c_lo + cols]))
        assert band.shape == want.shape == (rows, cols)
        # identity_j hands back a strided plane; matmul's bits depend on it
        assert band.strides == want.strides
        assert np.array_equal(np.ascontiguousarray(band).view(np.int64),
                              np.ascontiguousarray(want, dtype=float).view(np.int64))


def stacked_pair(spec, s):
    """The m=2 window weights, the stacked pair array of g and the windows'
    shared indices and their offsets, found by np.intersect1d."""
    wins = [s.sort_index[lo:hi] for lo, hi in _windows(spec, s)]
    w = [eval_scaled(spec.kernel, spec.h, tj - s.x[win]) for tj, win in zip(spec.t, wins)]
    G = stacked_eval(spec.g, s.y[wins[0]], s.y[wins[1]])
    return w, G, np.intersect1d(wins[0], wins[1], return_indices=True)


def stacked_pair_value(spec, s):
    """The m=2 vectorized sum as computed from a stacked pair array, with the
    diagonal found by np.intersect1d: the reference for byte identity. Also
    the number of tuples of distinct indices."""
    w, G, (common, i1, i2) = stacked_pair(spec, s)
    acc = float(w[0] @ (G @ w[1]))
    if common.size:
        diag = spec.g.eval(np.stack([s.y[common], s.y[common]], axis=-1))
        acc -= float(np.sum(diag * w[0][i1] * w[1][i2]))
    return acc / count_indices(s.n, 2), G.size - common.size


def off_diagonal_pair_value(spec, s):
    """The m=2 sum of the stacked pair array with the entries of the tuples
    that repeat an index set to 0.0: the terms of the distinct tuples only."""
    w, G, (_, i1, i2) = stacked_pair(spec, s)
    G = np.array(G)
    G[i1, i2] = 0.0
    return float(w[0] @ (G @ w[1])) / count_indices(s.n, 2)


class TestPairDiagonal:
    """The m=2 diagonal correction, read off the overlap of the two windows'
    position ranges, against np.intersect1d and the brute enumerator."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vectorized_value_is_the_stacked_one_bit_for_bit(self, data):
        spec, s = data.draw(oracle_case(2, 50, 60))
        spec = dataclasses.replace(spec, g=data.draw(st.sampled_from(all_members(2))))
        assume(window_tuples(spec, s) > EXACT_PATH_MAX)
        got = u_stat_windowed(spec, s)
        value, evaluated = stacked_pair_value(spec, s)
        assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
        assert got.tuples_evaluated == evaluated

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_banded_cells_are_the_stacked_rule_bit_for_bit(self, data):
        # wide windows, so most cells are banded, and small bands, so the
        # runs split; a few y of 1e160 make y_1 y_2 and the polynomials
        # overflow, one of them on the diagonal only
        n = data.draw(st.integers(40, 160))
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        x = rng.uniform(0.0, 1.0, n)
        ties = data.draw(st.integers(0, n // 4))
        x[n - ties:] = x[:ties]
        y = np.round(rng.normal(0.5, 1.0, n), 1)
        y[rng.permutation(n)[:data.draw(st.integers(0, 3))]] = 1e160
        hs = data.draw(st.lists(st.sampled_from([0.35, 0.5, 0.7, 0.999]),
                                min_size=1, max_size=3, unique=True))
        axis = data.draw(st.lists(st.floats(0.25, 0.75), min_size=1, max_size=3, unique=True))
        points = list(itertools.product(axis, repeat=2))
        kernel = data.draw(st.sampled_from(ORACLE_KERNELS))
        members = [None, builtin_member("product", 2),
                   *data.draw(st.lists(oracle_member(2, poly=True), max_size=2))]
        s = Sample(x, y)
        grid = WindowGrid(s, hs, points, kernel)
        calls, result = [], WindowGrid._result

        def recorded(self, acc, evaluated, total, q, k):
            calls.append((q, k, acc, evaluated))
            return result(self, acc, evaluated, total, q, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.ucore, "_BAND_ELEMENTS", data.draw(st.sampled_from([500, 3000])))
            patch.setattr(WindowGrid, "_result", recorded)
            for g in members:
                calls.clear()
                try:
                    grid.u_stats([g])
                    raised = False
                except NonFiniteSum:
                    raised = True
                # the first cell whose total is not finite raises (an exact
                # cell may raise first, from math.fsum)
                nonfinite = [c for c in calls if not math.isfinite(c[2])]
                assert nonfinite in ([], calls[-1:]) and raised >= bool(nonfinite)
                for q, k, acc, evaluated in calls:
                    spec = UKernelSpec(g or builtin_member("one", 2), grid.hs[q],
                                       grid.points[k], kernel)
                    if window_tuples(spec, s) <= EXACT_PATH_MAX:
                        continue
                    with np.errstate(over="ignore", invalid="ignore"):
                        value, want = stacked_pair_value(spec, s)
                        off = (math.nan if math.isfinite(value)
                               else off_diagonal_pair_value(spec, s))
                    assert evaluated == want
                    got = acc / count_indices(s.n, 2)
                    if math.isfinite(value):
                        assert np.float64(got).tobytes() == np.float64(value).tobytes()
                    elif math.isfinite(off):
                        # non-finite only through the tuples (p, p), which
                        # are no terms of U_n
                        assert abs(got - off) <= 1e-12 * abs(off)
                    else:
                        assert not math.isfinite(acc)

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
        common, *want = np.intersect1d(w1, w2, return_indices=True)
        assert len(got) == len(want) == 2
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

    @pytest.mark.parametrize("m, exponents", [(1, [3]), (2, [3, 0])])
    def test_out_of_window_overflow_never_reaches_the_member(self, m, exponents):
        # y[0] = 1e200 at x = 0, far outside the window: g^3 overflows there,
        # so a zero weight times g would make the mean nan
        y = np.ones(40)
        y[0] = 1e200
        s = Sample(np.linspace(0.0, 1.0, 40), y)
        spec = UKernelSpec(polynomial_member("cube", m, [[1.0, exponents]]), 0.25,
                           (0.5,) * m, get_kernel("uniform"))
        want = u_stat_brute(ukernel_scalar(spec), s, m).value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = incomplete_u(spec, s, count_indices(40, m), seed=0).value
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_non_finite_mean_is_a_typed_error(self):
        s = Sample(np.array([0.49, 0.51, 0.50]), np.array([1e200, -1e200, 1.0]))
        spec = UKernelSpec(CUBE, 0.1, (0.5,), get_kernel("uniform"))
        with pytest.raises(NonFiniteSum, match="mean is nan"):
            incomplete_u(spec, s, 3, seed=0)

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

        def failing(path, header, rows):
            # two-row batches, and rows that fail at the fourth batch
            def rows_then_fail():
                for i, row in enumerate(rows):
                    if i == 7:
                        raise RuntimeError("rows failed mid-file")
                    yield row

            return write_csv(path, header, rows_then_fail())

        monkeypatch.setattr(condu.kernels, "_WRITE_ROWS", 2)
        monkeypatch.setattr(condu.ucore, "write_csv", failing)
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
            with pytest.raises(ValueError, match="-inf \\+ inf in fsum") as brute:
                u_stat_brute(ukernel_scalar(spec), s, 1)
            assert brute_outcome(index_brute, spec, s) == brute_outcome(u_stat_brute, spec, s)
        # both are ValueErrors; the oracle keeps math.fsum's own error
        assert isinstance(windowed.value, ValueError)
        assert not isinstance(brute.value, NonFiniteSum)

    def test_finite_terms_that_overflow(self):
        s = Sample(np.array([0.4, 0.6]), np.array([1e308, 1e308]))
        spec = UKernelSpec(builtin_member("identity_j:1", 1), 1.0, (0.5,),
                           get_kernel("uniform"))
        with pytest.raises(NonFiniteSum, match="overflow"):
            u_stat_windowed(spec, s)

    def test_terms_that_each_overflow(self):
        # h < 1: every term 1e308 * K_h = 2e308 is inf on its own, and the
        # fsum of infinite terms is inf without an error
        s = Sample(np.array([0.4, 0.6]), np.array([1e308, 1e308]))
        spec = UKernelSpec(builtin_member("identity_j:1", 1), 0.5, (0.5,),
                           get_kernel("uniform"))
        assert window_tuples(spec, s) <= EXACT_PATH_MAX
        with pytest.raises(NonFiniteSum, match="sum is inf"):
            u_stat_windowed(spec, s)

    @pytest.mark.parametrize("m, member", [(1, CUBE), (2, builtin_member("product", 2))])
    def test_vectorized_path_raises_on_a_non_finite_sum(self, m, member):
        x = np.linspace(0.3, 0.7, 500)
        y = np.zeros(500)
        y[100], y[300] = 1e200, -1e200
        s = Sample(x, y)
        spec = UKernelSpec(member, 0.5, (0.5,) * m, get_kernel("uniform"))
        assert window_tuples(spec, s) > EXACT_PATH_MAX
        with pytest.raises(NonFiniteSum, match="sum is nan"):
            u_stat_windowed(spec, s)
        grid = WindowGrid(s, [0.5], [(0.45,) * m, (0.5,) * m], get_kernel("uniform"))
        with pytest.raises(NonFiniteSum):
            grid.u_stats([member])

    @pytest.mark.parametrize("m, n, at, member", [
        (2, 40, 7, builtin_member("product", 2)),
        (3, 12, 5, polynomial_member("y1y2", 3, [(1.0, (1, 1, 0))])),
    ])
    def test_terms_that_repeat_an_index_are_no_terms_of_the_total(self, m, n, at, member):
        # the member overflows only on the tuples that repeat the index of
        # y = 1e200, which the vectorized paths evaluate but U_n does not sum
        y = np.ones(n)
        y[at] = 1e200
        s = Sample(np.linspace(0.3, 0.7, n), y)
        spec = UKernelSpec(member, 0.5, (0.5,) * m, get_kernel("uniform"))
        assert window_tuples(spec, s) > EXACT_PATH_MAX
        want = u_stat_brute(ukernel_scalar(spec), s, m).value
        assert abs(u_stat_windowed(spec, s).value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("m, n_lo, n_hi", [(2, 21, 40), (3, 8, 14)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_repeated_index_overflow_is_the_oracle_outcome(self, m, n_lo, n_hi, data):
        # every x well inside every window; one or two y of 1e200, and
        # members that overflow on them: on repeated-index tuples only (no
        # exponent above 1, one y of 1e200) or on distinct ones too (y_1^2
        # - y_2^2 gives terms inf and -inf)
        n = data.draw(st.integers(n_lo, n_hi))
        rng = make_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        y = rng.uniform(0.5, 1.5, n)
        y[rng.permutation(n)[:data.draw(st.sampled_from([1, 1, 2]))]] = 1e200
        s = Sample(rng.uniform(0.3, 0.7, n), y)
        # one sign per member, so no finite sum cancels
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        terms = st.lists(st.tuples(
            st.sampled_from([sign, 2.25 * sign]),
            st.tuples(*[st.integers(0, data.draw(st.sampled_from([1, 1, 2])))] * m)
            .filter(lambda e: sum(e) >= 2)), min_size=1, max_size=2)
        difference = [(1.0, (2,) + (0,) * (m - 1)), (-1.0, (0, 2) + (0,) * (m - 2))]
        phi = data.draw(st.one_of(
            st.just(builtin_member("product", m)),
            st.just(polynomial_member("diff", m, difference)),
            terms.map(lambda t: polynomial_member("poly", m, t))))
        t = tuple(data.draw(st.floats(0.45, 0.55)) for _ in range(m))
        spec = UKernelSpec(phi, data.draw(st.sampled_from([0.8, 0.999])), t,
                           data.draw(st.sampled_from(ORACLE_KERNELS[:2])))
        assert window_tuples(spec, s) > EXACT_PATH_MAX
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = u_stat_brute(ukernel_scalar(spec), s, m).value
            except ValueError:  # -inf + inf in fsum
                want = math.nan
        if math.isfinite(want):
            assert abs(u_stat_windowed(spec, s).value - want) <= 1e-12 * abs(want)
        else:
            with pytest.raises(NonFiniteSum):
                u_stat_windowed(spec, s)


def frozen_windows(h, t, s):
    """The per-coordinate closed windows |t_j - x| <= h/2, found by testing
    every x: half-open ranges of positions in the stable x-sort."""
    out = []
    for tj in t:
        inside = np.flatnonzero(np.abs(tj - s.x_sorted) <= h / 2.0)
        assert inside.size == 0 or inside[-1] + 1 - inside[0] == inside.size
        out.append((int(inside[0]), int(inside[-1]) + 1) if inside.size else (0, 0))
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
    """A sample, 1-4 bandwidths, a member and a shuffled tensor grid of
    points whose windows range from empty through exact-path to vectorized,
    with tied x values and points exactly on the window edges."""
    hs = draw(st.lists(st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.7, 0.999]),
                       min_size=1, max_size=4, unique=True))
    axis = draw(st.lists(st.floats(0.25, 0.75), min_size=1, max_size=4, unique=True))
    points = draw(st.permutations(list(itertools.product(axis, repeat=m))))
    sizes = {1: [(2, 40), (600, 800)], 2: [(2, 20), (25, 70), (70, 150)],
             3: [(3, 8), (8, 14)]}[m]
    n = draw(st.integers(*draw(st.sampled_from(sizes))))
    rng = make_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.0, 1.0, n)
    edges = [v + sign * h / 2.0 for h in hs for v in axis for sign in (-1.0, 1.0)]
    n_edges = draw(st.integers(0, min(n, len(edges))))
    x[:n_edges] = edges[:n_edges]
    ties = draw(st.integers(0, n // 2))
    x[n - ties:] = x[:ties]
    y = np.round(rng.normal(0.5, 1.0, n), 1)
    phi = draw(oracle_member(m, poly=True))
    kernel = draw(st.sampled_from(ORACLE_KERNELS))
    return Sample(x, y), hs, points, phi, kernel


def assert_same_results(got, expected):
    """Two lists of UStatResults agree in the bits of every value and in
    every count."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        assert (a.tuples_evaluated, a.tuples_total, a.mode) == (
            b.tuples_evaluated, b.tuples_total, b.mode)


class TestWindowGrid:
    """WindowGrid against the frozen per-point formula, bit for bit, with
    band budgets small enough to split rows and group runs of windows."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_grid_is_the_per_point_formula_bit_for_bit(self, m, data):
        s, hs, points, phi, kernel = data.draw(grid_case(m))
        members = [phi] + data.draw(st.lists(oracle_member(m, poly=True), max_size=2))
        band = data.draw(st.sampled_from([1, 40, 700, 6000, 2 ** 19]))
        fill = data.draw(st.sampled_from([1, 30, 2 ** 15]))
        chunk = data.draw(st.sampled_from([1, 50, 700, 4_000_000]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
            patch.setattr(condu.ucore, "_FILL_ELEMENTS", fill)
            patch.setattr(condu.ucore, "_CHUNK_ELEMENTS", chunk)
            grid = WindowGrid(s, hs, points, kernel)
            dens, *got = grid.u_stats([None, *members])
            # frozen_cell splits its m = 3 sum at the patched chunk size too
            expected = [[frozen_cell(UKernelSpec(phi, h, t, kernel), s) for t in points]
                        for h in hs]
            alone = [grid.u_stats([g])[0] for g in members]
            ones = grid.u_stats([builtin_member("one", m)])[0]
        assert len(got[0]) == len(dens) == len(hs)
        for h_got, h_expected in zip(got[0], expected):
            assert len(h_got) == len(points)
            for res, (value, evaluated) in zip(h_got, h_expected):
                assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                assert res.tuples_evaluated == evaluated
                assert res.tuples_total == count_indices(s.n, m)
        for g_got, g_alone in zip(got, alone):
            for h_got, h_alone in zip(g_got, g_alone):
                assert_same_results(h_got, h_alone)
        for h_dens, h_ones in zip(dens, ones):
            assert_same_results(h_dens, h_ones)

    @pytest.mark.parametrize("m, n", [(1, 1500), (2, 300)])
    @pytest.mark.parametrize("band, fill", [(2 ** 19, 2 ** 15), (3000, 50)])
    def test_every_member_on_a_banded_grid(self, m, n, band, fill):
        s = random_sample(make_rng(23), n)
        k = get_kernel("epanechnikov-rescaled")
        # the wider windows start lower: a shared band's rows differ by cell
        hs = [0.3, 0.45]
        points = list(itertools.product(np.linspace(0.3, 0.7, 5), repeat=m))
        members = all_members(m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
            patch.setattr(condu.ucore, "_FILL_ELEMENTS", fill)
            results = WindowGrid(s, hs, points, k).u_stats(members)
        for phi, got in zip(members, results):
            for h, h_got in zip(hs, got):
                for t, res in zip(points, h_got):
                    spec = UKernelSpec(phi, h, t, k)
                    assert window_tuples(spec, s) > EXACT_PATH_MAX
                    value, evaluated = frozen_cell(spec, s)
                    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
                    assert res.tuples_evaluated == evaluated
                    assert res == u_stat_windowed(spec, s)

    @pytest.fixture(scope="class")
    def two_chunk_cell(self):
        """One m = 3 point whose window splits into two chunks at the real
        _CHUNK_ELEMENTS: about 4.4 M tuples."""
        s = random_sample(make_rng(26), 165)
        spec = UKernelSpec(builtin_member("one", 3), 0.999, (0.5,) * 3,
                           get_kernel("epanechnikov-rescaled"))
        sizes = [hi - lo for lo, hi in _windows(spec, s)]
        assert sizes[0] > condu.ucore._CHUNK_ELEMENTS // (sizes[1] * sizes[2])
        return s, spec

    @pytest.mark.parametrize("member", ["product", "sum", "identity_j:2", "one"])
    def test_two_chunk_cell_is_the_per_point_formula_bit_for_bit(self, two_chunk_cell, member):
        s, spec = two_chunk_cell
        spec = dataclasses.replace(spec, g=builtin_member(member, 3))
        value, evaluated = frozen_cell(spec, s)
        got = WindowGrid(s, [spec.h], [spec.t], spec.kernel).u_stats([spec.g])[0][0][0]
        assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
        assert got.tuples_evaluated == evaluated
        assert got == u_stat_windowed(spec, s)

    @pytest.mark.parametrize("member", ["product", "identity_j:2"])
    def test_two_chunk_cell_allocates_one_chunk_buffer(self, two_chunk_cell, member):
        # a 4 M-value chunk buffer is 32 MB; evaluation planes, mask and
        # products of the whole chunk would add about 90 MB
        s, spec = two_chunk_cell
        spec = dataclasses.replace(spec, g=builtin_member(member, 3))
        tracemalloc.start()
        try:
            u_stat_windowed(spec, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    def test_two_chunk_denominator_is_the_one_member_in_one_chunk_buffer(self, two_chunk_cell):
        # the denominator and a member share the cell's one chunk buffer
        s, spec = two_chunk_cell
        grid = WindowGrid(s, [spec.h], [spec.t], spec.kernel)
        tracemalloc.start()
        try:
            dens, _ = grid.u_stats([None, builtin_member("product", 3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
        assert_same_results(dens[0], grid.u_stats([builtin_member("one", 3)])[0][0])

    def test_pair_bands_of_all_bandwidths_keep_one_band_alive(self, monkeypatch):
        # every cell is banded and fits a band; with one band alive at a time
        # the peak is one band plus the fill blocks, weights and G @ w_2
        band = 2 ** 18
        monkeypatch.setattr(condu.ucore, "_BAND_ELEMENTS", band)
        monkeypatch.setattr(condu.ucore, "_FILL_ELEMENTS", 2 ** 10)
        s = random_sample(make_rng(28), 2000)
        points = list(itertools.product(np.linspace(0.3, 0.7, 5), repeat=2))
        grid = WindowGrid(s, [0.05, 0.1, 0.15, 0.2], points, get_kernel("uniform"))
        widths = [hi - lo for ranges in grid.ranges for lo, hi in ranges]
        assert min(widths) ** 2 > EXACT_PATH_MAX and max(widths) ** 2 <= band
        phi = builtin_member("sum_clipped:2.5", 2)
        tracemalloc.start()
        try:
            grid.u_stats([None, phi])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * band * 0.5 < peak <= 8 * band * 1.25

    @pytest.mark.parametrize("members", [0, 1, 3])
    def test_pair_diagonal_is_found_once_per_banded_cell(self, monkeypatch, members):
        calls = []

        def counted(r1, r2, order):
            calls.append((r1, r2))
            return _common_positions(r1, r2, order)

        monkeypatch.setattr(condu.ucore, "_common_positions", counted)
        s = random_sample(make_rng(29), 300)
        points = list(itertools.product(np.linspace(0.3, 0.7, 3), repeat=2))
        grid = WindowGrid(s, [0.2, 0.3], points, get_kernel("uniform"))
        widths = [hi - lo for ranges in grid.ranges for lo, hi in ranges]
        assert min(widths) ** 2 > EXACT_PATH_MAX
        grid.u_stats([None] + all_members(2)[:members])
        assert len(calls) == len(grid.hs) * len(points)

    @pytest.mark.parametrize("h, t", [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5),
                                      (math.inf, 0.5), (0.3, math.nan), (0.3, -math.inf)])
    def test_bad_bandwidth_or_point_is_a_typed_error(self, h, t):
        s = random_sample(make_rng(24), 10)
        with pytest.raises(InvalidBandwidth):
            WindowGrid(s, [0.3, h], [(0.5,), (t,)], get_kernel("uniform"))

    def test_point_length_must_match_the_member(self):
        s = random_sample(make_rng(25), 10)
        grid = WindowGrid(s, [0.3], [(0.5, 0.5)], get_kernel("uniform"))
        with pytest.raises(SchemaError):
            grid.u_stats([builtin_member("sum", 1)])
