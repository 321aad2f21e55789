import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from condu.errors import InvalidBandwidth, OutputFileError, SchemaError
from condu.function_class import builtin_member
from condu.kernels import (
    _WRITE_ROWS,
    Kernel1D,
    _leggauss,
    atomic_write,
    builtin_kernel_ids,
    composite_integral,
    composite_rule,
    eval_scaled,
    gauss_legendre_panels,
    get_kernel,
    load_table_kernel,
    read_csv_columns,
    table_kernel,
    validate_kernel,
    write_csv,
)
from condu.ucore import UKernelSpec, read_sample_csv, ukernel_scalar
from conftest import frozen_composite_integral, frozen_panels


def product_kernel(kernel_id, h, t, x):
    """prod_j h^{-1} K((t_j - x_j)/h): the exact-path U-kernel with g = 1."""
    spec = UKernelSpec(builtin_member("one", len(t)), h, t, get_kernel(kernel_id))
    return ukernel_scalar(spec)(tuple(x), (0.0,) * len(t))


class TestBuiltinCatalog:
    def test_uniform_passes_validation_with_unit_integral_and_kappa_one(self):
        rep = validate_kernel(get_kernel("uniform"))
        assert rep.passed
        assert abs(rep.integral - 1.0) <= 1e-10
        assert rep.sup_abs <= 1.0 + 1e-12

    def test_epanechnikov_rescaled_has_unit_integral(self):
        # oracle: antiderivative of (3/2)(1-4u^2) is (3/2)(u - 4u^3/3);
        # evaluated over [-1/2, 1/2] gives exactly 1
        k = get_kernel("epanechnikov-rescaled")
        rep = validate_kernel(k)
        assert rep.passed
        assert abs(rep.integral - 1.0) <= 1e-10
        assert k.kappa == 1.5
        assert float(k(0.0)) == 1.5

    def test_triweight_rescaled_validates(self):
        rep = validate_kernel(get_kernel("triweight-rescaled"))
        assert rep.passed
        assert abs(rep.integral - 1.0) <= 1e-10

    def test_all_builtins_are_even(self):
        u = np.linspace(0.0, 0.5, 101)
        for kid in builtin_kernel_ids():
            k = get_kernel(kid)
            assert np.allclose(k(u), k(-u), atol=0.0)

    def test_support_boundary_is_closed(self):
        # the uniform kernel returns 1 at |u| = 1/2 exactly
        k = get_kernel("uniform")
        assert float(k(0.5)) == 1.0
        assert float(k(-0.5)) == 1.0
        assert float(k(np.nextafter(0.5, 1.0))) == 0.0

    def test_unknown_kernel_id_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            get_kernel("gaussian")


class TestValidateKernel:
    @pytest.mark.parametrize("halfwidth", [0.25, 1.0, math.nan])
    def test_a_support_half_width_other_than_one_half_is_a_schema_error(self, halfwidth):
        uniform = get_kernel("uniform")
        assert uniform.support_halfwidth == 0.5
        with pytest.raises(SchemaError, match="half-width"):
            Kernel1D("uniform", uniform.eval, 1.0, halfwidth)

    def test_too_wide_support_fails_with_violations_listed(self):
        wide = Kernel1D("wide", lambda u: np.where(np.abs(u) <= 1.0, 1.0, 0.0), 1.0)
        rep = validate_kernel(wide)
        assert not rep.passed
        assert rep.support_violations

    def test_signed_kernel_is_flagged_not_rejected(self):
        # K(u) = 3 - 8|u| on [-1/2, 1/2]: integral 3 - 8*(1/8)*2*... =
        # 2*(3/2 - 8/8) = 1, dips to -1 at the edges
        k = Kernel1D(
            "signed", lambda u: np.where(np.abs(u) <= 0.5, 3.0 - 8.0 * np.abs(u), 0.0),
            kappa=3.0,
        )
        rep = validate_kernel(k)
        assert rep.signed
        assert rep.passed
        assert abs(rep.integral - 1.0) <= 1e-10


class TestScaledEvaluation:
    def test_uniform_scaled_center_is_inverse_bandwidth(self):
        assert eval_scaled(get_kernel("uniform"), 0.5, 0.0) == 2.0

    def test_uniform_scaled_outside_half_window_is_zero(self):
        assert eval_scaled(get_kernel("uniform"), 0.5, 0.3) == 0.0

    def test_epanechnikov_center_value(self):
        assert eval_scaled(get_kernel("epanechnikov-rescaled"), 1.0, 0.0) == 1.5

    def test_nonpositive_bandwidth_raises(self):
        with pytest.raises(InvalidBandwidth):
            eval_scaled(get_kernel("uniform"), 0.0, 0.1)

    def test_product_two_dim_inside_window(self):
        assert product_kernel("uniform", 1.0, (0.0, 0.0), (0.1, -0.2)) == 1.0

    def test_product_zero_when_any_coordinate_outside(self):
        assert product_kernel("uniform", 1.0, (0.0, 0.0), (0.6, 0.0)) == 0.0

    def test_product_m1_reduces_to_scaled_exactly(self):
        assert product_kernel("uniform", 0.5, (0.0,), (0.1,)) == eval_scaled(
            get_kernel("uniform"), 0.5, -0.1
        )
        assert product_kernel("uniform", 0.5, (0.0,), (0.1,)) == 2.0

    def test_dimension_mismatch_raises(self):
        # t has three coordinates but the function takes two arguments
        with pytest.raises(SchemaError):
            UKernelSpec(
                builtin_member("one", 2), 1.0, (0.0, 0.0, 0.0), get_kernel("uniform")
            )

    @given(
        h=st.floats(0.05, 2.0),
        t1=st.floats(-1, 1),
        t2=st.floats(-1, 1),
        x1=st.floats(-1, 1),
        x2=st.floats(-1, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_product_symmetric_in_t_and_x_for_even_kernels(self, h, t1, t2, x1, x2):
        a = product_kernel("epanechnikov-rescaled", h, (t1, t2), (x1, x2))
        b = product_kernel("epanechnikov-rescaled", h, (x1, x2), (t1, t2))
        assert a == pytest.approx(b, abs=1e-12)
        assert a >= 0.0


class TestTableKernels:
    def test_table_kernel_roundtrip_from_csv(self, tmp_path):
        path = tmp_path / "k.csv"
        us = np.linspace(-0.5, 0.5, 11)
        ks = np.where(np.abs(us) <= 0.5, 1.0, 0.0)
        path.write_text("u,k\n" + "\n".join(f"{u},{v}" for u, v in zip(us, ks)) + "\n")
        k = load_table_kernel(str(path))
        assert float(k(0.0)) == 1.0
        rep = validate_kernel(k)
        assert abs(rep.integral - 1.0) <= 1e-10

    def test_nonmonotone_abscissae_rejected(self):
        with pytest.raises(SchemaError):
            table_kernel([0.0, -0.1, 0.2], [1.0, 1.0, 1.0])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(SchemaError):
            load_table_kernel(str(path))


def read_measure_csv(path):
    """A width-3 reader, the shape of a reference-measure CSV."""
    return read_csv_columns(path, "x,y,w", "measure")


class TestCsvRows:
    """The one numeric row reader behind the kernel and sample CSVs, and a
    width-3 case."""

    LOADERS = [
        (load_table_kernel, "u,k", "-0.5,1\n0.5,1"),
        (read_sample_csv, "x,y", "0.1,1.0\n0.2,2.0"),
        (read_measure_csv, "x,y,w", "0.1,1.0,0.5\n0.2,2.0,0.5"),
    ]

    BAD_ROWS = {
        "missing": lambda w: ",".join([""] + ["1"] * (w - 1)),
        "non-numeric": lambda w: ",".join(["abc"] + ["1"] * (w - 1)),
        "non-finite": lambda w: ",".join(["inf"] + ["1"] * (w - 1)),
        "too-few": lambda w: ",".join(["1"] * (w - 1)),
        "too-many": lambda w: ",".join(["1"] * (w + 1)),
    }

    @pytest.mark.parametrize("loader, header, good", LOADERS)
    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_bad_row_names_its_line(self, tmp_path, loader, header, good, kind):
        width = header.count(",") + 1
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n{good}\n{self.BAD_ROWS[kind](width)}\n")
        with pytest.raises(SchemaError, match=f"row 4: expected {width} finite"):
            loader(str(path))

    @pytest.mark.parametrize("loader, header, good", LOADERS)
    def test_header_only_file_is_rejected(self, tmp_path, loader, header, good):
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n\n")
        with pytest.raises(SchemaError, match="no data rows"):
            loader(str(path))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_gets_the_mode_open_gives_it(self, tmp_path, umask, mode):
        # atomic_write alone and through the CSV writer
        out, csv, ref = tmp_path / "out.csv", tmp_path / "csv.csv", tmp_path / "ref.csv"
        old = os.umask(umask)
        try:
            atomic_write(str(out), iter(["x,y\n", "0.5,1\n"]))
            write_csv(str(csv), "x,y", [(0.5, 1)])
            with open(ref, "w") as fh:
                fh.write("x,y\n0.5,1\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == mode
        assert stat.S_IMODE(csv.stat().st_mode) == mode
        assert out.read_bytes() == csv.read_bytes() == ref.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["csv.csv", "out.csv", "ref.csv"]

    def test_failure_leaves_no_temp_file(self, tmp_path):
        def pieces():
            yield "x,y\n"
            raise KeyError("stop")

        (tmp_path / "taken").mkdir()
        with pytest.raises(OutputFileError):
            atomic_write(str(tmp_path / "taken"), "x,y\n")
        with pytest.raises(KeyError):
            atomic_write(str(tmp_path / "out.csv"), pieces())
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def frozen_csv_text(header, rows):
    """CSV text by the rules the writer keeps, field by field: a float
    (np.float64 included) takes "%.17g", so nan, inf and -0.0 are spelled
    "nan", "inf" and "-0"; an int or a str takes str()."""
    def field(v):
        return "%.17g" % v if isinstance(v, float) else str(v)

    return "".join(",".join(map(field, row)) + "\n" for row in [header.split(","), *rows])


# per column type, the values a row may hold; each row picks its own
COLUMN_VALUES = {
    "float": st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1]),
    "np.float64": st.floats().map(np.float64),
    "int": st.integers(),
    "str": st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6),
}


class TestWriteCsv:
    """The one CSV writer: its bytes are those of the frozen per-field rules
    over batch boundaries, and it writes atomically."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           kinds=st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=1, max_size=5),
           n_rows=st.integers(0, 3 * _WRITE_ROWS) | st.sampled_from(
               [0, 1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1, 3 * _WRITE_ROWS]))
    def test_bytes_are_the_frozen_per_field_text(self, tmp_path_factory, data, kinds, n_rows):
        # a few drawn values per column, spread over the rows by a drawn
        # stride, keep the draw small while the rows cross every batch edge
        pools = [data.draw(st.lists(COLUMN_VALUES[k], min_size=1, max_size=8)) for k in kinds]
        stride = data.draw(st.integers(1, 7))
        rows = [tuple(pool[(i * stride + j) % len(pool)] for j, pool in enumerate(pools))
                for i in range(n_rows)]
        header = ",".join(f"c{j}" for j in range(len(kinds)))
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(str(path), header, iter(rows))
        assert path.read_bytes() == frozen_csv_text(header, rows).encode()

    def test_failure_mid_file_keeps_the_old_file(self, tmp_path):
        # the rows fail in the third batch, after two have been written
        def rows():
            for i in range(3 * _WRITE_ROWS):
                if i == 2 * _WRITE_ROWS + 5:
                    raise RuntimeError("rows failed mid-file")
                yield (0.1 * i, i)

        path = tmp_path / "out.csv"
        write_csv(str(path), "x,i", [(0.25, 0)])
        with pytest.raises(RuntimeError, match="mid-file"):
            write_csv(str(path), "x,i", rows())
        assert path.read_bytes() == b"x,i\n0.25,0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestGaussLegendreCache:
    @pytest.mark.parametrize("order", [1, 5, 20, 64])
    def test_cached_rule_equals_leggauss_and_is_read_only(self, order):
        nodes, weights = leggauss(order)
        cached_nodes, cached_weights = _leggauss(order)
        assert _leggauss(order)[1] is cached_weights
        assert np.array_equal(cached_nodes, nodes)
        assert np.array_equal(cached_weights, weights)
        x, half, w = gauss_legendre_panels([-1.0], [1.0], order)
        assert x.shape == (1, order) and np.array_equal(x[0], nodes)
        assert half.tolist() == [1.0] and w is cached_weights
        for arr in (cached_nodes, cached_weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


# integrands for the frozen-loop property: a kernel, a smooth function and
# one that is not smooth at 0
INTEGRANDS = [get_kernel("epanechnikov-rescaled"), np.exp, lambda x: np.abs(x) ** 1.5]


class TestCompositeRuleIsTheFrozenLoop:
    @settings(max_examples=100, deadline=None)
    @given(order=st.sampled_from([1, 3, 12, 20, 64]),
           cuts=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6, unique=True),
           f=st.sampled_from(INTEGRANDS))
    def test_integral_and_rule_equal_the_frozen_loop_bit_for_bit(self, order, cuts, f):
        cuts = sorted(cuts)
        got = composite_integral(f, cuts, order)
        assert type(got) is float
        want = frozen_composite_integral(f, cuts, order)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert composite_integral(f, np.array(cuts), order) == got
        # breaks outside [lo, hi] split nothing
        lo, hi = cuts[0], cuts[-1]
        nodes, weights = composite_rule(lo, hi, order, cuts[1:-1] + [lo - 1.0, hi + 1.0])
        panels = list(frozen_panels(cuts, order))
        assert nodes.tobytes() == np.concatenate([x for x, _, _ in panels]).tobytes()
        assert weights.tobytes() == np.concatenate([h * w for _, h, w in panels]).tobytes()

    @pytest.mark.parametrize("kernel_id", builtin_kernel_ids())
    def test_builtin_kernel_integrals_equal_the_frozen_loop(self, kernel_id):
        k = get_kernel(kernel_id)
        want = frozen_composite_integral(k, np.linspace(-0.5, 0.5, 9), 64)
        assert validate_kernel(k).integral == want
