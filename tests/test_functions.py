import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim.errors import DomainError
from fracdim.functions import _weierstrass_terms


class TestEval:
    def test_identity(self):
        assert fd.Polynomial([0, 1])(0.5) == 0.5

    def test_weierstrass_single_term_at_zero(self):
        assert fd.WeierstrassSeries(0.5, 3, 0)(0.0) == 1.0

    def test_quadratic_horner_oracle(self):
        # (1 - x)^2 at x = 0.5, evaluated by explicit Horner in the test
        coeffs = [1.0, -2.0, 1.0]
        x = 0.5
        expected = coeffs[2]
        expected = expected * x + coeffs[1]
        expected = expected * x + coeffs[0]
        assert fd.Polynomial(coeffs)(0.5) == pytest.approx(expected, abs=1e-15)
        assert expected == 0.25

    @given(
        coeffs=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=9),
        xs=st.lists(st.floats(0.0, 1.0), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_eval_equals_polyval_bitwise(self, coeffs, xs):
        # the in-place Horner loop keeps polyval's operation order, signed zeros included
        x = np.array([0.0, 1.0, 5e-324] + xs)
        got = fd.Polynomial(coeffs)._eval(x)
        want = np.polynomial.polynomial.polyval(x, np.array(coeffs))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fd.Polynomial([0, 1])(1.5)
        with pytest.raises(DomainError):
            fd.Polynomial([0, 1])(-0.1)

    def test_nan_point_is_domain_error(self):
        with pytest.raises(DomainError):
            fd.Polynomial([0, 1])(float("nan"))
        with pytest.raises(DomainError):
            fd.WeierstrassSeries(0.5, 3)(np.array([0.2, np.nan, 0.7]))

    def test_weierstrass_default_truncation_tail(self):
        w = fd.WeierstrassSeries(0.5, 3)
        tail = w.a ** (w.k_max + 1) / (1 - w.a)
        assert tail < 1e-12

    def test_weierstrass_default_truncation_matches_search(self):
        def search(a):
            k = 0
            while a ** (k + 1) / (1.0 - a) >= 1e-12:
                k += 1
            return k

        grid = np.r_[np.linspace(0.001, 0.999, 999), 1e-300, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)]
        for a in grid.tolist():
            assert _weierstrass_terms(a) == search(a), a

    def test_weierstrass_default_truncation_near_one_is_quick(self):
        # K is about 5.5e13 there, so 3^K pi is not a finite double
        start = time.perf_counter()
        with pytest.raises(ValueError, match="k_max"):
            fd.WeierstrassSeries(1.0 - 1e-12, 3)
        assert time.perf_counter() - start < 1.0

    def test_weierstrass_validation(self):
        with pytest.raises(ValueError):
            fd.WeierstrassSeries(1.5, 3)
        with pytest.raises(ValueError):
            fd.WeierstrassSeries(0.5, 0.5)

    def test_weierstrass_top_frequency_must_be_finite(self):
        # 3^645 pi is the last finite double of the form 3^k pi
        assert fd.WeierstrassSeries(0.5, 3, 645).k_max == 645
        for k in (646, 700):
            with pytest.raises(ValueError, match="k_max"):
                fd.WeierstrassSeries(0.5, 3, k)
        with pytest.raises(ValueError, match="k_max"):
            fd.WeierstrassSeries(0.5, 1e300)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: fd.WeierstrassSeries(v, 3.0),
            lambda v: fd.WeierstrassSeries(0.5, v),
            lambda v: fd.Scaled(v, fd.Polynomial([0, 1])),
            lambda v: fd.Shifted(v, fd.Polynomial([0, 1])),
        ],
        ids=["weierstrass_a", "weierstrass_b", "scaled", "shifted"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, make, value):
        with pytest.raises(ValueError, match="must"):
            make(value)


class TestSample:
    def test_identity_grid(self):
        g = fd.sample(fd.Polynomial([0, 1]), 2)
        assert np.allclose(g.values, [0.0, 0.5, 1.0])

    def test_constant_grid(self):
        g = fd.sample(fd.Polynomial([3.0]), 4)
        assert np.all(g.values == 3.0)

    def test_weierstrass_matches_pointwise_eval(self):
        w = fd.WeierstrassSeries(0.5, 3, 8)
        g = fd.sample(w, 1024)
        for j in (0, 1, 17, 512, 1023, 1024):
            assert g.values[j] == w(j / 1024)

    @given(m=st.integers(min_value=1, max_value=200), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_sample_eval_consistency(self, m, seed):
        rng = np.random.default_rng(seed)
        f = fd.Polynomial(rng.standard_normal(4))
        g = fd.sample(f, m)
        xs = np.linspace(0, 1, m + 1)
        assert np.array_equal(g.values, f._eval(xs))


class TestNorms:
    def test_zero_diff(self):
        f = fd.Polynomial([1, 2, 3])
        assert fd.sup_norm_diff(f, f, 100) == 0.0

    def test_identity_vs_zero(self):
        assert fd.sup_norm_diff(fd.Polynomial([0, 1]), fd.Polynomial([0.0]), 10) == 1.0

    def test_quadratic_vs_identity(self):
        # max |x^2 - x| = 1/4 at x = 1/2 (calculus oracle)
        d = fd.sup_norm_diff(fd.Polynomial([0, 0, 1]), fd.Polynomial([0, 1]), 1000)
        assert d == pytest.approx(0.25, abs=1e-6)

    def test_monotone_in_nested_grids(self):
        f = fd.WeierstrassSeries(0.5, 3, 8)
        g = fd.Polynomial([0.0])
        for m in (64, 128, 256, 512):
            assert fd.sup_norm_diff(f, g, m) <= fd.sup_norm_diff(f, g, 2 * m) + 1e-15

    def test_lipschitz_identity(self):
        assert fd.lipschitz_estimate(fd.Polynomial([0, 1]), 100) == pytest.approx(1.0)

    def test_lipschitz_constant(self):
        assert fd.lipschitz_estimate(fd.Polynomial([7.0]), 100) == 0.0

    def test_lipschitz_quadratic(self):
        # sup |2x| on [0,1] is 2
        est = fd.lipschitz_estimate(fd.Polynomial([0, 0, 1]), 10 ** 4)
        assert est == pytest.approx(2.0, abs=1e-3)


class TestCombinators:
    def test_shifted_is_vertical_shift(self):
        f = fd.Polynomial([1, -1, 2])
        sh = fd.Shifted(0.75, f)
        xs = np.linspace(0, 1, 57)
        assert np.allclose(sh._eval(xs), f._eval(xs) + 0.75, atol=0)

    def test_sum_and_scaled(self):
        f = fd.Polynomial([0, 1])
        g = fd.Polynomial([1.0])
        h = fd.Sum(fd.Scaled(2.0, f), g)
        assert h(0.5) == pytest.approx(2.0)

    def test_antiderivative_of_polynomial(self):
        # closed-form antiderivative of 3x^2 + 1 is x^3 + x
        f = fd.Polynomial([1, 0, 3])
        F = fd.AntiDerivative(f, panels=4096)
        xs = np.linspace(0, 1, 101)
        exact = xs ** 3 + xs
        assert np.max(np.abs(F._eval(xs) - exact)) <= 10.0 / 4096 ** 2

    def test_piecewise_linear_hits_knots(self):
        pl = fd.GridFunction.on_knots([0, 0.25, 1.0], [1.0, -1.0, 2.0])
        assert pl(0.25) == -1.0
        assert pl(0.625) == pytest.approx(0.5)

    def test_grid_backed_interpolates(self):
        g = fd.GridFunction(2, np.array([0.0, 1.0, 0.0]))
        f = g
        assert f(0.25) == pytest.approx(0.5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_knots_form_is_np_interp(self, data):
        inner = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), unique=True, max_size=12))
        knots = np.array([0.0, *sorted(inner), 1.0])
        values = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=knots.size, max_size=knots.size)))
        xs = np.array(data.draw(st.lists(st.floats(0.0, 1.0), max_size=64)))
        f = fd.GridFunction.on_knots(knots, values)
        assert np.array_equal(f(xs).view(np.int64), np.interp(xs, knots, values).view(np.int64))
        assert np.array_equal(f(knots).view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("m", [1, 3, 64, 1000, 3 ** 7])
    def test_uniform_form_weights_the_two_neighbouring_samples(self, m):
        rng = np.random.default_rng(m)
        g = fd.GridFunction(m, rng.standard_normal(m + 1))
        xs = np.concatenate([rng.uniform(0.0, 1.0, 4096), np.linspace(0.0, 1.0, m + 1)])
        pos = xs * m
        i0 = np.minimum(np.floor(pos).astype(np.int64), m - 1)
        frac = pos - i0
        want = g.values[i0] * (1.0 - frac) + g.values[i0 + 1] * frac
        assert np.array_equal(g(xs).view(np.int64), want.view(np.int64))


class TestPartitionAndGrid:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            fd.Partition(np.array([0.0, 0.5, 0.9]))
        with pytest.raises(ValueError):
            fd.Partition(np.array([0.0, 0.6, 0.5, 1.0]))

    def test_partition_lengths_sum_to_one(self):
        p = fd.Partition(np.array([0.0, 0.25, 1.0]))
        assert p.lengths.sum() == pytest.approx(1.0)

    def test_grid_rejects_nan(self):
        with pytest.raises(ValueError):
            fd.GridFunction(2, np.array([0.0, np.nan, 1.0]))

    def test_grid_csv_roundtrip(self, tmp_path):
        g = fd.sample(fd.Polynomial([0, 0, 1]), 16)
        path = tmp_path / "g.csv"
        g.to_csv(path)
        assert path.read_text().startswith("x,y\n")
        back = fd.GridFunction.from_csv(path)
        assert back.m == 16
        assert np.allclose(back.values, g.values)

    def test_grid_csv_roundtrip_is_exact_off_dyadic_grid(self, tmp_path):
        g = fd.sample(fd.WeierstrassSeries(0.5, 3), 3 ** 5)
        path = tmp_path / "g.csv"
        g.to_csv(path)
        assert np.array_equal(fd.GridFunction.from_csv(path).values, g.values)

    @pytest.mark.parametrize("xs", [
        np.linspace(0, 1, 9)[[0, 2, 1, 3, 4, 5, 6, 7, 8]],  # out of order
        np.linspace(0, 1, 9) ** 2,  # not uniform
        np.linspace(0, 0.5, 9),  # does not span [0, 1]
    ])
    def test_grid_csv_rejects_other_x_columns(self, tmp_path, xs):
        path = tmp_path / "bad.csv"
        fd.write_xy_csv(path, xs, np.zeros(9))
        with pytest.raises(ValueError):
            fd.GridFunction.from_csv(path)

    @pytest.mark.parametrize("rows", [1, 7, fd.functions.CSV_BLOCK_ROWS, 2 * fd.functions.CSV_BLOCK_ROWS + 5])
    def test_csv_bytes_equal_per_row_format(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        specials = [0.0, -0.0, 5e-324, -1e300, 1 / 3, np.inf, -np.nan]
        xs = rng.uniform(-1.0, 1.0, rows)
        ys = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        xs[: len(specials)] = specials[:rows]
        ys[-len(specials):] = specials[-rows:]
        path = tmp_path / "xy.csv"
        fd.write_xy_csv(path, xs, ys)
        want = "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(xs, ys))
        assert path.read_bytes() == want.encode()

    def test_csv_rejects_unequal_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            fd.write_xy_csv(tmp_path / "xy.csv", np.zeros(5), np.zeros(4))


class TestJson:
    def test_roundtrip_all_kinds(self):
        f = fd.Sum(
            fd.Scaled(2.0, fd.Polynomial([0, 1])),
            fd.Shifted(-1.0, fd.AntiDerivative(fd.WeierstrassSeries(0.5, 3, 4))),
        )
        back = fd.func_from_json(json.dumps(fd.func_to_json(f)))
        xs = np.linspace(0, 1, 33)
        assert np.allclose(back._eval(xs), f._eval(xs))

    def test_antiderivative_keeps_its_panels(self):
        f = fd.AntiDerivative(fd.WeierstrassSeries(0.5, 3, 8), panels=64)
        back = fd.func_from_json(json.dumps(fd.func_to_json(f)))
        assert back.panels == 64
        xs = np.linspace(0.0, 1.0, 4097)
        assert np.array_equal(back._eval(xs), f._eval(xs))

    def test_antiderivative_without_panels_uses_the_default(self):
        back = fd.func_from_json({"kind": "antiderivative", "inner": {"kind": "polynomial", "coeffs": [1.0]}})
        assert back.panels == fd.functions.DEFAULT_QUADRATURE_PANELS

    def test_piecewise_linear_json(self):
        f = fd.func_from_json(
            {"kind": "piecewise_linear", "knots": [0, 0.5, 1], "values": [0, 1, 0]}
        )
        assert f(0.5) == 1.0

    def test_piecewise_linear_roundtrip_is_exact(self):
        f = fd.GridFunction.on_knots([0.0, 0.1, 0.35, 1.0], [0.2, -1.0 / 3.0, 2.0 ** -40, 7.5])
        back = fd.func_from_json(json.dumps(fd.func_to_json(f)))
        assert isinstance(back, fd.GridFunction)
        assert np.array_equal(back.partition.knots, f.partition.knots)
        assert np.array_equal(back.values, f.values)
        xs = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(back._eval(xs), f._eval(xs))

    @pytest.mark.parametrize("obj", [
        {"kind": "weierstrass", "a": 0.5, "b": 3, "K": 1.5},
        {"kind": "weierstrass", "a": 0.5, "b": 3, "K": math.inf},
        {"kind": "antiderivative", "inner": {"kind": "polynomial", "coeffs": [1.0]}, "panels": 1.5},
    ], ids=["K", "K-inf", "panels"])
    def test_non_integer_counts_are_rejected(self, obj):
        with pytest.raises(ValueError, match="whole number"):
            fd.func_from_json(obj)

    def test_integral_counts_load_as_ints(self):
        w = fd.func_from_json({"kind": "weierstrass", "a": 0.5, "b": 3, "K": 8.0})
        inner = {"kind": "polynomial", "coeffs": [1.0]}
        f = fd.func_from_json({"kind": "antiderivative", "inner": inner, "panels": 64.0})
        assert (w.k_max, f.panels) == (8, 64)
        assert type(w.k_max) is int and type(f.panels) is int

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "weierstrass", "a": 0.5, "b": NaN}',
            '{"kind": "weierstrass", "a": 0.5, "b": Infinity}',
            '{"kind": "scaled", "factor": NaN, "inner": {"kind": "polynomial", "coeffs": [1.0]}}',
            '{"kind": "shifted", "offset": -Infinity, "inner": {"kind": "polynomial", "coeffs": [1.0]}}',
        ],
    )
    def test_non_finite_parameters_are_rejected(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            fd.func_from_json(text)

    def test_weierstrass_top_frequency_must_be_finite(self):
        with pytest.raises(ValueError, match="k_max"):
            fd.func_from_json({"kind": "weierstrass", "a": 0.5, "b": 3, "K": 700})

    @pytest.mark.parametrize(
        "obj, kind",
        [
            ({"kind": "scaled", "factor": None, "inner": {"kind": "polynomial", "coeffs": [1.0]}}, "scaled"),
            ({"kind": "weierstrass", "a": "x", "b": 3}, "weierstrass"),
            ({"kind": "sum", "terms": 5}, "sum"),
        ],
    )
    def test_fields_of_the_wrong_type_are_value_errors(self, obj, kind):
        with pytest.raises(ValueError, match=kind):
            fd.func_from_json(obj)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fd.func_from_json({"kind": "spline"})
