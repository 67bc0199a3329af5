import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim.dimension import ROOT_RESIDUAL_TOL
from fracdim.errors import DegenerateDenominatorError, HypothesisError, ScaleError


def bisect_oracle(lengths, alpha, tol=1e-13):
    """Independent bisection for sum |alpha_i| a_i^(D-1) = 1."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        val = sum(abs(a) * l ** (mid - 1) for a, l in zip(alpha, lengths))
        if abs(val - 1.0) <= tol:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def box_count_loop(g, j):
    """Independent oracle: one column at a time, samples floor(k m/2^j)..ceil((k+1) m/2^j)."""
    n_cols = 2 ** j
    total = 0
    for k in range(n_cols):
        col = g.values[math.floor(k * g.m / n_cols) : math.ceil((k + 1) * g.m / n_cols) + 1]
        total += math.floor(col.max() * n_cols) - math.floor(col.min() * n_cols) + 1
    return total


class TestCollinear:
    def test_on_line(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 0.5, 1.0]))
        assert fd.collinear(d, 1e-12)

    def test_tent(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 1.0, 0.0]))
        assert not fd.collinear(d, 1e-12)

    def test_below_tolerance(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 0.5 + 1e-15, 1.0]))
        assert fd.collinear(d, 1e-12)


class TestRoot:
    def test_uniform_closed_form(self):
        d = fd.dimension_equation_root([0.5, 0.5], [0.75, 0.75])
        assert d == pytest.approx(1 + math.log2(1.5), abs=1e-10)

    def test_half_power(self):
        a = 2 ** -0.5
        assert fd.dimension_equation_root([0.5, 0.5], [a, a]) == pytest.approx(1.5, abs=1e-10)

    def test_nonuniform_against_bisection_oracle(self):
        # root of 0.9 (0.25^(D-1) + 0.75^(D-1)) = 1, frozen from the oracle
        expected = bisect_oracle([0.25, 0.75], [0.9, 0.9])
        got = fd.dimension_equation_root([0.25, 0.75], [0.9, 0.9])
        assert got == pytest.approx(expected, abs=1e-10)
        assert abs(0.9 * (0.25 ** (got - 1) + 0.75 ** (got - 1)) - 1.0) <= 1e-12

    @given(
        weights=st.lists(st.floats(1.0, 4.0), min_size=2, max_size=8),
        scales=st.lists(st.floats(0.05, 0.99), min_size=8, max_size=8),
        signs=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_root(self, weights, scales, signs):
        # every length is at most 4/5, so |phi'| >= |log 0.8| > 0.22 near the
        # root and a residual <= ROOT_RESIDUAL_TOL puts D within 5e-13 of it
        lengths = np.array(weights) / sum(weights)
        alpha = np.where(signs, 1.0, -1.0)[: lengths.size] * scales[: lengths.size]
        assume(np.abs(alpha).sum() > 1.0 + 1e-6)
        d = fd.dimension_equation_root(lengths, alpha)
        assert 1.0 < d < 2.0
        assert abs(np.sum(np.abs(alpha) * lengths ** (d - 1.0)) - 1.0) <= ROOT_RESIDUAL_TOL
        with mpmath.workdps(40):
            terms = [(mpmath.mpf(abs(float(a))), mpmath.mpf(float(x))) for a, x in zip(alpha, lengths)]
            want = mpmath.findroot(lambda t: mpmath.fsum(a * x ** (t - 1) for a, x in terms) - 1,
                                   (mpmath.mpf(1), mpmath.mpf(2)), solver="anderson")
        assert abs(d - float(want)) <= 1e-12

    def test_rejects_nan_length(self):
        with pytest.raises(ValueError):
            fd.dimension_equation_root([math.nan, 0.5], [0.8, 0.8])

    def test_rejects_subcritical(self):
        with pytest.raises(HypothesisError):
            fd.dimension_equation_root([0.5, 0.5], [0.4, 0.4])

    def test_phi_monotone_and_bracketed(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            lengths = rng.dirichlet(np.ones(n) * 5)
            alpha = rng.uniform(0.3, 0.95, n)
            if alpha.sum() <= 1.0:
                continue
            ds = np.linspace(1, 2, 21)
            phis = [np.sum(alpha * lengths ** (d - 1)) for d in ds]
            assert all(a > b for a, b in zip(phis, phis[1:]))
            assert phis[0] > 1.0 and phis[-1] < 1.0


class TestPredictBox:
    def test_subcritical_is_one(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 1.0, 0.0]))
        rep = fd.predict_box_dim(d, [0.3, 0.3])
        assert rep.predicted == 1.0
        assert rep.predicted_kind == "degenerate_one"

    def test_supercritical(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 1.0, 0.0]))
        rep = fd.predict_box_dim(d, [0.75, 0.75])
        assert rep.predicted == pytest.approx(1 + math.log2(1.5), abs=1e-9)
        assert rep.predicted_kind == "box"

    def test_collinear_diagnostic(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 0.5, 1.0]))
        rep = fd.predict_box_dim(d, [0.75, 0.75])
        assert rep.predicted is None
        assert "collinear" in rep.diagnostic

    def test_rejects_large_alpha(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            fd.predict_box_dim(d, [1.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, bad):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            fd.predict_box_dim(d, [bad, 0.7])
        with pytest.raises(ValueError):
            fd.predict_hausdorff_dim(d, [bad, 0.7])
        with pytest.raises(ValueError):
            fd.dimension_equation_root([0.5, 0.5], [bad, 0.7])


class TestHausdorffCondition:
    def test_parabola_data(self):
        xs = np.linspace(0, 1, 5)
        ys = xs * (1 - xs)
        d = fd.DataSet(xs, ys)
        assert fd.hausdorff_condition(d, [0.5] * 4, 1e-9)

    def test_equal_increments_false(self):
        xs = np.linspace(0, 1, 5)
        ys = 2.0 * xs  # equal increments, equal alpha, uniform knots
        d = fd.DataSet(xs, ys)
        assert not fd.hausdorff_condition(d, [0.5] * 4, 1e-9)

    def test_two_branch_distinct_alpha(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0.0, 0.7, 0.2]))
        assert fd.hausdorff_condition(d, [0.3, 0.6], 1e-9)

    def test_degenerate_denominator(self):
        d = fd.DataSet(np.array([0, 0.5, 1.0]), np.array([0.0, 0.7, 0.2]))
        with pytest.raises(DegenerateDenominatorError):
            fd.hausdorff_condition(d, [0.5, 0.2], 1e-9)

    def test_quotients_match_manual_computation(self):
        xs = np.linspace(0, 1, 5)
        ys = xs * (1 - xs)
        alpha = [0.5] * 4
        span = ys[-1] - ys[0]
        q = [
            (ys[i + 1] - ys[i] - alpha[i] * span) / (xs[i + 1] - xs[i] - alpha[i])
            for i in range(4)
        ]
        assert max(q) - min(q) > 1e-9  # what the checker decides on


class TestPredictHausdorff:
    def test_uniform_four(self):
        xs = np.linspace(0, 1, 5)
        d = fd.DataSet(xs, xs * (1 - xs))
        rep = fd.predict_hausdorff_dim(d, [0.5] * 4)
        assert rep.predicted == pytest.approx(1.5, abs=1e-10)
        assert rep.predicted_kind == "hausdorff"

    def test_subcritical_diagnostic(self):
        xs = np.linspace(0, 1, 5)
        d = fd.DataSet(xs, xs * (1 - xs))
        rep = fd.predict_hausdorff_dim(d, [0.2] * 4)
        assert rep.predicted is None
        assert "alpha" in rep.diagnostic

    def test_condition_false_diagnostic(self):
        xs = np.linspace(0, 1, 5)
        d = fd.DataSet(xs, 2.0 * xs)
        rep = fd.predict_hausdorff_dim(d, [0.5] * 4)
        assert rep.predicted is None
        assert "quotient" in rep.diagnostic


class TestBoxCount:
    def test_constant_one_cell_per_column(self):
        g = fd.sample(fd.Polynomial([0.37]), 2 ** 12)
        for j in (2, 5, 8):
            assert fd.box_count(g, j) == 2 ** j

    def test_identity_bounds(self):
        g = fd.sample(fd.Polynomial([0, 1]), 2 ** 12)
        for j in (3, 6, 9):
            assert 2 ** j <= fd.box_count(g, j) <= 2 ** (j + 1)

    def test_scale_too_fine(self):
        g = fd.sample(fd.Polynomial([0, 1]), 16)
        with pytest.raises(ScaleError):
            fd.box_count(g, 4)

    @pytest.mark.parametrize("count", [lambda g: fd.box_count(g, 2), lambda g: fd.estimate_box_dim(g, 1, 3)],
                             ids=["box_count", "estimate_box_dim"])
    def test_box_counting_rejects_the_knots_form(self, count):
        g = fd.GridFunction.on_knots(np.linspace(0.0, 1.0, 65) ** 2, np.zeros(65))
        with pytest.raises(ValueError, match="uniform grid"):
            count(g)

    def test_scale_consistency(self):
        g = fd.sample(fd.WeierstrassSeries(0.5, 3, 10), 2 ** 14)
        for j in range(2, 10):
            n_j = fd.box_count(g, j)
            n_next = fd.box_count(g, j + 1)
            assert n_next >= n_j  # finer mesh never needs fewer cells
            assert n_j <= 4 * n_next

    def test_non_divisible_resolution_matches_loop(self):
        # 3 * 2^10 samples at j=4 exercise the column-loop fallback
        g = fd.sample(fd.WeierstrassSeries(0.5, 3, 6), 3 * 2 ** 10)
        count = fd.box_count(g, 4)
        assert count >= 2 ** 4

    @pytest.mark.parametrize("m", [1000, 100000, 2 ** 14])
    def test_matches_column_loop(self, m):
        g = fd.sample(fd.WeierstrassSeries(0.6, 3, 20), m)
        for j in range(4, 13):
            if 2 ** (j + 1) > m:
                with pytest.raises(ScaleError):
                    fd.box_count(g, j)
            else:
                assert fd.box_count(g, j) == box_count_loop(g, j)


class TestScalePyramid:
    @pytest.mark.parametrize("m", [1000, 100000, 3 * 2 ** 10, 7 * 2 ** 13, 2 ** 16, 2 ** 20])
    def test_merged_columns_equal_box_count(self, m):
        rng = np.random.default_rng(m)
        g = fd.GridFunction(m, rng.standard_normal(m + 1).cumsum() / math.sqrt(m))
        finest = m.bit_length() - 2  # largest j with 2^(j+1) <= m
        rep = fd.estimate_box_dim(g, 0, finest)
        assert rep.scales_used == [(2.0 ** -j, fd.box_count(g, j)) for j in range(finest + 1)]

    @pytest.mark.parametrize("m", [1000, 2 ** 12])
    def test_bad_scales_raise_as_box_count(self, m):
        g = fd.sample(fd.Polynomial([0, 1]), m)
        finest = m.bit_length() - 2
        for j_min, j_max, first_bad in [(finest - 3, finest + 2, finest + 1), (-1, 5, -1), (-2, finest + 1, -2)]:
            with pytest.raises(Exception) as want:
                fd.box_count(g, first_bad)
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                fd.estimate_box_dim(g, j_min, j_max)


class TestEstimate:
    def test_identity_slope(self):
        g = fd.sample(fd.Polynomial([0, 1]), 2 ** 16)
        rep = fd.estimate_box_dim(g, 3, 10)
        assert abs(rep.raw_slope - 1.0) <= 0.05
        assert rep.r_squared > 0.99

    def test_constant_slope(self):
        g = fd.sample(fd.Polynomial([2.0]), 2 ** 16)
        rep = fd.estimate_box_dim(g, 3, 10)
        assert abs(rep.raw_slope - 1.0) <= 0.01

    def test_smooth_functions_near_one(self):
        for f in (fd.Polynomial([0, 0, 1]), fd.Polynomial([1, -3, 2, 0.5])):
            rep = fd.estimate_box_dim(fd.sample(f, 2 ** 16), 3, 10)
            assert 0.9 <= rep.raw_slope <= 1.1

    def test_fif_slope_matches_prediction(self):
        a = 0.7
        spec = fd.make_affine_spec([0, 0.5, 1], [0.0, 1.0, 0.0], [a, a])
        predicted = fd.dimension_equation_root([0.5, 0.5], [a, a])
        fif = fd.solve_fixed_point(spec, m=2 ** 18, tol=1e-8)
        rep = fd.estimate_box_dim(fif.grid, 4, 10)
        assert abs(rep.raw_slope - predicted) <= 0.15

    @pytest.mark.parametrize(
        "f, exact",
        [(fd.WeierstrassSeries(0.6, 3, 20), False), (fd.Polynomial([0.37]), True)],
    )
    def test_fit_matches_polyfit_and_corrcoef(self, f, exact):
        rep = fd.estimate_box_dim(fd.sample(f, 2 ** 16), 4, 12)
        js = np.arange(4, 13)
        logs = np.log2([count for _, count in rep.scales_used])
        (slope, _), cov = np.polyfit(js, logs, 1, cov=True)
        r = np.corrcoef(js, logs)[0, 1]
        assert rep.raw_slope == pytest.approx(slope, rel=1e-12)
        # the stderr goes through 1 - r^2 (5e-5 for the Weierstrass sample),
        # which costs about four of the sixteen digits
        assert rep.slope_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-10, abs=1e-15)
        assert rep.r_squared == pytest.approx(r * r, rel=1e-12)
        if exact:  # counts 2^j: a perfect line
            assert rep.raw_slope == 1.0
            assert rep.r_squared == 1.0
            assert rep.slope_stderr == 0.0

    def test_too_few_scales(self):
        g = fd.sample(fd.Polynomial([0, 1]), 2 ** 10)
        with pytest.raises(ValueError):
            fd.estimate_box_dim(g, 4, 5)

    def test_report_serialization(self, tmp_path):
        g = fd.sample(fd.Polynomial([0, 1]), 2 ** 12)
        rep = fd.estimate_box_dim(g, 3, 8)
        payload = rep.to_json()
        assert payload["estimated"] is not None
        assert len(payload["scales_used"]) == 6
        path = tmp_path / "scales.csv"
        rep.scales_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,delta,count"
        assert len(lines) == 7
