import json

import numpy as np
import pytest

import fracdim as fd
from fracdim.errors import (
    BetaRangeError,
    CollinearDataError,
    HypothesisError,
)


class TestAnchor:
    def test_vanishes_at_endpoints(self):
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        assert anchor(0.0) == 0.0
        assert anchor(1.0) == 0.0
        assert anchor(0.5) == pytest.approx(1.0, abs=1e-9)

    def test_predicted_dim(self):
        for beta in (1.2, 1.5, 1.9):
            assert fd.make_anchor(beta, m=2 ** 10).predicted_dim == beta

    def test_beta_gates(self):
        for beta in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(BetaRangeError):
                fd.make_anchor(beta, m=2 ** 10)


class TestBoxSequence:
    def test_affine_target_is_collinear(self):
        with pytest.raises(CollinearDataError):
            fd.dim_preserving_sequence(fd.Polynomial([0, 1]), 1.5, 4, m=2 ** 12)

    def test_alpha_value_uniform_partition(self):
        res = fd.dim_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 4, m=2 ** 12)
        assert res.alpha == pytest.approx(2.0 ** -0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_predicted_dimension_exact(self, n):
        res = fd.dim_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, n, m=2 ** 12)
        assert res.report.predicted == pytest.approx(1.5, abs=1e-10)

    def test_error_chain_inequality(self):
        # sup |f - f_n| <= sup |f - p_n| + alpha/(1-alpha) sup |p_n - B_n p_n|
        f = fd.Polynomial([0, 0, 1])
        res = fd.dim_preserving_sequence(f, 1.5, 4)
        sup_err = fd.sup_norm_diff(f, res.fif)
        bound = fd.sup_norm_diff(f, res.seed) + res.alpha / (1 - res.alpha) * fd.sup_norm_diff(
            res.seed, res.base
        )
        assert sup_err <= bound + 1e-9

    def test_error_bound_matches_formula(self):
        f = fd.Polynomial([0, 0, 1])
        res = fd.dim_preserving_sequence(f, 1.5, 4)
        bound = fd.sup_norm_diff(f, res.seed) + res.alpha / (1 - res.alpha) * fd.sup_norm_diff(
            res.seed, res.base
        )
        assert res.error_bound(f) == bound

    def test_interpolates_seed_at_knots(self):
        res = fd.dim_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 4)
        for x in (0.0, 0.5, 1.0):
            assert res.fif(x) == pytest.approx(res.seed(x), abs=1e-9)

    def test_custom_partition(self):
        res = fd.dim_preserving_sequence(
            fd.Polynomial([0, 0, 1]), 1.5, 4, partition=[0.0, 0.4, 1.0], m=2 ** 12
        )
        assert res.report.predicted == pytest.approx(1.5, abs=1e-10)

    def test_order_gate(self):
        with pytest.raises(ValueError):
            fd.dim_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 0)


class TestHausdorffSequence:
    def test_quadratic_no_perturbation(self):
        res = fd.hausdorff_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 4)
        assert not res.perturbed
        assert res.spec.alpha[0] == pytest.approx(0.5, abs=1e-15)
        assert res.sum_abs_alpha == pytest.approx(2.0, abs=1e-12)
        assert res.report.predicted == pytest.approx(1.5, abs=1e-10)
        # increments (1, 3, 5, 7)/16 are all distinct
        assert np.allclose(res.data.ys, np.linspace(0, 1, 5) ** 2)

    def test_constant_perturbs_first_ordinate(self):
        res = fd.hausdorff_preserving_sequence(fd.Polynomial([3.0]), 1.5, 4)
        assert res.perturbed
        assert res.data.ys[0] == pytest.approx(3.25, abs=1e-15)
        assert np.all(res.data.ys[1:] == 3.0)

    def test_perturbation_is_exactly_one_over_n(self):
        for n in (2, 4, 8):
            res = fd.hausdorff_preserving_sequence(fd.Polynomial([0.0]), 1.5, n)
            assert res.data.ys[0] == pytest.approx(1.0 / n, abs=1e-16)

    def test_solved_spec_interpolates(self):
        res = fd.hausdorff_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 4)
        fif = fd.solve_fixed_point(res.spec, m=2 ** 16, tol=1e-10)
        for i, x in enumerate(np.linspace(0, 1, 5)):
            assert fif(x) == pytest.approx(res.data.ys[i], abs=1e-9)

    def test_branch_count_gate(self):
        with pytest.raises(ValueError):
            fd.hausdorff_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 1)


class TestDense:
    def test_error_split(self):
        f = fd.WeierstrassSeries(0.5, 3, 8)
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        for k in (2, 4):
            approx = fd.dense_approximant(f, 1.5, k, anchor=anchor)
            knots = np.linspace(0, 1, 2 ** k + 1)
            g_k = fd.GridFunction.on_knots(knots, f._eval(knots))
            lhs = fd.sup_norm_diff(f, approx)
            rhs = fd.sup_norm_diff(f, g_k) + fd.sup_norm_diff(
                anchor, fd.Polynomial([0.0])
            ) / k
            assert lhs <= rhs + 1e-12

    def test_error_shrinks(self):
        f = fd.Polynomial([0, 0, 1])
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        errs = [
            fd.sup_norm_diff(f, fd.dense_approximant(f, 1.5, k, anchor=anchor))
            for k in (1, 3, 5, 7)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_zero_anchor_rejected(self):
        with pytest.raises(HypothesisError):
            fd.dense_approximant(fd.Polynomial([0, 0, 1]), 1.5, 2, anchor=fd.Polynomial([0.0]))

    def test_mismatched_anchor_rejected(self):
        anchor = fd.make_anchor(1.3, m=2 ** 10)
        with pytest.raises(HypothesisError):
            fd.dense_approximant(fd.Polynomial([0, 0, 1]), 1.5, 2, anchor=anchor)

    def test_dimension_estimate(self, anchor_15_fine):
        approx = fd.dense_approximant(
            fd.Polynomial([0, 0, 1]), 1.5, 2, anchor=anchor_15_fine
        )
        rep = fd.estimate_box_dim(fd.sample(approx, 2 ** 20), 4, 12)
        assert abs(rep.raw_slope - 1.5) <= 0.15


class TestDerivative:
    def test_primitive_starts_at_zero(self):
        res = fd.derivative_dim_approximant(
            fd.Polynomial([1.0]), 1.5, 3, anchor=fd.make_anchor(1.5, m=2 ** 12)
        )
        assert res.primitive(0.0) == 0.0

    def test_primitive_endpoint_bound(self):
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        res = fd.derivative_dim_approximant(fd.Polynomial([1.0]), 1.5, 3, anchor=anchor)
        slack = fd.sup_norm_diff(res.derivative, fd.Polynomial([1.0]))
        assert abs(res.primitive(1.0) - 1.0) <= slack + 1e-9

    def test_finite_differences_recover_derivative(self):
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        res = fd.derivative_dim_approximant(fd.Polynomial([1.0]), 1.5, 3, anchor=anchor)
        h = 1e-4
        for x in (0.2, 0.5, 0.8):
            fdiff = (res.primitive(x + h) - res.primitive(x - h)) / (2 * h)
            assert fdiff == pytest.approx(res.derivative(x), abs=0.05)

    def test_nonneg_reporting(self):
        res = fd.derivative_dim_approximant(
            fd.Polynomial([1.0]), 1.5, 3, nonneg_primitive=True,
            anchor=fd.make_anchor(1.5, m=2 ** 12),
        )
        assert res.nonneg_checked
        assert res.min_primitive is not None
        assert res.min_primitive >= -1e-9

    def test_no_check_by_default(self):
        res = fd.derivative_dim_approximant(
            fd.Polynomial([1.0]), 1.5, 3, anchor=fd.make_anchor(1.5, m=2 ** 12)
        )
        assert not res.nonneg_checked
        assert res.min_primitive is None

    def test_nonneg_shift_keeps_anchor_dimension_check(self):
        # an inverted tent anchor dips below zero, so nonneg_primitive shifts it
        a = 2.0 ** (1.5 - 2.0)
        spec = fd.make_affine_spec([0.0, 0.5, 1.0], [0.0, -1.0, 0.0], [a, a])
        fif = fd.solve_fixed_point(spec, m=2 ** 12)
        with pytest.raises(HypothesisError, match="does not match beta"):
            fd.derivative_dim_approximant(
                fd.Polynomial([1.0]), 1.5, 3, nonneg_primitive=True, anchor=fd.Anchor(fif, 1.4)
            )
        res = fd.derivative_dim_approximant(
            fd.Polynomial([1.0]), 1.5, 3, nonneg_primitive=True, anchor=fd.Anchor(fif, 1.5)
        )
        assert res.nonneg_checked
        assert res.min_primitive is not None
        assert res.min_primitive >= -1e-9


@pytest.mark.parametrize("build", [
    lambda anchor: anchor,
    lambda anchor: fd.dense_approximant(fd.WeierstrassSeries(0.5, 3, 8), 1.5, 3, anchor=anchor),
    lambda anchor: fd.derivative_dim_approximant(
        fd.Polynomial([0.3, -1.0]), 1.5, 3, nonneg_primitive=True, anchor=anchor
    ).primitive,
    lambda anchor: fd.GridFunction.on_knots([0.0, 0.1, 0.35, 1.0], [0.2, -1.0 / 3.0, 2.0 ** -40, 7.5]),
    lambda anchor: fd.sample(fd.WeierstrassSeries(0.5, 3, 8), 3 ** 5),
], ids=["anchor", "dense", "primitive", "knots", "sample"])
def test_grid_backed_json_roundtrip_is_exact(build):
    f = build(fd.make_anchor(1.5, m=2 ** 10))
    back = fd.func_from_json(json.loads(json.dumps(fd.func_to_json(f))))
    xs = np.linspace(0.0, 1.0, 4097)
    assert np.array_equal(back(xs), f(xs))


class TestExtend:
    def test_agrees_on_intervals(self):
        f = fd.Polynomial([0, 0, 1])
        domain = fd.ExtensionDomain([(0.0, 0.4), (0.6, 1.0)], f)
        ext = fd.extend_function(domain, 1.5, anchor=fd.make_anchor(1.5, m=2 ** 12))
        for x in (0.0, 0.1, 0.4, 0.6, 0.83, 1.0):
            assert ext(x) == f(x)

    def test_bridge_is_continuous_at_gap_endpoints(self):
        f = fd.Polynomial([0, 0, 1])
        domain = fd.ExtensionDomain([(0.0, 0.4), (0.6, 1.0)], f)
        anchor = fd.make_anchor(1.5, m=2 ** 12)
        ext = fd.extend_function(domain, 1.5, anchor=anchor)
        lo, hi, left, right = ext._bridges[0]
        assert anchor(0.0) + left == pytest.approx(f(lo), abs=1e-12)
        assert anchor(1.0) + right == pytest.approx(f(hi), abs=1e-12)

    def test_three_gap_domain(self):
        f = fd.Polynomial([1, -1])
        domain = fd.ExtensionDomain(
            [(0.0, 0.1), (0.2, 0.4), (0.5, 0.7), (0.9, 1.0)], f
        )
        assert domain.gaps == [(0.1, 0.2), (0.4, 0.5), (0.7, 0.9)]
        ext = fd.extend_function(domain, 1.5, anchor=fd.make_anchor(1.5, m=2 ** 12))
        for a, b in domain.intervals:
            assert ext(a) == f(a)
            assert ext(b) == f(b)

    def test_three_gap_max_jump(self):
        domain = fd.ExtensionDomain(
            [(0.0, 0.1), (0.2, 0.4), (0.5, 0.7), (0.9, 1.0)], fd.Polynomial([1, -1])
        )
        ext = fd.extend_function(domain, 1.5, anchor=fd.make_anchor(1.5, m=2 ** 12))
        assert 0.0 <= ext.max_jump <= 1e-12

    def test_domain_validation(self):
        f = fd.Polynomial([0.0])
        with pytest.raises(ValueError):
            fd.ExtensionDomain([(0.1, 0.4), (0.6, 1.0)], f)  # must start at 0
        with pytest.raises(ValueError):
            fd.ExtensionDomain([(0.0, 0.5), (0.4, 1.0)], f)  # overlap
        with pytest.raises(ValueError):
            fd.ExtensionDomain([], f)

    def test_beta_gate(self):
        f = fd.Polynomial([0.0])
        domain = fd.ExtensionDomain([(0.0, 0.4), (0.6, 1.0)], f)
        with pytest.raises(BetaRangeError):
            fd.extend_function(domain, 2.0)


class TestInvariance:
    def test_zero_summand_is_exact(self):
        rough = fd.WeierstrassSeries(0.5, 3, 10)
        rep = fd.lipschitz_invariance_check(
            rough, fd.Polynomial([0.0]), m=2 ** 14, scales=(3, 9)
        )
        assert rep.delta == 0.0

    def test_smooth_plus_smooth(self):
        rep = fd.lipschitz_invariance_check(
            fd.Polynomial([0, 1]), fd.Polynomial([0, 0, 1]), m=2 ** 14, scales=(3, 9)
        )
        assert 0.9 <= rep.dim_rough <= 1.1
        assert 0.9 <= rep.dim_sum <= 1.1

    def test_rough_plus_lipschitz(self):
        rough = fd.WeierstrassSeries(0.5, 3, 10)
        rep = fd.lipschitz_invariance_check(
            rough, fd.Polynomial([0, 0.5]), m=2 ** 16, scales=(3, 10)
        )
        assert rep.delta <= 0.1

    def test_cap_rejection(self):
        rough = fd.WeierstrassSeries(0.5, 3, 6)
        steep = fd.Scaled(1e6, fd.Polynomial([0, 1]))
        with pytest.raises(HypothesisError):
            fd.lipschitz_invariance_check(rough, steep, m=2 ** 12, scales=(3, 8))
