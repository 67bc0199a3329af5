import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim import fif as fif_module
from fracdim.errors import ConvergenceError
from fracdim.functions import _grid_cell


class TestAffineCoeffs:
    def test_zero_data(self):
        p = fd.Partition(np.array([0.0, 0.3, 1.0]))
        c, d = fd.affine_branch_coeffs(p, [0.0, 0.0, 0.0], [0.4, -0.2])
        assert np.all(c == 0.0) and np.all(d == 0.0)

    def test_zero_alpha_is_broken_line(self):
        p = fd.Partition(np.array([0.0, 0.5, 1.0]))
        ys = np.array([1.0, 3.0, 2.0])
        c, d = fd.affine_branch_coeffs(p, ys, [0.0, 0.0])
        assert np.allclose(c, np.diff(ys))
        assert np.allclose(d, ys[:-1])

    def test_tent_example(self):
        p = fd.Partition(np.array([0.0, 0.5, 1.0]))
        c, d = fd.affine_branch_coeffs(p, [0.0, 1.0, 0.0], [0.8, 0.8])
        assert np.allclose(c, [1.0, -1.0])
        assert np.allclose(d, [0.0, 1.0])

    def test_interpolation_conditions_hold(self):
        rng = np.random.default_rng(3)
        knots = np.array([0.0, 0.2, 0.7, 1.0])
        p = fd.Partition(knots)
        ys = rng.standard_normal(4)
        al = rng.uniform(-0.9, 0.9, 3)
        c, d = fd.affine_branch_coeffs(p, ys, al)
        # F_i(0, y_0) = y_{i-1} and F_i(1, y_N) = y_i
        assert np.allclose(d + al * ys[0], ys[:-1], atol=1e-12)
        assert np.allclose(c + d + al * ys[-1], ys[1:], atol=1e-12)


class TestMapParams:
    def test_uniform(self):
        slopes, offsets = fd.affine_map_params(fd.Partition(np.array([0.0, 0.5, 1.0])))
        assert np.allclose(slopes, [0.5, 0.5])
        assert np.allclose(offsets, [0.0, 0.5])

    def test_nonuniform(self):
        slopes, offsets = fd.affine_map_params(fd.Partition(np.array([0.0, 0.25, 1.0])))
        assert np.allclose(slopes, [0.25, 0.75])
        assert np.allclose(offsets, [0.0, 0.25])

    def test_right_endpoint_exact(self):
        knots = np.array([0.0, 0.1, 0.37, 0.8, 1.0])
        slopes, offsets = fd.affine_map_params(fd.Partition(knots))
        assert np.array_equal(slopes * 1.0 + offsets, knots[1:])


class TestRbApply:
    def test_zero_alpha_gives_broken_line(self):
        spec = fd.make_affine_spec([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, 0.0])
        g = fd.GridFunction(8, np.random.default_rng(0).standard_normal(9))
        out = fd.rb_apply(spec, g)
        expected = np.interp(np.linspace(0, 1, 9), [0, 0.5, 1], [0, 1, 0])
        assert np.allclose(out.values, expected)

    def test_alpha_fractal_with_g_equal_base(self):
        seed = fd.Polynomial([0, 0, 1])
        base = fd.Polynomial([0, 1])  # matches seed at 0 and 1
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.6, 0.6], seed, base)
        g = fd.sample(base, 64)
        out = fd.rb_apply(spec, g)
        assert np.allclose(out.values, fd.sample(seed, 64).values, atol=1e-12)

    def test_alpha_fractal_seed_is_fixed_point_when_base_is_seed(self):
        seed = fd.Polynomial([0, 0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.6, 0.6], seed, seed)
        g = fd.sample(seed, 64)
        out = fd.rb_apply(spec, g)
        assert np.allclose(out.values, g.values, atol=1e-12)

    def test_contraction_on_random_pairs(self):
        spec = fd.make_affine_spec(
            [0, 0.3, 0.7, 1], [0.0, 1.0, -1.0, 0.5], [0.8, -0.6, 0.7]
        )
        rng = np.random.default_rng(11)
        s = spec.contraction_factor
        for _ in range(10):
            g1 = fd.GridFunction(256, rng.standard_normal(257))
            g2 = fd.GridFunction(256, rng.standard_normal(257))
            lhs = np.max(np.abs(fd.rb_apply(spec, g1).values - fd.rb_apply(spec, g2).values))
            rhs = s * np.max(np.abs(g1.values - g2.values))
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("apply", [fd.rb_apply, fd.self_ref_residual], ids=["rb_apply", "self_ref_residual"])
    def test_rejects_the_knots_form(self, apply):
        # read as if its nodes were j/64, this copy of a solved FIF scored a residual of 0.50
        spec = fd.make_affine_spec([0, 0.3, 1], [0.1, -0.7, 0.4], [0.6, -0.6])
        knots = np.concatenate([[0.0], np.sort(np.random.default_rng(4).uniform(0, 1, 63)), [1.0]])
        g = fd.GridFunction.on_knots(knots, fd.solve_fixed_point(spec, m=2 ** 12)(knots))
        with pytest.raises(ValueError, match="uniform grid"):
            apply(spec, g)


class TestSpecValidation:
    def test_rejects_non_contractive_alpha(self):
        with pytest.raises(ValueError):
            fd.make_affine_spec([0, 0.5, 1], [0, 1, 0], [1.0, 0.5])

    @pytest.mark.parametrize("ys, alpha", [
        ([0.0, 1.0, 0.0], [np.nan, 0.5]),
        ([0.0, 1.0, 0.0], [0.5, -np.inf]),
        ([0.0, np.nan, 0.0], [0.5, 0.5]),
        ([np.inf, 1.0, 0.0], [0.5, 0.5]),
    ])
    def test_rejects_non_finite(self, ys, alpha):
        with pytest.raises(ValueError):
            fd.FifSpec(fd.Partition([0.0, 0.5, 1.0]), ys, alpha,
                       fd.AffineBranch(np.zeros(2), np.zeros(2)))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fd.make_affine_spec([0, 0.5, 1], [0, 1], [0.5, 0.5])

    def test_rejects_base_endpoint_mismatch(self):
        seed = fd.Polynomial([0, 0, 1])
        bad_base = fd.Polynomial([0.5])
        with pytest.raises(ValueError):
            fd.make_alpha_fractal_spec([0, 0.5, 1], [0.5, 0.5], seed, bad_base)

    @staticmethod
    def scaled_specs(exponent, seed):
        """An affine and an alpha-fractal spec whose ordinates are at most 10^exponent.

        The base differs from the seed by t (x - x^2), which vanishes at both
        endpoints only up to the rounding of the polynomial at that scale.
        """
        scale = 10.0 ** exponent
        rng = np.random.default_rng(seed)
        knots = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
        alpha = rng.uniform(-0.95, 0.95, 4)
        affine = fd.make_affine_spec(knots, scale * rng.uniform(-1.0, 1.0, 5), alpha)
        coeffs = scale / 4.0 * rng.uniform(-1.0, 1.0, 4)
        t = scale * rng.uniform(-1.0, 1.0)
        base = fd.Polynomial(coeffs + np.array([0.0, t, -t, 0.0]))
        fractal = fd.make_alpha_fractal_spec(knots, alpha, fd.Polynomial(coeffs), base)
        return scale, affine, fractal

    @settings(max_examples=200, deadline=None)
    @given(exponent=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_factories_accept_their_own_specs_at_any_scale(self, exponent, seed):
        # construction raises if either factory's spec fails validation
        self.scaled_specs(exponent, seed)

    @pytest.mark.parametrize("exponent", range(9))
    def test_coefficients_off_by_a_relative_margin_still_raise(self, exponent):
        scale, affine, fractal = self.scaled_specs(exponent, 1234)
        for bump_c in (True, False):
            c, d = affine.branch.c.copy(), affine.branch.d.copy()
            (c if bump_c else d)[2] += 1e-9 * scale
            with pytest.raises(ValueError, match="interpolation condition"):
                fd.FifSpec(affine.partition, affine.ys, affine.alpha, fd.AffineBranch(c, d))
        # the endpoint bound is 1e-9 max(1, max|ys|) and the ordinates are at most scale
        coeffs = fractal.branch.base.coeffs.copy()
        coeffs[0] += 2e-9 * scale
        with pytest.raises(ValueError, match="endpoints"):
            fd.FifSpec(fractal.partition, fractal.ys, fractal.alpha,
                       fd.AlphaFractalBranch(fractal.branch.seed, fd.Polynomial(coeffs)))


def tent_oracle(x, alpha, depth=20):
    """Manual expansion of the self-referential equation at dyadic points."""
    c = [1.0, -1.0]
    d = [0.0, 1.0]
    if depth == 0:
        return np.interp(x, [0, 0.5, 1], [0, 1, 0])
    if x <= 0.5:
        u = 2 * x
        return c[0] * u + d[0] + alpha * tent_oracle(u, alpha, depth - 1)
    u = 2 * x - 1
    return c[1] * u + d[1] + alpha * tent_oracle(u, alpha, depth - 1)


class TestSolve:
    def test_zero_alpha_one_iteration(self):
        spec = fd.make_affine_spec([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, 0.0])
        fif = fd.solve_fixed_point(spec, m=256, tol=1e-12)
        # the broken-line start is already the fixed point, so no sweep is applied
        assert fif.iterations == 0
        assert fif.residual <= 1e-15
        assert fif(0.25) == pytest.approx(0.5)

    def test_tent_knot_value(self, tent_half_fif):
        assert tent_half_fif(0.5) == 1.0

    def test_tent_quarter_value(self, tent_half_fif):
        # one self-referential expansion: F_1(1/2, f(1/2)) = 0.5 + 0.5 * 1
        assert tent_half_fif(0.25) == pytest.approx(1.0, abs=1e-10)
        assert tent_half_fif(0.25) == pytest.approx(tent_oracle(0.25, 0.5), abs=1e-10)

    def test_dyadic_points_against_oracle(self, tent_half_spec, tent_half_fif):
        # m = 3 * 2^10 is not a power of N = 2, so this solve iterates
        iterated = fd.solve_fixed_point(tent_half_spec, m=3 * 2 ** 10, tol=1e-10)
        for x in (0.125, 0.375, 0.625, 0.875):
            assert tent_half_fif(x) == pytest.approx(tent_oracle(x, 0.5), abs=1e-9)
            assert iterated(x) == pytest.approx(tent_oracle(x, 0.5), abs=1e-9)

    def test_knot_interpolation(self):
        spec = fd.make_affine_spec(
            [0, 0.25, 0.5, 1], [0.2, -1.0, 0.7, 0.1], [0.7, -0.8, 0.5]
        )
        fif = fd.solve_fixed_point(spec, m=2 ** 12, tol=1e-10)
        idx = (spec.partition.knots * 2 ** 12).round().astype(int)
        assert np.max(np.abs(fif.grid.values[idx] - spec.ys)) <= 1e-9

    def test_alpha_fractal_degenerates_to_seed_at_zero_alpha(self):
        seed = fd.Polynomial([0, 0, 1])
        base = fd.Polynomial([0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.0, 0.0], seed, base)
        fif = fd.solve_fixed_point(spec, m=1024, tol=1e-10)
        assert fd.sup_norm_diff(seed, fif, 1024) <= 1e-10

    def test_perturbation_bound(self):
        # ||f_alpha - f|| <= s/(1-s) ||f - b|| on the grid
        seed = fd.Polynomial([0, 0, 1])
        base = fd.Polynomial([0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.6, 0.6], seed, base)
        fif = fd.solve_fixed_point(spec, m=2 ** 12, tol=1e-10)
        s = 0.6
        lhs = fd.sup_norm_diff(seed, fif, 2 ** 12)
        rhs = s / (1 - s) * fd.sup_norm_diff(seed, base, 2 ** 12)
        assert lhs <= rhs + 1e-9

    def test_branch_closure_identity(self):
        # f_alpha - f = alpha_i (f_alpha - b) o L_i^{-1} on each interval
        seed = fd.Polynomial([0, 0, 1])
        base = fd.Polynomial([0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.6, -0.4], seed, base)
        m = 2 ** 12
        fif = fd.solve_fixed_point(spec, m=m, tol=1e-10)
        xs = fif.grid.xs
        left = fif.grid.values - seed._eval(xs)
        for i, (lo, hi, al) in enumerate([(0.0, 0.5, 0.6), (0.5, 1.0, -0.4)]):
            mask = (xs >= lo) & (xs <= hi) if i == 0 else (xs > lo) & (xs <= hi)
            u = (xs[mask] - lo) / (hi - lo)
            rhs = al * (fif.grid._eval(u) - base._eval(u))
            assert np.max(np.abs(left[mask] - rhs)) <= 1e-9

    # (0, .3, 1) iterates; (0, .5, 1) at m = 4096 refines
    @pytest.mark.parametrize("knots", [[0.0, 0.3, 1.0], [0.0, 0.5, 1.0]])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_tol_outside_positive_finite(self, knots, tol):
        spec = fd.make_affine_spec(knots, [0.1, -0.7, 0.4], [0.6, -0.6])
        with pytest.raises(ValueError, match="tol"):
            fd.solve_fixed_point(spec, m=4096, tol=tol)

    # the same two paths as above
    @pytest.mark.parametrize("knots", [[0.0, 0.3, 1.0], [0.0, 0.5, 1.0]])
    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_resolution_below_one(self, knots, m):
        spec = fd.make_affine_spec(knots, [0.1, -0.7, 0.4], [0.6, -0.6])
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            fd.solve_fixed_point(spec, m=m)

    @staticmethod
    def stalled_solve(monkeypatch, m):
        """Solve the CLI's exit-3 spec at tol = 1e-300, counting the sweeps on the (m + 1)-node grid."""
        # the residual stops falling at round-off, far above tol, and the iteration stops there
        spec = fd.make_affine_spec([0, 0.3, 1], [0.1, -0.7, 0.4], [0.6, -0.6])
        fine = []
        step = fif_module._Sweep.step

        def counting_step(self, g, out):
            fine.append(g.size == m + 1)
            return step(self, g, out)

        with monkeypatch.context() as patch, pytest.raises(ConvergenceError) as exc:
            patch.setattr(fif_module._Sweep, "step", counting_step)
            fd.solve_fixed_point(spec, m=m, tol=1e-300)
        return exc.value, sum(fine), len(fine)

    def test_convergence_error_carries_residual(self, monkeypatch):
        err, fine_sweeps, _ = self.stalled_solve(monkeypatch, 64)
        assert err.residual is not None
        assert err.residual > 1e-300
        # every sweep but the last, whose residual did not fall, is an iteration
        assert err.iterations == fine_sweeps - 1

    def test_convergence_error_counts_fine_sweeps_after_coarse_start(self, monkeypatch):
        # m = 2^12 starts from the uncounted solve at m / COARSE = 64
        assert 2 ** 12 // fif_module.COARSE >= fif_module.COARSE_MIN
        for m in (2 ** 12, 2 ** 16):
            err, fine_sweeps, all_sweeps = self.stalled_solve(monkeypatch, m)
            assert err.residual > 1e-300
            assert all_sweeps > fine_sweeps
            assert err.iterations == fine_sweeps - 1
            # the residual stops falling near sweep 50
            assert fine_sweeps <= 100

    @given(
        n=st.sampled_from([2, 3, 4]),
        m=st.sampled_from([2 ** 12, 3 * 2 ** 10, 1000]),
        affine=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_coarse_start_converges_to_iteration_fixed_point(self, n, m, affine, seed):
        # 1000 is not a multiple of COARSE, so it starts from the broken line
        rng = np.random.default_rng(seed)
        knots = np.r_[0.0, np.sort(rng.uniform(0.05, 0.95, n - 1)), 1.0]
        alpha = rng.uniform(-0.9, 0.9, n)
        if affine:
            spec = fd.make_affine_spec(knots, rng.uniform(-1.0, 1.0, n + 1), alpha)
        else:
            coeffs = rng.uniform(-1.0, 1.0, 4)
            bump = rng.uniform(-1.0, 1.0)
            spec = fd.make_alpha_fractal_spec(knots, alpha, fd.Polynomial(coeffs),
                                              fd.Polynomial(coeffs + [0.0, bump, -bump, 0.0]))
        tol = 1e-10
        fif = fd.solve_fixed_point(spec, m=m, tol=tol)
        assert fif.residual <= tol
        assert fif.residual == fd.self_ref_residual(spec, fif)
        s = spec.contraction_factor
        assert np.max(np.abs(iterate_rb_apply(spec, m, 1e-14) - fif.grid.values)) <= 2 * tol / (1 - s)

    def test_coarse_start_sweep_count(self):
        # a box-pipeline solve as the benchmark runs it; from the broken line
        # it takes 62-64 sweeps, from the coarse start about 41
        f = fd.WeierstrassSeries(0.49, 3.0, 3)
        res = fd.dim_preserving_sequence(f, 1.5, 32, partition=[0.0, 0.38, 1.0], m=2 ** 16, tol=1e-10)
        assert res.fif.residual <= 1e-10
        assert res.fif.iterations <= 46

    def test_one_level_start_box_spec(self):
        # a box-pipeline spec like the benchmark's; starting the 2^10 solve
        # from a 2^4 one instead of the broken line also took 32 fine sweeps
        f = fd.Polynomial([0.2, -0.9, 1.3, -0.5])
        res = fd.dim_preserving_sequence(f, 1.5, 32, partition=[0.0, 0.39, 1.0], m=2 ** 16, tol=1e-10)
        assert res.fif.residual <= 1e-10
        assert res.fif.iterations <= 32
        assert res.fif.residual == fd.self_ref_residual(res.fif.spec, res.fif)

    def test_box_solve_peak_memory(self):
        # the iteration holds i0, w0, w1, lin, a scratch buffer and two
        # iterates, 7 grids of m + 1 doubles; building them adds little
        m = 2 ** 16
        f = fd.Polynomial([0.2, -0.9, 1.3, -0.5])
        spec = fd.dim_preserving_sequence(f, 1.5, 32, partition=[0.0, 0.39, 1.0], m=2 ** 10).fif.spec
        tracemalloc.start()
        try:
            fif = fd.solve_fixed_point(spec, m=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fif.iterations > 0
        assert peak < 9.5 * 8 * (m + 1)


class TestResidual:
    def test_converged_residual_below_tol(self, tent_half_spec):
        fif = fd.solve_fixed_point(tent_half_spec, m=2 ** 12, tol=1e-10)
        assert fd.self_ref_residual(tent_half_spec, fif.grid) <= 1e-10

    def test_broken_line_zero_alpha(self):
        spec = fd.make_affine_spec([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, 0.0])
        g = fd.GridFunction(64, np.interp(np.linspace(0, 1, 65), [0, 0.5, 1], [0, 1, 0]))
        assert fd.self_ref_residual(spec, g) <= 1e-15

    def test_zero_function_residual(self, tent_half_spec):
        # T(0) is the broken-line part c_i u + d_i, whose sup is 1
        g = fd.GridFunction(64, np.zeros(65))
        assert fd.self_ref_residual(tent_half_spec, g) == pytest.approx(1.0)


def chaos_loop_oracle(spec, n_points, seed):
    """chaos_game's former loop over numpy scalars, kept to pin its output."""
    rng = np.random.default_rng(seed)
    n = spec.partition.n_intervals
    idx = rng.integers(0, n, size=n_points + fif_module.CHAOS_BURN_IN)
    slopes, offsets = fd.affine_map_params(spec.partition)
    c, d, al = spec.branch.c, spec.branch.d, spec.alpha
    x = float(spec.partition.knots[0])
    y = float(spec.ys[0])
    pts = np.empty((n_points, 2))
    for t, i in enumerate(idx):
        x, y = slopes[i] * x + offsets[i], c[i] * x + d[i] + al[i] * y
        if t >= fif_module.CHAOS_BURN_IN:
            pts[t - fif_module.CHAOS_BURN_IN] = (x, y)
    return pts


class TestChaosGame:
    @pytest.mark.parametrize("knots, ys, alpha, n_points, seed", [
        ([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, 0.0], 2000, 5),
        ([0, 0.5, 1], [0.0, 1.0, 0.0], [0.5, 0.5], 500, 123),
        ([0, 0.5, 1], [0.0, 1.0, 0.0], [0.5, 0.5], 10 ** 4, 42),
        ([0, 0.5, 1], [0.0, 1.0, 0.0], [0.5, 0.5], 2000, 7),
        ([0, 0.3, 0.7, 1], [0.0, 1.0, -1.0, 0.5], [0.8, -0.6, 0.7], 20000, 0),
        ([0, 0.1, 0.37, 0.8, 1], [0.2, -1.0, 0.7, 0.1, -0.3], [0.9, -0.7, 0.5, -0.95], 1, 9),
    ])
    def test_equals_numpy_scalar_loop(self, knots, ys, alpha, n_points, seed):
        spec = fd.make_affine_spec(knots, ys, alpha)
        pts = fd.chaos_game(spec, n_points, seed=seed)
        assert pts.shape == (n_points, 2)
        assert np.array_equal(pts, chaos_loop_oracle(spec, n_points, seed))

    def test_zero_alpha_points_on_tent(self):
        spec = fd.make_affine_spec([0, 0.5, 1], [0.0, 1.0, 0.0], [0.0, 0.0])
        pts = fd.chaos_game(spec, 2000, seed=5)
        expected = np.interp(pts[:, 0], [0, 0.5, 1], [0, 1, 0])
        assert np.max(np.abs(pts[:, 1] - expected)) <= 1e-9

    def test_determinism(self, tent_half_spec):
        a = fd.chaos_game(tent_half_spec, 500, seed=123)
        b = fd.chaos_game(tent_half_spec, 500, seed=123)
        assert np.array_equal(a, b)

    def test_cross_validation_against_fixed_point(self, tent_half_spec, tent_half_fif):
        pts = fd.chaos_game(tent_half_spec, 10 ** 4, seed=42)
        dev = np.max(np.abs(pts[:, 1] - tent_half_fif.grid._eval(pts[:, 0])))
        assert dev <= 1e-3

    def test_rejects_alpha_fractal_branch(self):
        seed = fd.Polynomial([0, 0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.5, 0.5], seed, seed)
        with pytest.raises(ValueError):
            fd.chaos_game(spec, 10, seed=0)


class TestJson:
    def test_affine_roundtrip(self, tent_half_spec):
        back = fd.spec_from_json(json.dumps(fd.spec_to_json(tent_half_spec)))
        assert np.allclose(back.partition.knots, tent_half_spec.partition.knots)
        assert np.allclose(back.ys, tent_half_spec.ys)
        assert np.allclose(back.branch.c, tent_half_spec.branch.c)

    def test_alpha_fractal_roundtrip(self):
        seed = fd.Polynomial([0, 0, 1])
        base = fd.Polynomial([0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.5, -0.5], seed, base)
        back = fd.spec_from_json(fd.spec_to_json(spec))
        g = fd.GridFunction(32, np.zeros(33))
        assert np.allclose(
            fd.rb_apply(back, g).values, fd.rb_apply(spec, g).values
        )

    @pytest.mark.parametrize(
        "obj, words",
        [
            ({"branch": "affine", "knots": [0, 0.5, 1], "ys": [0, 1, 0], "alpha": {"a": 1}},
             ["'affine'", "wrong type"]),
            ({"branch": "affine", "knots": [0, 0.5, 1], "ys": [0, 1, 0]}, ["'affine'", "missing", "'alpha'"]),
            ({"branch": "alpha_fractal", "knots": [0, 0.5, 1], "alpha": [0.5, 0.5], "ys": {"a": 1},
              "seed": {"kind": "polynomial", "coeffs": [0, 1]}, "base": {"kind": "polynomial", "coeffs": [0]}},
             ["'alpha_fractal'", "wrong type"]),
            ({"branch": "alpha_fractal", "knots": [0, 0.5, 1], "alpha": [0.5, 0.5],
              "seed": {"kind": "polynomial", "coeffs": [0, 1]}}, ["'alpha_fractal'", "missing", "'base'"]),
        ],
        ids=["affine-object-alpha", "affine-no-alpha", "alpha-fractal-object-ys", "alpha-fractal-no-base"],
    )
    def test_malformed_field_is_a_value_error(self, obj, words):
        # a TypeError or KeyError would escape the CLI's input-error exit as a traceback or a bare name
        with pytest.raises(ValueError) as exc:
            fd.spec_from_json(obj)
        assert all(word in str(exc.value) for word in words), str(exc.value)

    def test_solved_fif_roundtrips_as_grid(self, tent_half_spec):
        fif = fd.solve_fixed_point(tent_half_spec, m=2 ** 10)
        obj = json.loads(json.dumps(fd.func_to_json(fif)))
        assert obj["kind"] == "grid"
        assert np.array_equal(fd.func_from_json(obj).values, fif.grid.values)


def iterate_rb_apply(spec, m, tol):
    """Public-operator iteration from the broken line until steps fall below tol."""
    xs = np.linspace(0.0, 1.0, m + 1)
    g = fd.GridFunction(m, np.interp(xs, spec.partition.knots, spec.ys))
    for _ in range(10_000):
        nxt = fd.rb_apply(spec, g)
        step = np.max(np.abs(nxt.values - g.values))
        g = nxt
        if step <= tol:
            return g.values
    raise AssertionError("rb_apply iteration did not settle")


def address_oracle(spec, m):
    """Affine FIF at nodes j/m, j < m, by Barnsley's address recursion.

    For N a power of two, x N is exact in binary, so x reaches 0 (where
    f = y_0) after at most log_N m steps.  Independent of the solver.
    """
    n = spec.partition.n_intervals
    c, d, al = spec.branch.c, spec.branch.d, spec.alpha
    x = np.arange(m) / m
    val = np.zeros(m)
    prod = np.ones(m)
    while np.any(x > 0.0):
        live = x > 0.0
        i = np.minimum((x * n).astype(np.int64), n - 1)
        u = x * n - i
        val = np.where(live, val + prod * (c[i] * u + d[i]), val)
        prod = np.where(live, prod * al[i], prod)
        x = np.where(live, u, 0.0)
    return val + prod * spec.ys[0]


def allocating_refine(spec, m, depth):
    """Level-by-level refinement with a fresh array per level, as a bit-exact oracle."""
    n = spec.partition.n_intervals
    p = m // n
    u = np.arange(p + 1) / p
    al = spec.alpha[:, None]
    if isinstance(spec.branch, fd.AffineBranch):
        lin = spec.branch.c[:, None] * u + spec.branch.d[:, None]
    else:
        seed_x = spec.branch.seed._eval(np.linspace(0.0, 1.0, m + 1))
        rows = np.lib.stride_tricks.sliding_window_view(seed_x, p + 1)[::p]
        lin = rows - al * spec.branch.base._eval(u)
    g = np.array([
        fif_module._settle_end(lin[0, 0], spec.alpha[0], spec.ys[0]),
        fif_module._settle_end(lin[-1, -1], spec.alpha[-1], spec.ys[-1]),
    ])
    for level in range(1, depth + 1):
        step = n ** (depth - level)
        finer = np.empty(n * (g.size - 1) + 1)
        finer[0] = g[0]
        finer[1:].reshape(n, -1)[...] = lin[:, step::step] + al * g[1:]
        finer[-1] = g[-1]
        g = finer
    residual = max(
        abs(lin[0, 0] + spec.alpha[0] * g[0] - g[0]),
        np.max(np.abs(lin[:, 1:] + al * g[n::n] - g[1:].reshape(n, p))),
    )
    return g, float(residual)


class TestNAdicRefinement:
    @given(
        n=st.sampled_from([2, 3, 4, 5]),
        level=st.integers(1, 16),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_iteration_residual_and_oracle(self, n, level, seed):
        depth = min(level, int(np.floor(16 * np.log(2) / np.log(n) + 1e-9)))
        m = n ** depth
        rng = np.random.default_rng(seed)
        ys = rng.uniform(-1.0, 1.0, n + 1)
        alpha = rng.uniform(-0.95, 0.95, n)
        spec = fd.make_affine_spec(np.linspace(0.0, 1.0, n + 1), ys, alpha)
        fif = fd.solve_fixed_point(spec, m=m)
        assert fif.iterations == depth
        g = fif.grid.values
        scale = max(float(np.max(np.abs(g))), 1.0)
        res = fd.self_ref_residual(spec, fif.grid)
        diff = np.max(np.abs(iterate_rb_apply(spec, m, 1e-14) - g))
        if n in (2, 4):
            assert res <= 1e-12 * scale
            assert diff <= 1e-10
            assert np.max(np.abs(address_oracle(spec, m) - g[:-1])) <= 1e-12 * scale
        else:
            # the general applier locates pre-images as u * m, which is exact
            # only for N a power of two; otherwise it is off by about m * eps,
            # and its fixed point lies within res / (1 - s) of g
            assert res <= max(1e-12, 4 * m * np.finfo(float).eps) * scale
            assert diff <= max(1e-10, 2 * (res + 1e-14) / (1 - spec.contraction_factor))

    @given(
        n=st.sampled_from([2, 3, 4, 5]),
        level=st.integers(1, 16),
        affine=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_levels_equal_allocating_oracle(self, n, level, affine, seed):
        depth = min(level, int(np.floor(16 * np.log(2) / np.log(n) + 1e-9)))
        m = n ** depth
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 1.0, n + 1)
        alpha = rng.uniform(-0.95, 0.95, n)
        if affine:
            spec = fd.make_affine_spec(knots, rng.uniform(-1.0, 1.0, n + 1), alpha)
        else:
            coeffs = rng.uniform(-1.0, 1.0, 4)
            bump = rng.uniform(-1.0, 1.0)
            seed_fn = fd.Polynomial(coeffs)
            base_fn = fd.Polynomial(coeffs + [0.0, bump, -bump, 0.0])
            spec = fd.make_alpha_fractal_spec(knots, alpha, seed_fn, base_fn)
        fif = fd.solve_fixed_point(spec, m=m)
        assert fif.iterations == depth
        want, want_res = allocating_refine(spec, m, depth)
        assert np.array_equal(fif.grid.values, want)
        assert fif.residual == want_res
        assert not np.signbit(fif.residual)  # a sup of absolute values is never -0.0

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
    @pytest.mark.parametrize("n, depth", [(2, 9), (3, 6), (4, 5), (5, 3)])
    @pytest.mark.parametrize("affine, drift", [(True, False), (False, False), (True, True), (False, True)],
                             ids=["True", "False", "True-drift", "False-drift"])
    def test_blocks_of_any_size_equal_allocating_oracle(self, monkeypatch, block, n, depth, affine, drift):
        # blocks that do not divide p_k leave a short last block on every level
        monkeypatch.setattr(fif_module, "_REFINE_BLOCK", block)
        if drift:
            # end values one ulp above the closed form need not satisfy their
            # equations, so each level's last row writes a right end that
            # differs from the held one; the oracle looks up the same
            # _settle_end
            monkeypatch.setattr(fif_module, "_settle_end",
                                lambda lin, a, y: np.nextafter(lin / (1 - a), np.inf))
        m = n ** depth
        rng = np.random.default_rng([block, n, depth])
        knots = np.linspace(0.0, 1.0, n + 1)
        alpha = rng.uniform(-0.95, 0.95, n)
        if affine:
            spec = fd.make_affine_spec(knots, rng.uniform(-1.0, 1.0, n + 1), alpha)
        else:
            coeffs = rng.uniform(-1.0, 1.0, 4)
            spec = fd.make_alpha_fractal_spec(knots, alpha, fd.Polynomial(coeffs),
                                              fd.Polynomial(coeffs + [0.0, 0.4, -0.4, 0.0]))
        fif = fd.solve_fixed_point(spec, m=m)
        want, want_res = allocating_refine(spec, m, depth)
        assert np.array_equal(fif.grid.values, want)
        assert fif.residual == want_res

    @pytest.mark.parametrize("n, depth, seed", [(2, 10, 17), (3, 6, 7), (4, 5, 2), (5, 4, 13)])
    def test_unsettled_right_end_equals_allocating_oracle(self, n, depth, seed):
        # drawn like the property tests; these seeds give a negative alpha_N
        # whose right end has no settled double, so only holding it makes the
        # levels nest, and the residual is its equation's error
        rng = np.random.default_rng(seed)
        ys = rng.uniform(-1.0, 1.0, n + 1)
        alpha = rng.uniform(-0.95, 0.95, n)
        spec = fd.make_affine_spec(np.linspace(0.0, 1.0, n + 1), ys, alpha)
        lin_end = spec.branch.c[-1] + spec.branch.d[-1]
        end = fif_module._settle_end(lin_end, alpha[-1], ys[-1])
        assert alpha[-1] < 0.0 and lin_end + alpha[-1] * end != end
        fif = fd.solve_fixed_point(spec, m=n ** depth)
        want, want_res = allocating_refine(spec, n ** depth, depth)
        assert np.array_equal(fif.grid.values, want)
        assert fif.residual == want_res
        assert fif.residual > 0.0
        assert fif.residual == abs(lin_end + alpha[-1] * end - end)
        coarse = fd.solve_fixed_point(spec, m=n ** (depth - 1)).grid.values
        assert np.array_equal(coarse.view(np.int64), fif.grid.values[::n].view(np.int64))

    @given(
        n=st.sampled_from([2, 3, 4, 5]),
        level=st.integers(1, 12),
        order=st.integers(2, 16),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bernstein_pair_residual_is_exact(self, n, level, order, seed):
        """The residual of a Bernstein pair is sup |T g - g| with one polynomial per branch.

        allocating_refine evaluates seed and base apart, so it does not
        cover the polynomials of _branch_polys; this checks the returned
        residual against them, for settled and unsettled right ends alike.
        """
        depth = min(level, int(np.floor(12 * np.log(2) / np.log(n) + 1e-9)))
        m = n ** depth
        p = m // n
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-0.95, 0.95, n)
        seed_fn = fd.BernsteinFunc(fd.bernstein_build(fd.Polynomial(rng.uniform(-1.0, 1.0, 4)), order))
        spec = fd.make_alpha_fractal_spec(np.linspace(0.0, 1.0, n + 1), alpha, seed_fn,
                                          fd.BernsteinFunc(fd.bernstein_build(seed_fn, order)))
        polys = fif_module._branch_polys(spec)
        assert polys is not None
        u = np.arange(p + 1) / p
        lin = np.stack([poly._eval(u) for poly in polys])
        fif = fd.solve_fixed_point(spec, m=m)
        g = fif.grid.values
        al = alpha[:, None]
        want = max(abs(lin[0, 0] + alpha[0] * g[0] - g[0]),
                   np.abs(lin[:, 1:] + al * g[n::n] - g[1:].reshape(n, p)).max())
        assert fif.residual == want
        assert not np.signbit(fif.residual)

    @given(
        n=st.sampled_from([2, 3, 4, 5]),
        level=st.integers(2, 12),
        bernstein=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_settled_levels_nest(self, n, level, bernstein, seed):
        """The solve on N^(k-1) intervals is every N-th node of the solve on N^k, bit for bit.

        This holds for every spec, whether or not the end values satisfy
        their equations, because _refine holds both ends fixed; its residual
        from the two end equations alone relies on it.  Affine branches and
        Bernstein pairs of one order evaluate their linear part at r / p,
        the same double at every resolution.  Other alpha-fractal pairs are
        left out: they evaluate the seed on np.linspace(0, 1, m + 1), and
        for N = 3 and 5 its every N-th value need not equal the coarser
        linspace.
        """
        depth = min(level, int(np.floor(12 * np.log(2) / np.log(n) + 1e-9)))
        rng = np.random.default_rng(seed)
        knots = np.linspace(0.0, 1.0, n + 1)
        alpha = rng.uniform(-0.95, 0.95, n)
        if bernstein:
            order = int(rng.integers(2, 17))
            seed_fn = fd.BernsteinFunc(fd.bernstein_build(fd.Polynomial(rng.uniform(-1.0, 1.0, 4)), order))
            spec = fd.make_alpha_fractal_spec(knots, alpha, seed_fn,
                                              fd.BernsteinFunc(fd.bernstein_build(seed_fn, order)))
        else:
            spec = fd.make_affine_spec(knots, rng.uniform(-1.0, 1.0, n + 1), alpha)
        fine = fd.solve_fixed_point(spec, m=n ** depth)
        coarse = fd.solve_fixed_point(spec, m=n ** (depth - 1)).grid.values
        assert np.array_equal(coarse.view(np.int64), fine.grid.values[::n].view(np.int64))

    @pytest.mark.parametrize(
        "knots, m, refined",
        [
            ([0.0, 0.5, 1.0], 2 ** 16, True),
            (np.linspace(0.0, 1.0, 4), 3 ** 10, True),
            ([0.0, 0.3, 1.0], 2 ** 16, False),
            (np.linspace(0.0, 1.0, 4), 2 ** 16, False),
            ([0.0, 1.0], 2 ** 8, False),
        ],
    )
    def test_dispatch(self, monkeypatch, knots, m, refined):
        calls = []
        real = fif_module._Sweep

        def spy(spec, xs, lin=None):
            calls.append(xs.size - 1)
            return real(spec, xs, lin)

        monkeypatch.setattr(fif_module, "_Sweep", spy)
        n = len(knots) - 1
        spec = fd.make_affine_spec(knots, np.r_[0.0, np.ones(n - 1), 0.0], np.full(n, 0.6))
        fif = fd.solve_fixed_point(spec, m=m)
        assert (not calls) == refined
        assert fif.residual <= 1e-10

    def test_alpha_fractal_equals_iteration_exactly(self):
        m = 2 ** 12
        approx = fd.dim_preserving_sequence(fd.Polynomial([0.1, 2.0, -3.0, 1.0]), 1.5, 16, m=m)
        spec = approx.fif.spec
        assert np.array_equal(spec.partition.knots, [0.0, 0.5, 1.0])
        assert approx.fif.iterations == 12
        assert np.array_equal(iterate_rb_apply(spec, m, 0.0), approx.fif.grid.values)

    def test_endpoints_follow_the_operator_not_stray_ordinates(self):
        # alpha-fractal branches ignore ys; f(0) and f(1) solve their own
        # endpoint equations, here seed(0) = base(0) = 0 and seed(1) = base(1) = 1
        seed = fd.Polynomial([0, 0, 1])
        spec = fd.make_alpha_fractal_spec([0, 0.5, 1], [0.9, 0.9], seed,
                                          fd.Polynomial([0, 1]), ys=[5.0, 5.0, 5.0])
        fif = fd.solve_fixed_point(spec, m=2 ** 10)
        assert fif.grid.values[0] == pytest.approx(0.0, abs=1e-15)
        assert fif.grid.values[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(iterate_rb_apply(spec, 2 ** 10, 1e-14) - fif.grid.values)) <= 1e-10


def bernstein_pair(n, m_order=None):
    """p_n = B_n f and B_k p_n (k = n unless given) for a cubic f, as in the box pipeline."""
    p = fd.BernsteinFunc(fd.bernstein_build(fd.Polynomial([0.1, 2.0, -3.0, 1.0]), n))
    return p, fd.BernsteinFunc(fd.bernstein_build(p, n if m_order is None else m_order))


def per_node_applier(spec, m):
    """The iterate-free operator data by one branch-index gather per node, as a bit-exact oracle."""
    xs = np.linspace(0.0, 1.0, m + 1)
    knots = spec.partition.knots
    lengths = spec.partition.lengths
    # interior knots belong to their left branch; searchsorted(side=left)
    # returns i for x == x_i, and 0 only at x = 0
    br = np.searchsorted(knots, xs, side="left")
    br[br == 0] = 1
    i = br - 1
    u = np.clip((xs - knots[i]) / lengths[i], 0.0, 1.0)
    al = spec.alpha[i]
    if isinstance(spec.branch, fd.AffineBranch):
        lin = spec.branch.c[i] * u + spec.branch.d[i]
    elif (polys := fif_module._branch_polys(spec)) is not None:
        bounds = np.searchsorted(i, np.arange(len(polys) + 1))
        lin = np.empty(m + 1)
        for k, poly in enumerate(polys):
            lin[bounds[k]:bounds[k + 1]] = poly._eval(u[bounds[k]:bounds[k + 1]])
    else:
        lin = spec.branch.seed._eval(xs) - al * spec.branch.base._eval(u)
    return xs, u, al, lin


@st.composite
def applier_cases(draw):
    """A spec of N = 1..5 branches of one kind, and a resolution m.

    Interior knots are grid nodes j/m, the next double above a node (so the
    branch that ends at that node holds no node), or arbitrary points.
    """
    m = draw(st.sampled_from([2, 1000, 3 * 2 ** 10, 2 ** 12]))
    n = draw(st.integers(1, 5))
    xs = np.linspace(0.0, 1.0, m + 1)
    node = st.integers(1, m - 1).map(lambda j: float(xs[j]))
    interior = draw(st.lists(
        st.one_of(node, node.map(lambda x: float(np.nextafter(x, 1.0))),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        min_size=n - 1, max_size=n - 1, unique=True))
    knots = np.array([0.0, *sorted(interior), 1.0])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = rng.uniform(-0.95, 0.95, n)
    kind = draw(st.sampled_from(["affine", "bernstein", "general"]))
    if kind == "affine":
        return fd.make_affine_spec(knots, rng.normal(size=n + 1), alpha), m
    seed, base = bernstein_pair(draw(st.integers(2, 24)))
    if kind == "general":
        # Scaled(1.0, .) is exact but not a BernsteinFunc
        seed, base = fd.Scaled(1.0, seed), fd.Scaled(1.0, base)
    return fd.make_alpha_fractal_spec(knots, alpha, seed, base), m


class TestBranchTerm:
    @given(case=applier_cases())
    @settings(max_examples=80, deadline=None)
    def test_branch_slices_equal_per_node_gathers(self, case):
        spec, m = case
        xs, u, al, lin = per_node_applier(spec, m)
        # the fine nodes and, when COARSE divides m, every COARSE-th of them, the coarse start's nodes
        steps = [1, fif_module.COARSE] if m % fif_module.COARSE == 0 else [1]
        for step in steps:
            sweep = fif_module._Sweep(spec, xs[::step])
            mk = m // step
            i0, frac = _grid_cell(u[::step] * mk, mk)
            want = {"i0": i0, "w0": al[::step] * (1.0 - frac), "w1": al[::step] * frac, "lin": lin[::step]}
            for name, value in want.items():
                got = getattr(sweep, name)
                assert got.dtype == value.dtype, name
                assert np.array_equal(got, value), name
                assert np.array_equal(np.signbit(got), np.signbit(value)), name


class TestBranchPolynomials:
    # (0, .38, 1) iterates; (0, 1/2, 1) at m = 2^12 refines
    @pytest.mark.parametrize("knots", [[0.0, 0.38, 1.0], [0.0, 0.5, 1.0]])
    def test_agrees_with_two_evaluations(self, knots):
        seed, base = bernstein_pair(16)
        alpha = [0.7, -0.55]
        spec = fd.make_alpha_fractal_spec(knots, alpha, seed, base)
        # Scaled(1.0, .) is exact but not a BernsteinFunc, so it takes the
        # path that evaluates seed and base separately
        wrapped = fd.make_alpha_fractal_spec(knots, alpha, fd.Scaled(1.0, seed), fd.Scaled(1.0, base))
        assert fif_module._branch_polys(spec) is not None
        assert fif_module._branch_polys(wrapped) is None
        fast = fd.solve_fixed_point(spec, m=2 ** 12)
        slow = fd.solve_fixed_point(wrapped, m=2 ** 12)
        assert fast.iterations == slow.iterations
        assert np.max(np.abs(fast.grid.values - slow.grid.values)) <= 1e-13

    def test_unequal_orders_evaluate_seed_and_base(self):
        seed, base = bernstein_pair(16, 12)
        spec = fd.make_alpha_fractal_spec([0.0, 0.38, 1.0], [0.7, -0.55], seed, base)
        wrapped = fd.make_alpha_fractal_spec([0.0, 0.38, 1.0], [0.7, -0.55],
                                             fd.Scaled(1.0, seed), fd.Scaled(1.0, base))
        assert fif_module._branch_polys(spec) is None
        assert np.array_equal(fd.solve_fixed_point(spec, m=2 ** 12).grid.values,
                              fd.solve_fixed_point(wrapped, m=2 ** 12).grid.values)

    @pytest.mark.parametrize("knots, points", [([0.0, 0.38, 1.0], 2 ** 12 + 1), ([0.0, 0.5, 1.0], 2 ** 12 + 2)])
    def test_one_evaluation_per_node(self, monkeypatch, knots, points):
        # m + 1 nodes when iterating; N (m / N + 1) = m + 2 when refining
        seed, base = bernstein_pair(16)
        spec = fd.make_alpha_fractal_spec(knots, [0.7, -0.55], seed, base)
        evaluated = []
        real = fd.BernsteinFunc._eval

        def counting(self, x):
            evaluated.append(np.size(x))
            return real(self, x)

        monkeypatch.setattr(fd.BernsteinFunc, "_eval", counting)
        fd.solve_fixed_point(spec, m=2 ** 12)
        assert sum(evaluated) == points

    def test_branch_without_nodes(self):
        # at m = 2 no node lies in (0.1, 0.15]
        seed, base = bernstein_pair(8)
        spec = fd.make_alpha_fractal_spec([0.0, 0.1, 0.15, 1.0], [0.5, 0.5, 0.5], seed, base)
        wrapped = fd.make_alpha_fractal_spec([0.0, 0.1, 0.15, 1.0], [0.5, 0.5, 0.5],
                                             fd.Scaled(1.0, seed), fd.Scaled(1.0, base))
        fast = fd.solve_fixed_point(spec, m=2)
        slow = fd.solve_fixed_point(wrapped, m=2)
        assert np.max(np.abs(fast.grid.values - slow.grid.values)) <= 1e-13
