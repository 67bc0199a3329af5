import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim import fif as fif_module
from fracdim.errors import ConvergenceError


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
        assert fif.iterations == 1
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
            rhs = al * (fif.grid.interp(u) - base._eval(u))
            assert np.max(np.abs(left[mask] - rhs)) <= 1e-9

    def test_convergence_error_carries_residual(self):
        spec = fd.make_affine_spec([0, 0.3, 1], [0.0, 1.0, 0.0], [0.95, 0.95])
        with pytest.raises(ConvergenceError) as exc:
            # budget too small for the tolerance at this contraction rate
            fd.solve_fixed_point(spec, m=64, tol=1e-12, max_iterations=3)
        assert exc.value.residual is not None
        assert exc.value.residual > 1e-12
        assert exc.value.iterations == 3


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


class TestChaosGame:
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
        dev = np.max(np.abs(pts[:, 1] - tent_half_fif.grid.interp(pts[:, 0])))
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

    def test_solved_fif_roundtrips_as_grid(self, tent_half_spec):
        fif = fd.solve_fixed_point(tent_half_spec, m=2 ** 10)
        obj = json.loads(json.dumps(fd.func_to_json(fif)))
        assert obj["kind"] == "grid"
        assert np.array_equal(fd.func_from_json(obj).grid.values, fif.grid.values)


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
    @pytest.mark.parametrize("affine", [True, False])
    def test_blocks_of_any_size_equal_allocating_oracle(self, monkeypatch, block, n, depth, affine):
        # blocks that do not divide p_k leave a short last block on every level
        monkeypatch.setattr(fif_module, "_REFINE_BLOCK", block)
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
        real = fif_module._make_applier

        def spy(spec, m):
            calls.append(m)
            return real(spec, m)

        monkeypatch.setattr(fif_module, "_make_applier", spy)
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
