import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim.bernstein import _CHUNK, _ONE_BLOCK_EXP, BernsteinFunc, _bezier_value, _binomials, _restrict

# points where t = x/(1-x), its mirror or the final (1-x)^n scaling are
# most delicate: subnormal and tiny x, both sides of 1/2, the ends
EDGE_POINTS = [0.0, 5e-324, 1e-300, 0.5 - 1e-16, 0.5 + 1e-16, 1.0 - 1e-16, 1.0]
# 1/2 and its neighbours, on both sides of the evaluator's split at 1/2, and the ends
SPLIT_POINTS = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0]


def basis_sum(samples, x):
    """Independent oracle: direct binomial-weight summation (small n only)."""
    n = len(samples) - 1
    return sum(
        samples[k] * math.comb(n, k) * x ** k * (1 - x) ** (n - k)
        for k in range(n + 1)
    )


def mp_bernstein(samples, x):
    """Independent oracle: the binomial-weight sum in 50-digit arithmetic."""
    n = len(samples) - 1
    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        total = mpmath.fsum(
            mpmath.mpf(float(c)) * mpmath.binomial(n, k) * x ** k * (1 - x) ** (n - k)
            for k, c in enumerate(samples)
        )
        return float(total)


def largest_one_block_order():
    """Largest n whose binomials, divided by C(n, n/2), are all normal doubles with 53 bits to spare."""
    fi = np.finfo(float)
    bits = -fi.minexp - (fi.nmant + 1)
    n = 1
    while math.comb(n + 1, (n + 1) // 2).bit_length() <= bits:
        n += 1
    return n


ONE_BLOCK_MAX = largest_one_block_order()


def de_casteljau(samples, x):
    """Independent oracle: the O(n^2) recurrence of convex combinations."""
    b = np.broadcast_to(np.asarray(samples, dtype=float)[:, None], (len(samples), x.size))
    for _ in range(len(samples) - 1):
        b = b[:-1] + x * (b[1:] - b[:-1])
    return b[0]


@st.composite
def bezier_cases(draw):
    n = draw(st.integers(1, 64))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    samples = scale * np.array(draw(st.lists(unit, min_size=n + 1, max_size=n + 1)))
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    return samples, np.array(xs + EDGE_POINTS)


class TestBuild:
    def test_identity_samples(self):
        p = fd.bernstein_build(fd.Polynomial([0, 1]), 3)
        assert np.allclose(p.samples, [0, 1 / 3, 2 / 3, 1])

    def test_constant_samples(self):
        p = fd.bernstein_build(fd.Polynomial([2.5]), 5)
        assert np.all(p.samples == 2.5)

    def test_quadratic_samples(self):
        p = fd.bernstein_build(fd.Polynomial([0, 0, 1]), 4)
        assert np.allclose(p.samples, [0, 1 / 16, 1 / 4, 9 / 16, 1])


class TestEval:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_matches_basis_sum_oracle(self, n):
        rng = np.random.default_rng(n)
        p = fd.BernsteinPoly(n, rng.standard_normal(n + 1))
        for x in np.linspace(0, 1, 17):
            assert fd.bernstein_eval(p, x) == pytest.approx(
                basis_sum(p.samples, x), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 10, 100, 512, 1024, 2000])
    def test_affine_reproduction(self, n):
        a, b = 0.3, -1.7
        p = fd.bernstein_build(fd.Polynomial([a, b]), n)
        xs = np.linspace(0, 1, 1001)
        vals = fd.bernstein_eval(p, xs)
        # the log-weight path beyond order 1024 gives up a couple of digits
        tol = 1e-12 if n <= 1024 else 5e-12
        assert np.max(np.abs(vals - (a + b * xs))) <= tol

    @given(bezier_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_de_casteljau_oracle(self, case):
        samples, xs = case
        p = fd.BernsteinPoly(samples.size - 1, samples)
        err = np.max(np.abs(fd.bernstein_eval(p, xs) - de_casteljau(samples, xs)))
        assert err <= 4e-14 * max(np.max(np.abs(samples)), 1e-300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1025, 2000, 4000])
    @pytest.mark.parametrize("kind", ["zero", "constant", "random", "spike"])
    def test_high_order_finite_and_bounded(self, n, kind):
        rng = np.random.default_rng(n)
        samples = {
            "zero": np.zeros(n + 1),
            "constant": np.full(n + 1, -2.5),
            "random": rng.standard_normal(n + 1),
            # all-zero blocks on both sides of one nonzero coefficient
            "spike": np.eye(1, n + 1, n // 3).ravel(),
        }[kind]
        xs = np.concatenate([np.linspace(0, 1, 1001), EDGE_POINTS])
        vals = fd.bernstein_eval(fd.BernsteinPoly(n, samples), xs)
        assert np.all(np.isfinite(vals))
        # B_n is a convex combination of the samples
        slack = 1e-12 * max(np.max(np.abs(samples)), 1.0)
        assert np.all(vals >= samples.min() - slack)
        assert np.all(vals <= samples.max() + slack)

    def test_one_block_boundary_is_the_evaluators(self):
        # the orders below are on both sides of the switch to renormalised blocks
        assert ONE_BLOCK_MAX == 974
        assert _binomials(ONE_BLOCK_MAX)[1][ONE_BLOCK_MAX // 2] <= _ONE_BLOCK_EXP
        assert _binomials(ONE_BLOCK_MAX + 1)[1][(ONE_BLOCK_MAX + 1) // 2] > _ONE_BLOCK_EXP

    @pytest.mark.parametrize("n", [32, 128, 600, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1])
    def test_matches_mpmath_oracle(self, n):
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n + 1)
        xs = np.concatenate([rng.random(16 - len(EDGE_POINTS)), EDGE_POINTS])
        vals = fd.bernstein_eval(fd.BernsteinPoly(n, samples), xs)
        want = np.array([mp_bernstein(samples, x) for x in xs])
        assert np.max(np.abs(vals - want)) <= 4e-14 * np.max(np.abs(samples))

    @pytest.mark.parametrize("n", [32, 128, 600, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1])
    def test_sorted_grid_matches_mpmath_oracle(self, n):
        # three chunks of sorted points: the first lies wholly below 1/2 and
        # the last wholly above, so both run on slices, not through masks
        rng = np.random.default_rng(n)
        samples = rng.standard_normal(n + 1)
        xs = np.sort(np.concatenate([rng.random(3 * _CHUNK - len(EDGE_POINTS)), EDGE_POINTS]))
        assert xs[_CHUNK - 1] <= 0.5 < xs[2 * _CHUNK]
        vals = fd.bernstein_eval(fd.BernsteinPoly(n, samples), xs)
        idx = np.concatenate([[0], rng.choice(_CHUNK, 7), 2 * _CHUNK + rng.choice(_CHUNK, 7), [xs.size - 1]])
        want = np.array([mp_bernstein(samples, x) for x in xs[idx]])
        assert np.max(np.abs(vals[idx] - want)) <= 4e-14 * np.max(np.abs(samples))

    @given(
        n=st.sampled_from([1, 8, 32, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1]),
        size=st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
        span=st.sampled_from([(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)]),
        split=st.sets(st.sampled_from(SPLIT_POINTS)),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_value_does_not_depend_on_point_order(self, n, size, span, split, seed):
        # sorted points give one-sided chunks that run on slices, reversed ones
        # (a negative-stride view) shift the chunk bounds, shuffled ones mix
        # both sides of 1/2 in every chunk; each point's double is the same
        rng = np.random.default_rng(seed)
        p = fd.BernsteinPoly(n, rng.standard_normal(n + 1))
        xs = np.sort(np.concatenate([rng.uniform(*span, size - len(split)), sorted(split)]))
        perm = rng.permutation(size)
        want = fd.bernstein_eval(p, xs).view(np.int64)
        assert np.array_equal(fd.bernstein_eval(p, xs[::-1]).view(np.int64)[::-1], want)
        assert np.array_equal(fd.bernstein_eval(p, xs[perm]).view(np.int64), want[perm])

    @pytest.mark.parametrize("n", [4, 100, 600])
    def test_quadratic_identity(self, n):
        # B_n(x^2) = x^2 + x(1-x)/n
        p = fd.bernstein_build(fd.Polynomial([0, 0, 1]), n)
        xs = np.linspace(0, 1, 101)
        expected = xs ** 2 + xs * (1 - xs) / n
        assert np.max(np.abs(fd.bernstein_eval(p, xs) - expected)) <= 1e-12

    def test_endpoint_interpolation(self):
        rng = np.random.default_rng(1)
        p = fd.BernsteinPoly(7, rng.standard_normal(8))
        assert fd.bernstein_eval(p, 0.0) == pytest.approx(p.samples[0], abs=1e-13)
        assert fd.bernstein_eval(p, 1.0) == pytest.approx(p.samples[-1], abs=1e-13)

    def test_positivity_preservation(self):
        rng = np.random.default_rng(2)
        p = fd.BernsteinPoly(20, rng.uniform(0, 1, 21))
        assert np.all(fd.bernstein_eval(p, np.linspace(0, 1, 400)) >= 0.0)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_quadratic_sup_error(self, n):
        # sup |B_n(x^2) - x^2| = max x(1-x)/n = 1/(4n)
        f = fd.Polynomial([0, 0, 1])
        p = fd.bernstein_build(f, n)
        err = fd.sup_norm_diff(f, BernsteinFunc(p), 4096)
        assert err == pytest.approx(1 / (4 * n), abs=1e-9)


class TestRestrict:
    INTERVALS = [(0.0, 1.0), (0.0, 0.38), (0.38, 1.0), (0.1, 0.7), (0.0, 0.5), (0.5, 1.0),
                 (0.3, 0.30001), (1e-3, 1.0 - 1e-3)]

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 500, 2000])
    def test_matches_direct_evaluation(self, n):
        # measured worst case over 40 draws (6 at n >= 500): 0.97 (n + 1) eps max|c|;
        # at large n the rounding of a + (b - a) v in the direct evaluation dominates
        rng = np.random.default_rng(n)
        c = rng.uniform(-1.0, 1.0, n + 1) * 10.0 ** rng.integers(-3, 4)
        v = np.linspace(0.0, 1.0, 257)
        bound = 2 * (n + 1) * np.finfo(float).eps * np.max(np.abs(c))
        for a, b in self.INTERVALS:
            r = _restrict(c, a, b)
            assert r.shape == c.shape
            assert np.max(np.abs(_bezier_value(r, v) - _bezier_value(c, a + (b - a) * v))) <= bound

    def test_ends_that_need_no_split_are_exact(self):
        c = np.random.default_rng(3).uniform(-1.0, 1.0, 9)
        assert np.array_equal(_restrict(c, 0.0, 1.0), c)
        # the restricted polynomial starts at p(a) and ends at p(b); at a = 0
        # and b = 1 those are end coefficients of c
        assert _restrict(c, 0.0, 0.38)[0] == c[0]
        assert _restrict(c, 0.38, 1.0)[-1] == c[-1]


class TestDerivative:
    def test_identity_slope(self):
        p = fd.bernstein_build(fd.Polynomial([0, 1]), 6)
        for x in (0.0, 0.3, 1.0):
            assert fd.bernstein_derivative_eval(p, x) == pytest.approx(1.0, abs=1e-12)

    def test_constant_slope(self):
        p = fd.bernstein_build(fd.Polynomial([4.2]), 3)
        assert fd.bernstein_derivative_eval(p, 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 17, 800])
    def test_matches_finite_differences(self, n):
        rng = np.random.default_rng(n)
        p = fd.BernsteinPoly(n, rng.standard_normal(n + 1))
        h = 1e-6
        xs = np.linspace(0.01, 0.99, 101)
        fe = (fd.bernstein_eval(p, xs + h) - fd.bernstein_eval(p, xs - h)) / (2 * h)
        de = fd.bernstein_derivative_eval(p, xs)
        assert np.max(np.abs(fe - de)) <= 1e-5


class TestModulus:
    def test_affine_vanishes(self):
        for delta in (0.1, 0.5, 1.0):
            assert fd.modulus_smoothness(fd.Polynomial([1, -2]), delta) <= 1e-12

    def test_zero_delta(self):
        assert fd.modulus_smoothness(fd.Polynomial([0, 0, 1]), 0.0) == 0.0

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_delta_outside_nonnegative_finite(self, delta):
        with pytest.raises(ValueError, match="delta"):
            fd.modulus_smoothness(fd.Polynomial([0, 0, 1]), delta)

    def test_quadratic_closed_form(self):
        # second difference of x^2 with step t*phi(x) is 2 t^2 x(1-x),
        # maximized at x = 1/2, t = delta: value delta^2 / 2
        delta = 0.5
        mod = fd.modulus_smoothness(fd.Polynomial([0, 0, 1]), delta)
        assert mod == pytest.approx(delta ** 2 / 2, abs=1e-10)

    def test_brute_force_grid_oracle(self):
        # coarse independent double loop against the vectorized sup
        f = fd.WeierstrassSeries(0.5, 3, 6)
        delta = 0.25
        best = 0.0
        for t in np.linspace(0, delta, 9):
            for x in np.linspace(0, 1, 65):
                phi = math.sqrt(x * (1 - x))
                lo, hi = x - t * phi, x + t * phi
                if lo < 0 or hi > 1:
                    continue
                best = max(best, abs(f(lo) - 2 * f(x) + f(hi)))
        assert fd.modulus_smoothness(f, delta, 8, 64) == pytest.approx(best, abs=1e-12)
        # finer grids only increase the discretized sup
        assert fd.modulus_smoothness(f, delta) >= best - 1e-12


def modulus_gather_oracle(f, delta, grid_t, grid_x):
    """The modulus as a loop over t that gathers the admissible x before evaluating f."""
    if delta == 0:
        return 0.0
    xs = np.linspace(0.0, 1.0, grid_x + 1)
    phi = np.sqrt(xs * (1.0 - xs))
    fx = f._eval(xs)
    best = 0.0
    for t in np.linspace(0.0, delta, grid_t + 1):
        lo = xs - t * phi
        hi = xs + t * phi
        ok = (lo >= -1e-12) & (hi <= 1.0 + 1e-12)
        if not ok.any():
            continue
        f_lo = f._eval(np.clip(lo[ok], 0.0, 1.0))
        f_hi = f._eval(np.clip(hi[ok], 0.0, 1.0))
        second = np.abs(f_lo - 2.0 * fx[ok] + f_hi)
        best = max(best, float(second.max()))
    return best


class TestModulusOracle:
    FUNCS = [
        fd.Polynomial([0.3, -1.0, 2.0, -1.5]),
        fd.WeierstrassSeries(0.5, 3, 6),
        BernsteinFunc(fd.bernstein_build(fd.WeierstrassSeries(0.45, 3, 4), 8)),
        fd.sample(fd.Polynomial([0.0, 1.0, -4.0, 3.0]), 100),
    ]

    @pytest.mark.parametrize("f", FUNCS)
    @pytest.mark.parametrize("delta", [1e-3, 0.25, 1.0, 40.0])
    @pytest.mark.parametrize("grid_t, grid_x", [(2, 2), (8, 64), (7, 1000), (64, 4096)])
    def test_equals_gathering_loop(self, f, delta, grid_t, grid_x):
        # at delta = 40 most steps admit only x near 0 and 1 (x = 0 and 1
        # are admissible at every step, with weight 0)
        assert fd.modulus_smoothness(f, delta, grid_t, grid_x) == modulus_gather_oracle(f, delta, grid_t, grid_x)


class TestTotik:
    def test_affine_report(self):
        rep = fd.totik_error_report(fd.Polynomial([2, 3]), 16)
        assert rep.sup_err <= 1e-12
        assert rep.modulus <= 1e-12
        assert rep.ratio == 0.0 or rep.ratio <= 1.0

    def test_quadratic_sup_err(self):
        rep = fd.totik_error_report(fd.Polynomial([0, 0, 1]), 4)
        assert rep.sup_err == pytest.approx(1 / 16, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_quadratic_ratio_bounded(self, n):
        # sup_err = 1/(4n), modulus ~ 1/(2n): ratio ~ 1/2, bounded by 1
        rep = fd.totik_error_report(fd.Polynomial([0, 0, 1]), n)
        assert rep.ratio <= 1.0
