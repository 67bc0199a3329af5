import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdim as fd
from fracdim.bernstein import BernsteinFunc

# points where t = x/(1-x), its mirror or the final (1-x)^n scaling are
# most delicate: subnormal and tiny x, both sides of 1/2, the ends
EDGE_POINTS = [0.0, 5e-324, 1e-300, 0.5 - 1e-16, 0.5 + 1e-16, 1.0 - 1e-16, 1.0]


def basis_sum(samples, x):
    """Independent oracle: direct binomial-weight summation (small n only)."""
    n = len(samples) - 1
    return sum(
        samples[k] * math.comb(n, k) * x ** k * (1 - x) ** (n - k)
        for k in range(n + 1)
    )


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
