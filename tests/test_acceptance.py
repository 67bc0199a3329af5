"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success; they appear in captured output on failure).
"""

import math

import numpy as np

import fracdim as fd


def check(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_dimension_equation_solver():
    rng = np.random.default_rng(101)
    worst_residual = 0.0
    trials = 0
    while trials < 200:
        n = int(rng.integers(2, 7))
        cuts = np.sort(rng.uniform(0.05, 0.95, n - 1))
        knots = np.concatenate([[0.0], cuts, [1.0]])
        lengths = np.diff(knots)
        if lengths.min() < 0.02:
            continue
        alpha = rng.uniform(-0.95, 0.95, n)
        if np.abs(alpha).sum() <= 1.0 + 1e-6:
            continue
        trials += 1
        d = fd.dimension_equation_root(lengths, alpha)
        residual = abs(np.sum(np.abs(alpha) * lengths ** (d - 1)) - 1.0)
        worst_residual = max(worst_residual, residual)
    worst_uniform = 0.0
    for n in (2, 3, 4, 8):
        for a in (0.6, 0.75, 0.9):
            if n * a <= 1.0:
                continue
            d = fd.dimension_equation_root(np.full(n, 1.0 / n), np.full(n, a))
            closed = 2.0 + math.log(a) / math.log(n)
            worst_uniform = max(worst_uniform, abs(d - closed))
    ok = worst_residual <= 1e-12 and worst_uniform <= 1e-10
    check(
        "criterion 1: dimension-equation solver",
        ok,
        f"max residual {worst_residual:.2e} (<=1e-12), "
        f"max closed-form gap {worst_uniform:.2e} (<=1e-10)",
    )


def test_criterion_02_degenerate_regime():
    data = fd.DataSet(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    results = []
    for alpha in ([0.5, 0.5], [0.3, 0.3], [0.2, -0.7], [0.0, 0.0]):
        rep = fd.predict_box_dim(data, alpha)
        results.append(rep.predicted == 1.0 and rep.predicted_kind == "degenerate_one")
    check(
        "criterion 2: degenerate regime",
        all(results),
        "sum |alpha| <= 1 predicts exactly 1 for all probe configurations",
    )


def test_criterion_03_fixed_point_correctness():
    rng = np.random.default_rng(303)
    m = 2 ** 16
    worst_residual = 0.0
    worst_knot = 0.0
    built = 0
    while built < 20:
        n = int(rng.integers(2, 7))
        # knots snapped onto the solver grid so knot values are grid nodes
        idx = np.sort(rng.choice(np.arange(1, m), size=n - 1, replace=False))
        knots = np.concatenate([[0.0], idx / m, [1.0]])
        if np.diff(knots).min() < 0.03:
            continue
        ys = rng.uniform(-1.0, 1.0, n + 1)
        alpha = rng.uniform(-0.9, 0.9, n)
        built += 1
        spec = fd.make_affine_spec(knots, ys, alpha)
        fif = fd.solve_fixed_point(spec, m=m, tol=1e-11)
        worst_residual = max(worst_residual, fd.self_ref_residual(spec, fif.grid))
        worst_knot = max(
            worst_knot, float(np.max(np.abs(fif.grid._eval(knots) - ys)))
        )
    ok = worst_residual <= 1e-10 and worst_knot <= 1e-9
    check(
        "criterion 3: fixed-point correctness",
        ok,
        f"20 random specs: max self-referential residual {worst_residual:.2e} "
        f"(<=1e-10), max knot error {worst_knot:.2e} (<=1e-9)",
    )


def test_criterion_04_empirical_vs_predicted():
    details = []
    ok = True
    for target in (1.2, 1.3, 1.5, 1.7):
        a = 2.0 ** (target - 2.0)
        spec = fd.make_affine_spec([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [a, a])
        fif = fd.solve_fixed_point(spec, m=2 ** 20, tol=1e-8)
        rep = fd.estimate_box_dim(fif.grid, 4, 12)
        gap = abs(rep.raw_slope - target)
        ok &= gap <= 0.15
        details.append(f"D={target}: slope {rep.raw_slope:.4f} (gap {gap:.4f})")
    check("criterion 4: empirical vs predicted dimension", ok, "; ".join(details))


def test_criterion_05_lipschitz_invariance(rough_15_fine):
    base = fd.estimate_box_dim(rough_15_fine.grid, 4, 12).raw_slope
    rough = rough_15_fine.grid
    smooth = {
        "x": fd.Polynomial([0, 1]),
        "x^2": fd.Polynomial([0, 0, 1]),
        "deg-5 poly": fd.Polynomial([0.3, -1.0, 0.5, 2.0, -1.5, 0.8]),
    }
    details = []
    ok = True
    for label, f in smooth.items():
        rep = fd.estimate_box_dim(fd.sample(fd.Sum(rough, f), 2 ** 20), 4, 12)
        delta = abs(rep.raw_slope - base)
        ok &= delta <= 0.1
        details.append(f"{label}: delta {delta:.4f}")
    check(
        "criterion 5: Lipschitz invariance proxy",
        ok,
        f"base slope {base:.4f}; " + "; ".join(details) + " (all <=0.1)",
    )


def test_criterion_06_box_pipeline():
    # a symmetric rough series samples collinearly at knots (0, 1/2, 1),
    # so that target runs on the off-center partition (0, 0.4, 1)
    cases = [
        (fd.Polynomial([0, 0, 1]), None, "x^2"),
        (fd.WeierstrassSeries(0.5, 3, 12), [0.0, 0.4, 1.0], "rough series"),
    ]
    details = []
    ok = True
    for f, partition, label in cases:
        errs = []
        for n in (4, 8, 16, 32, 64):
            res = fd.dim_preserving_sequence(f, 1.5, n, partition=partition)
            sup_err = fd.sup_norm_diff(f, res.fif)
            bound = fd.sup_norm_diff(f, res.seed) + res.alpha / (
                1.0 - res.alpha
            ) * fd.sup_norm_diff(res.seed, res.base)
            ok &= sup_err <= bound + 1e-9
            ok &= abs(res.report.predicted - 1.5) <= 1e-10
            errs.append(sup_err)
        monotone = all(a > b for a, b in zip(errs, errs[1:]))
        ok &= monotone
        details.append(
            f"{label}: errors {['%.3g' % e for e in errs]} monotone={monotone}"
        )
    check(
        "criterion 6: box-dimension pipeline",
        ok,
        "; ".join(details) + "; bound chain holds, predicted 1.5 at every n",
    )


def test_criterion_07_hausdorff_pipeline():
    res = fd.hausdorff_preserving_sequence(fd.Polynomial([0, 0, 1]), 1.5, 4)
    alpha_ok = abs(res.spec.alpha[0] - 0.5) <= 1e-12
    sum_ok = abs(res.sum_abs_alpha - 2.0) <= 1e-12 and res.sum_abs_alpha > 1.0
    cond_ok = fd.hausdorff_condition(res.data, res.spec.alpha)

    const = fd.hausdorff_preserving_sequence(fd.Polynomial([3.0]), 1.5, 4)
    perturb_ok = (
        const.perturbed
        and const.data.ys[0] == 3.0 + 0.25
        and np.all(const.data.ys[1:] == 3.0)
    )

    fif = fd.solve_fixed_point(res.spec, m=2 ** 20, tol=1e-8)
    slope = fd.estimate_box_dim(fif.grid, 4, 12).raw_slope
    slope_ok = abs(slope - 1.5) <= 0.15
    ok = alpha_ok and sum_ok and cond_ok and perturb_ok and slope_ok
    check(
        "criterion 7: Hausdorff pipeline",
        ok,
        f"alpha=0.5, sum=2>1, quotient condition holds, constant f perturbed "
        f"by exactly 1/4, slope {slope:.4f} (gap {abs(slope - 1.5):.4f} <=0.15)",
    )


def test_criterion_08_bernstein_suite():
    xs = np.linspace(0.0, 1.0, 513)

    worst_affine = 0.0
    for n in (2, 7, 100, 512, 513, 1024):
        p = fd.bernstein_build(fd.Polynomial([0.4, -2.0]), n)
        worst_affine = max(
            worst_affine, float(np.max(np.abs(fd.bernstein_eval(p, xs) - (0.4 - 2.0 * xs))))
        )

    # B_n(x^2) - x^2 = x(1-x)/n, checked on doubling n through the full
    # range {2, ..., 1024} plus odd spot checks (exhaustive n would repeat
    # the same algebraic identity 1023 times)
    worst_quad = 0.0
    for n in (2, 3, 4, 8, 16, 31, 32, 64, 128, 255, 256, 512, 513, 1024):
        p = fd.bernstein_build(fd.Polynomial([0, 0, 1]), n)
        expected = xs ** 2 + xs * (1.0 - xs) / n
        worst_quad = max(
            worst_quad, float(np.max(np.abs(fd.bernstein_eval(p, xs) - expected)))
        )

    worst_deriv = 0.0
    h = 1e-6
    inner = np.linspace(0.01, 0.99, 99)
    for n in (5, 50, 700):
        rng = np.random.default_rng(n)
        p = fd.BernsteinPoly(n, rng.standard_normal(n + 1))
        fdiff = (fd.bernstein_eval(p, inner + h) - fd.bernstein_eval(p, inner - h)) / (2 * h)
        worst_deriv = max(
            worst_deriv,
            float(np.max(np.abs(fdiff - fd.bernstein_derivative_eval(p, inner)))),
        )

    worst_mod = max(
        fd.modulus_smoothness(fd.Polynomial([c0, c1]), 0.7)
        for c0, c1 in ((0.0, 1.0), (2.0, -3.0))
    )
    ok = (
        worst_affine <= 1e-12
        and worst_quad <= 1e-9
        and worst_deriv <= 1e-5
        and worst_mod <= 1e-12
    )
    check(
        "criterion 8: Bernstein suite",
        ok,
        f"affine {worst_affine:.2e} (<=1e-12), quadratic identity {worst_quad:.2e} "
        f"(<=1e-9), derivative {worst_deriv:.2e} (<=1e-5), affine modulus "
        f"{worst_mod:.2e} (<=1e-12)",
    )


def test_criterion_09_extension(anchor_15_fine):
    f = fd.Polynomial([0.5, 1.0])
    domains = {
        "single gap": fd.ExtensionDomain([(0.0, 0.4), (0.6, 1.0)], f),
        "three gaps": fd.ExtensionDomain(
            [(0.0, 0.1), (0.2, 0.4), (0.5, 0.7), (0.9, 1.0)], f
        ),
    }
    details = []
    ok = True
    for label, domain in domains.items():
        ext = fd.extend_function(domain, 1.5, anchor=anchor_15_fine)
        exact = all(
            ext(a) == f(a) and ext(b) == f(b) for a, b in domain.intervals
        )
        a0, a1 = ext.anchor(0.0), ext.anchor(1.0)
        jump = max(
            max(
                abs(a0 + left - f(lo)),
                abs(a1 + right - f(hi)),
            )
            for (lo, hi, left, right) in ext._bridges
        )
        slope = fd.estimate_box_dim(fd.sample(ext, 2 ** 20), 4, 12).raw_slope
        ok &= exact and jump <= 1e-9 and abs(slope - 1.5) <= 0.15
        details.append(
            f"{label}: exact={exact}, jump {jump:.2e}, slope {slope:.4f}"
        )
    check("criterion 9: continuous extension", ok, "; ".join(details))


def test_criterion_10_chaos_game(tent_half_spec, tent_half_fif, tmp_path):
    pts = fd.chaos_game(tent_half_spec, 10 ** 5, seed=42)
    deviation = float(
        np.max(np.abs(tent_half_fif.grid._eval(pts[:, 0]) - pts[:, 1]))
    )
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        rerun = fd.chaos_game(tent_half_spec, 10 ** 5, seed=42)
        fd.write_xy_csv(p, rerun[:, 0], rerun[:, 1])
        paths.append(p)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok = deviation <= 1e-3 and identical
    check(
        "criterion 10: chaos game vs fixed point",
        ok,
        f"max vertical deviation {deviation:.2e} (<=1e-3), "
        f"seeded reruns byte-identical={identical}",
    )
