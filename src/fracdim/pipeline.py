"""Constructive approximation pipelines with prescribed graph dimension.

Each pipeline injects roughness of a known dimension into an otherwise
classical approximation scheme: a fractal perturbation of Bernstein
polynomials (box dimension), uniform-knot affine interpolants (Hausdorff
dimension), a shrinking rough summand on top of broken-line interpolants
(density), its antiderivative (derivative-dimension preservation), and a
rough bridge across gaps (continuous extension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinFunc, bernstein_build
from .dimension import DataSet, DimReport, estimate_box_dim, predict_box_dim, predict_hausdorff_dim
from .errors import BetaRangeError, CollinearDataError, ConditionError, HypothesisError
from .fif import (
    DEFAULT_RESOLUTION,
    DEFAULT_TOL,
    FifFunction,
    FifSpec,
    make_affine_spec,
    make_alpha_fractal_spec,
    solve_fixed_point,
)
from .functions import (
    AntiDerivative,
    Func,
    GridFunction,
    Partition,
    Scaled,
    Shifted,
    Sum,
    _whole,
    lipschitz_estimate,
    sample,
    sup_norm_diff,
)

__all__ = [
    "Anchor",
    "make_anchor",
    "ExtensionDomain",
    "BoxApproximant",
    "HausdorffApproximant",
    "DerivativeApproximant",
    "InvarianceReport",
    "dim_preserving_sequence",
    "hausdorff_preserving_sequence",
    "dense_approximant",
    "derivative_dim_approximant",
    "extend_function",
    "lipschitz_invariance_check",
]

ANCHOR_DIM_TOL = 1e-10
INCREMENT_TOL = 1e-9
NONNEG_CHECK_RESOLUTION = 2 ** 14
LIP_GRID = 2 ** 14
LIP_CAP = 1e3
# dense_approximant samples f on 2^k + 1 knots; 2^24 + 1 doubles are about 134 MB
DENSE_MAX_K = 24


def _require_beta(beta: float) -> None:
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite; got {beta!r}")
    if not 1.0 < beta < 2.0:
        raise BetaRangeError(
            f"beta must lie strictly inside (1, 2); got {beta!r} "
            "(beta = 2 needs |alpha| = 1, beta = 1 is the classical regime)"
        )


class Anchor(GridFunction):
    """Affine-interpolant fixed point with known predicted box dimension.

    Holds the fixed point's samples; vanishes at both endpoints so it can
    be rescaled into gaps.
    """

    def __init__(self, fif: FifFunction, predicted_dim: float):
        super().__init__(fif.m, fif.values)
        self.fif = fif
        self.predicted_dim = float(predicted_dim)


def make_anchor(
    beta: float,
    m: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> Anchor:
    """Tent-data interpolant on (0, 1/2, 1) with |alpha| = 2^(beta-2)."""
    _require_beta(beta)
    a = 2.0 ** (beta - 2.0)
    spec = make_affine_spec([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [a, a])
    fif = solve_fixed_point(spec, m=m, tol=tol)
    return Anchor(fif, beta)


@dataclass(eq=False)
class BoxApproximant:
    """Fractal perturbation of a Bernstein polynomial, plus its report."""

    fif: FifFunction
    report: DimReport
    order: int
    alpha: float
    seed: Func  # the Bernstein polynomial p_n
    base: Func  # B_n(p_n)

    def error_bound(self, f: Func) -> float:
        """Bound on sup|f - fif|: sup|f - p_n| + alpha / (1 - alpha) sup|p_n - B_n p_n|."""
        err_f_pn = sup_norm_diff(f, self.seed)
        err_pn_b = sup_norm_diff(self.seed, self.base)
        return err_f_pn + self.alpha / (1.0 - self.alpha) * err_pn_b


def dim_preserving_sequence(
    f: Func,
    beta: float,
    n: int,
    partition=None,
    m: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> BoxApproximant:
    """n-th term of a uniformly convergent sequence with box dimension beta.

    Uses the fractal perturbation of p_n = B_n(f) with base B_n(p_n) on a
    two-interval partition (default knots 0, 1/2, 1) and the equal scale
    factor that pins the dimension-equation root at beta.  Collinear sample
    triples are surfaced as an error rather than silently perturbed; pass a
    different partition in that case.
    """
    _require_beta(beta)
    part = partition if isinstance(partition, Partition) else Partition(
        partition if partition is not None else [0.0, 0.5, 1.0]
    )
    alpha_val = 1.0 / float(np.sum(part.lengths ** (beta - 1.0)))
    alpha = np.full(part.n_intervals, alpha_val)

    p_n = BernsteinFunc(bernstein_build(f, n))
    b_n = BernsteinFunc(bernstein_build(p_n, n))
    ys = p_n._eval(part.knots)
    report = predict_box_dim(DataSet(part.knots, ys), alpha)
    if report.predicted is None:
        raise CollinearDataError(
            "Bernstein samples at the partition knots are collinear; "
            "choose a different partition (or perturb the data as in the "
            "Hausdorff pipeline)"
        )
    spec = make_alpha_fractal_spec(part, alpha, seed=p_n, base=b_n, ys=ys)
    fif = solve_fixed_point(spec, m=m, tol=tol)
    return BoxApproximant(
        fif=fif, report=report, order=n, alpha=alpha_val, seed=p_n, base=b_n
    )


@dataclass(eq=False)
class HausdorffApproximant:
    spec: FifSpec
    report: DimReport
    data: DataSet
    perturbed: bool
    sum_abs_alpha: float


def hausdorff_preserving_sequence(f: Func, beta: float, n: int) -> HausdorffApproximant:
    """Affine interpolant spec on n uniform knots with Hausdorff dimension beta.

    Scale factor alpha = n^(beta-2) on every branch.  When the first and last
    increments of f coincide (the sufficient test for the quotient condition
    fails), the first ordinate is raised by exactly 1/n.
    """
    _require_beta(beta)
    if n < 2:
        raise ValueError("need at least two branches (n >= 2)")
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = f._eval(xs).copy()
    alpha_val = float(n ** (beta - 2.0))
    alpha = np.full(n, alpha_val)
    perturbed = bool(abs((ys[1] - ys[0]) - (ys[-1] - ys[-2])) <= INCREMENT_TOL)
    if perturbed:
        ys[0] += 1.0 / n
    data = DataSet(xs, ys)
    report = predict_hausdorff_dim(data, alpha)
    if report.predicted is None:
        raise ConditionError(
            "the quotient condition still fails after the endpoint perturbation"
        )
    return HausdorffApproximant(
        spec=make_affine_spec(data.partition, data.ys, alpha),
        report=report,
        data=data,
        perturbed=perturbed,
        sum_abs_alpha=n * alpha_val,
    )


def _check_anchor(anchor: Func, beta: float) -> None:
    predicted = getattr(anchor, "predicted_dim", None)
    if predicted is not None and abs(predicted - beta) > ANCHOR_DIM_TOL:
        raise HypothesisError(
            f"anchor predicted dimension {predicted} does not match beta {beta}"
        )
    probe = anchor._eval(np.linspace(0.0, 1.0, 257))
    if float(np.max(np.abs(probe))) == 0.0:
        raise HypothesisError("anchor is identically zero (its graph has dimension 1)")


def dense_approximant(f: Func, beta: float, k: int, anchor: Func | None = None) -> Func:
    """Broken-line interpolant of f on 2^k + 1 knots plus anchor / k.

    The interpolant is Lipschitz, so the sum inherits the anchor's graph
    dimension; the shrinking factor 1/k drives uniform convergence to f.
    k must be a whole number from 1 to DENSE_MAX_K.
    """
    _require_beta(beta)
    k = _whole(k, "k")
    if not 1 <= k <= DENSE_MAX_K:
        raise ValueError(f"k must lie in 1..{DENSE_MAX_K}; got {k}")
    if anchor is None:
        anchor = make_anchor(beta)
    _check_anchor(anchor, beta)
    return Sum(sample(f, 2 ** k), Scaled(1.0 / k, anchor))


@dataclass(eq=False)
class DerivativeApproximant:
    primitive: Func  # F_n, continuously differentiable approximant
    derivative: Func  # g_n = F_n' with graph dimension beta
    nonneg_checked: bool
    min_primitive: float | None  # grid minimum when the check ran


def derivative_dim_approximant(
    fprime: Func,
    beta: float,
    n: int,
    nonneg_primitive: bool = False,
    anchor: Func | None = None,
) -> DerivativeApproximant:
    """Antiderivative of a dense approximant of fprime.

    The returned primitive F_n satisfies F_n' = g_n with dim G(g_n) = beta.
    With nonneg_primitive the anchor is shifted upward to be nonnegative
    (a constant shift, so dimension is unchanged) and positivity of F_n is
    checked on a grid and reported, not forced.
    """
    _require_beta(beta)
    if anchor is None:
        anchor = make_anchor(beta)
    check_xs = np.linspace(0.0, 1.0, NONNEG_CHECK_RESOLUTION + 1)
    if nonneg_primitive:
        low = float(np.min(anchor._eval(check_xs)))
        if low < 0.0:
            # the shift drops predicted_dim, so the caller's anchor is checked here
            _check_anchor(anchor, beta)
            anchor = Shifted(-low, anchor)
    g_n = dense_approximant(fprime, beta, n, anchor=anchor)
    primitive = AntiDerivative(g_n)
    min_primitive = float(np.min(primitive._eval(check_xs))) if nonneg_primitive else None
    return DerivativeApproximant(
        primitive=primitive,
        derivative=g_n,
        nonneg_checked=nonneg_primitive,
        min_primitive=min_primitive,
    )


@dataclass(eq=False)
class ExtensionDomain:
    """Disjoint closed intervals covering part of [0, 1], plus values there."""

    intervals: list  # [(a_i, b_i)] sorted, disjoint
    values: Func

    def __post_init__(self):
        try:
            iv = [(float(a), float(b)) for a, b in self.intervals]
        except TypeError as exc:
            raise ValueError(f"intervals must be a list of [a, b] pairs: {exc}") from exc
        if not iv:
            raise ValueError("need at least one interval")
        for a, b in iv:
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError("intervals must lie inside [0, 1]")
        for (_, b0), (a1, _) in zip(iv, iv[1:]):
            if not b0 < a1:
                raise ValueError("intervals must be sorted with nonempty gaps")
        if iv[0][0] != 0.0 or iv[-1][1] != 1.0:
            raise ValueError("the first interval must start at 0 and the last end at 1")
        self.intervals = iv

    @property
    def gaps(self) -> list:
        return [(b0, a1) for (_, b0), (a1, _) in zip(self.intervals, self.intervals[1:])]


class ExtendedFunc(Func):
    """Equals the given function on X; rough bridges across the gaps.

    max_jump: largest |bridge end value - f| over the gap endpoints (round-off only).
    """

    def __init__(self, domain: ExtensionDomain, anchor: Func):
        self.domain = domain
        self.anchor = anchor
        a0 = anchor(0.0)
        a1 = anchor(1.0)
        self._bridges = []
        self.max_jump = 0.0
        f = domain.values
        for lo, hi in domain.gaps:
            f_lo, f_hi = f(lo), f(hi)
            # h(u) = A(u) + (f_lo - A(0))(1-u) + (f_hi - A(1))u is exact at
            # both gap endpoints regardless of the anchor's endpoint values
            left, right = f_lo - a0, f_hi - a1
            self._bridges.append((lo, hi, left, right))
            self.max_jump = max(self.max_jump, abs(a0 + left - f_lo), abs(a1 + right - f_hi))

    def _eval(self, x):
        out = self.domain.values._eval(x)
        for lo, hi, left, right in self._bridges:
            mask = (x > lo) & (x < hi)
            if not mask.any():
                continue
            u = (x[mask] - lo) / (hi - lo)
            out[mask] = self.anchor._eval(u) + left * (1.0 - u) + right * u
        return out


def extend_function(
    domain: ExtensionDomain, beta: float, anchor: Func | None = None
) -> ExtendedFunc:
    """Continuous extension to [0, 1] with graph dimension beta on the gaps.

    Rescaling the anchor into a gap is an affine map of its graph, which
    leaves the box dimension unchanged.  The lower constraint beta >= the
    dimension of the graph over X cannot be machine-verified and is left to
    the caller.
    """
    _require_beta(beta)
    if anchor is None:
        anchor = make_anchor(beta)
    _check_anchor(anchor, beta)
    return ExtendedFunc(domain, anchor)


@dataclass(eq=False)
class InvarianceReport:
    dim_rough: float
    dim_sum: float
    delta: float
    report_rough: DimReport
    report_sum: DimReport


def lipschitz_invariance_check(
    rough: Func,
    lip: Func,
    m: int = 2 ** 20,
    scales=(4, 12),
) -> InvarianceReport:
    """Box-count-proxy check that adding a Lipschitz map preserves dimension."""
    slope = lipschitz_estimate(lip, LIP_GRID)
    if not np.isfinite(slope) or slope > LIP_CAP:
        raise HypothesisError(
            f"second summand has grid Lipschitz estimate {slope:.3g} above the cap {LIP_CAP:g}"
        )
    j_min, j_max = scales
    report_rough = estimate_box_dim(sample(rough, m), j_min, j_max)
    report_sum = estimate_box_dim(sample(Sum(rough, lip), m), j_min, j_max)
    return InvarianceReport(
        dim_rough=report_rough.raw_slope,
        dim_sum=report_sum.raw_slope,
        delta=abs(report_sum.raw_slope - report_rough.raw_slope),
        report_rough=report_rough,
        report_sum=report_sum,
    )
