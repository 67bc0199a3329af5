"""Fractal interpolation functions as fixed points of the branch-map operator.

Specs pair a partition with interpolation data, a scale vector, and a branch
family: either affine maps F_i(x, y) = c_i x + d_i + alpha_i y, or the
fractal-perturbation branch F built from a seed function and a base function.
Fixed points are computed on a uniform grid of m intervals.  When the knots
are N >= 2 equal intervals and m = N^k, every branch pre-image of a grid node
is a grid node, and the fixed point follows level by level from the
self-referential equation (N-adic refinement).  Otherwise the operator is
iterated with linear interpolation at branch pre-images.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .functions import Func, GridBacked, GridFunction, Partition, func_from_json, func_to_json

__all__ = [
    "AffineBranch",
    "AlphaFractalBranch",
    "FifSpec",
    "FifFunction",
    "affine_map_params",
    "affine_branch_coeffs",
    "make_affine_spec",
    "make_alpha_fractal_spec",
    "rb_apply",
    "self_ref_residual",
    "solve_fixed_point",
    "chaos_game",
    "spec_to_json",
    "spec_from_json",
]

DEFAULT_RESOLUTION = 2 ** 16
DEFAULT_TOL = 1e-10
CHAOS_BURN_IN = 100


@dataclass(eq=False)
class AffineBranch:
    c: np.ndarray
    d: np.ndarray


@dataclass(eq=False)
class AlphaFractalBranch:
    seed: Func
    base: Func


def affine_map_params(partition: Partition):
    """Slopes and offsets of the horizontal maps L_i(x) = a_i x + x_{i-1}."""
    return partition.lengths.copy(), partition.knots[:-1].copy()


def affine_branch_coeffs(partition: Partition, ys, alpha):
    """Coefficients c_i, d_i making both interpolation conditions exact.

    d_i = y_{i-1} - alpha_i y_0 and c_i = y_i - y_{i-1} - alpha_i (y_N - y_0).
    """
    ys = np.asarray(ys, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = partition.n_intervals
    if ys.shape != (n + 1,):
        raise ValueError("ys length must equal knot count")
    if alpha.shape != (n,):
        raise ValueError("alpha length must equal interval count")
    d = ys[:-1] - alpha * ys[0]
    c = np.diff(ys) - alpha * (ys[-1] - ys[0])
    return c, d


@dataclass(eq=False)
class FifSpec:
    partition: Partition
    ys: np.ndarray
    alpha: np.ndarray
    branch: object  # AffineBranch | AlphaFractalBranch

    def __post_init__(self):
        self.ys = np.asarray(self.ys, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        n = self.partition.n_intervals
        if self.ys.shape != (n + 1,):
            raise ValueError("ys length must equal knot count")
        if self.alpha.shape != (n,):
            raise ValueError("alpha length must equal interval count")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.ys))):
            raise ValueError("scale factors and ordinates must be finite")
        if np.any(np.abs(self.alpha) >= 1.0):
            raise ValueError("scale factors must satisfy |alpha_i| < 1")
        if isinstance(self.branch, AffineBranch):
            c, d = self.branch.c, self.branch.d
            if np.max(np.abs(d + self.alpha * self.ys[0] - self.ys[:-1])) > 1e-12:
                raise ValueError("branch maps violate the left interpolation condition")
            if np.max(np.abs(c + d + self.alpha * self.ys[-1] - self.ys[1:])) > 1e-12:
                raise ValueError("branch maps violate the right interpolation condition")
        elif isinstance(self.branch, AlphaFractalBranch):
            seed, base = self.branch.seed, self.branch.base
            if abs(base(0.0) - seed(0.0)) > 1e-9 or abs(base(1.0) - seed(1.0)) > 1e-9:
                raise ValueError("base must match the seed at both endpoints")
        else:
            raise ValueError("branch must be AffineBranch or AlphaFractalBranch")

    @property
    def contraction_factor(self) -> float:
        return float(np.max(np.abs(self.alpha)))


def make_affine_spec(knots, ys, alpha) -> FifSpec:
    partition = knots if isinstance(knots, Partition) else Partition(np.asarray(knots, dtype=float))
    c, d = affine_branch_coeffs(partition, ys, alpha)
    return FifSpec(partition, np.asarray(ys, dtype=float), np.asarray(alpha, dtype=float), AffineBranch(c, d))


def make_alpha_fractal_spec(knots, alpha, seed: Func, base: Func, ys=None) -> FifSpec:
    partition = knots if isinstance(knots, Partition) else Partition(np.asarray(knots, dtype=float))
    if ys is None:
        ys = seed._eval(partition.knots)
    return FifSpec(partition, ys, np.asarray(alpha, dtype=float), AlphaFractalBranch(seed, base))


def _make_applier(spec: FifSpec, m: int):
    """Precompute everything of one operator application that is iterate-free."""
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
    pos = u * m
    i0 = np.minimum(pos.astype(np.int64), m - 1)
    frac = pos - i0
    i1 = i0 + 1

    if isinstance(spec.branch, AffineBranch):
        lin = spec.branch.c[i] * u + spec.branch.d[i]
    else:
        seed_x = spec.branch.seed._eval(xs)
        base_u = spec.branch.base._eval(u)
        lin = seed_x - al * base_u

    def apply(g: np.ndarray) -> np.ndarray:
        gu = g[i0] * (1.0 - frac) + g[i1] * frac
        return lin + al * gu

    return xs, apply


def rb_apply(spec: FifSpec, g: GridFunction) -> GridFunction:
    """One application of the branch-map operator to grid samples."""
    _, apply = _make_applier(spec, g.m)
    return GridFunction(g.m, apply(g.values))


def self_ref_residual(spec: FifSpec, g: GridFunction) -> float:
    """Sup over the grid of |g - T g|."""
    out = rb_apply(spec, g)
    return float(np.max(np.abs(g.values - out.values)))


@dataclass(eq=False)
class FifFunction(GridBacked):
    """Converged fixed point of a spec: a grid-backed function plus how it was solved."""

    spec: FifSpec
    grid: GridFunction
    residual: float
    iterations: int


def _refinement_depth(spec: FifSpec, m: int) -> int | None:
    """k with m = N^k >= N when the knots are exactly N >= 2 equal intervals, else None."""
    n = spec.partition.n_intervals
    if n < 2 or not np.array_equal(spec.partition.knots, np.linspace(0.0, 1.0, n + 1)):
        return None
    depth, size = 0, 1
    while size < m:
        size *= n
        depth += 1
    return depth if size == m and depth > 0 else None


def _settle_end(lin_end: float, a: float, y: float) -> float:
    """Fixed point of the endpoint equation f = lin_end + a f.

    Iterated from the interpolation ordinate y, as grid iteration does, so
    both paths land on the same floating-point value; a start that has not
    settled after 64 steps is replaced by the closed form.
    """
    for _ in range(64):
        nxt = lin_end + a * y
        if nxt == y:
            return y
        y = nxt
    return lin_end / (1.0 - a)


# nodes per block of a refinement level: a block's rows and its lin values
# stay in cache, so each level streams over the grid once
_REFINE_BLOCK = 1 << 14


def _refine(spec: FifSpec, m: int, depth: int):
    """Fixed point on m = N^depth intervals of the uniform N-partition.

    Node i*p + r of the grid with p = m / N lies on branch i at u = r / p
    (interior knots on their left branch), and its pre-image u is node N*r.
    So level k of the N-adic grid follows from level k - 1 exactly:
    g_k[i*p_k + r] = lin(i, r / p_k) + alpha_i g_{k-1}[r], r = 1..p_k.
    Every level is built inside the returned array: level k fills
    g[:N p_k + 1] from its prefix g[:p_k + 1], which holds level k - 1,
    in blocks of _REFINE_BLOCK values of r.
    Returns the grid and sup |T g - g| over all m + 1 nodes.
    """
    n = spec.partition.n_intervals
    alpha = spec.alpha
    p = m // n
    if isinstance(spec.branch, AffineBranch):
        c, d = spec.branch.c[:, None], spec.branch.d[:, None]

        def lin_block(lo: int, hi: int, pk: int) -> np.ndarray:
            """lin[i, r] for r = lo..hi-1 on p_k intervals per branch, shape (N, hi - lo)."""
            # r / p_k and (r p / p_k) / p round the same quotient, so u is
            # the same double on every level
            u = np.arange(lo, hi, dtype=float)
            u /= pk
            out = c * u
            out += d
            return out
    else:
        seed_x = spec.branch.seed._eval(np.linspace(0.0, 1.0, m + 1))
        rows = np.lib.stride_tricks.sliding_window_view(seed_x, p + 1)[::p]
        lin = alpha[:, None] * spec.branch.base._eval(np.arange(p + 1, dtype=float) / p)
        np.subtract(rows, lin, out=lin)

        def lin_block(lo: int, hi: int, pk: int) -> np.ndarray:
            step = p // pk
            return lin[:, step * lo:step * (hi - 1) + 1:step]

    g = np.empty(m + 1)
    g[0] = _settle_end(lin_block(0, 1, 1)[0, 0], alpha[0], spec.ys[0])
    g[1] = _settle_end(lin_block(1, 2, 1)[-1, 0], alpha[-1], spec.ys[-1])
    pk = 1
    for _ in range(depth):
        for lo in range(0, pk, _REFINE_BLOCK):
            hi = min(lo + _REFINE_BLOCK, pk)
            lin_k = lin_block(lo + 1, hi + 1, pk)
            coarse = g[lo + 1:hi + 1]
            # row 0 overwrites the coarse values that the other rows read, so it goes last
            for i in (*range(1, n), 0):
                row = g[i * pk + lo + 1:i * pk + hi + 1]
                np.multiply(alpha[i], coarse, out=row)
                row += lin_k[i]
        pk *= n
    # max |t| block by block; abs keeps an all-zero block at +0.0
    sups = [abs(lin_block(0, 1, p)[0, 0] + alpha[0] * g[0] - g[0])]
    t = np.empty(min(p, _REFINE_BLOCK))
    for lo in range(0, p, _REFINE_BLOCK):
        hi = min(lo + _REFINE_BLOCK, p)
        lin_p = lin_block(lo + 1, hi + 1, p)
        pre = g[n * (lo + 1):n * hi + 1:n]  # g[N r]: the pre-images of nodes i*p + r
        tb = t[:hi - lo]
        for i in range(n):
            np.multiply(alpha[i], pre, out=tb)
            tb += lin_p[i]
            tb -= g[i * p + lo + 1:i * p + hi + 1]
            sups += [abs(tb.max()), abs(tb.min())]
    return g, float(np.max(sups))


def solve_fixed_point(
    spec: FifSpec,
    m: int = DEFAULT_RESOLUTION,
    tol: float = DEFAULT_TOL,
    max_iterations: int | None = None,
) -> FifFunction:
    """Fixed point of the branch-map operator on the grid j/m, j = 0..m.

    N-adic refinement runs when the knots equal np.linspace(0, 1, N + 1)
    exactly with N >= 2, m = N^k with k >= 1, and s = max|alpha_i| > 0.
    Every branch pre-image of a grid node is then a grid node, so the fixed
    point is built level by level from the endpoint values in O(m) work with
    no stopping rule; iterations reports k, and the residual is
    sup|T g - g| over the grid with exact pre-images.  tol and
    max_iterations do not apply on this path.

    Otherwise the operator is iterated from the broken-line interpolant.
    The stopping rule converts successive-iterate distance to a residual
    bound via the contraction inequality: once sup|g_{k+1} - g_k| is below
    tol (1 - s) / s, the self-referential residual of the final iterate is
    below tol.  max_iterations caps the iteration budget below the
    contraction-rate estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    depth = _refinement_depth(spec, m) if spec.contraction_factor > 0.0 else None
    if depth is not None:
        g, residual = _refine(spec, m, depth)
        return FifFunction(spec=spec, grid=GridFunction(m, g), residual=residual, iterations=depth)
    xs, apply = _make_applier(spec, m)
    g = np.interp(xs, spec.partition.knots, spec.ys)
    s = spec.contraction_factor
    g_new = apply(g)
    d = float(np.max(np.abs(g_new - g)))
    g = g_new
    iterations = 1
    if s > 0.0 and d > 0.0:
        target = tol * (1.0 - s) / s
        if d > target:
            cap = math.ceil(math.log(target / d) / math.log(s)) + 8
            if max_iterations is not None:
                cap = min(cap, max_iterations)
            while d > target:
                if iterations >= cap:
                    res = float(np.max(np.abs(apply(g) - g)))
                    raise ConvergenceError(
                        f"fixed-point iteration stalled at residual {res:.3e}",
                        residual=res,
                        iterations=iterations,
                    )
                g_new = apply(g)
                d = float(np.max(np.abs(g_new - g)))
                g = g_new
                iterations += 1
    residual = float(np.max(np.abs(apply(g) - g)))
    return FifFunction(spec=spec, grid=GridFunction(m, g), residual=residual, iterations=iterations)


def chaos_game(spec: FifSpec, n_points: int, seed: int) -> np.ndarray:
    """Random-iteration sampling of the attractor (affine branches only).

    Deterministic for a fixed seed: branch choices come from
    numpy.random.default_rng (PCG64).  The first CHAOS_BURN_IN iterates are
    discarded so returned points lie on the attractor to within the
    accumulated contraction factor.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not isinstance(spec.branch, AffineBranch):
        raise ValueError("chaos game supports affine branch specs only")
    rng = np.random.default_rng(seed)
    n = spec.partition.n_intervals
    idx = rng.integers(0, n, size=n_points + CHAOS_BURN_IN)
    slopes, offsets = affine_map_params(spec.partition)
    c, d, al = spec.branch.c, spec.branch.d, spec.alpha
    x = float(spec.partition.knots[0])
    y = float(spec.ys[0])
    pts = np.empty((n_points, 2))
    for t, i in enumerate(idx):
        x, y = slopes[i] * x + offsets[i], c[i] * x + d[i] + al[i] * y
        if t >= CHAOS_BURN_IN:
            pts[t - CHAOS_BURN_IN] = (x, y)
    return pts


# ---------------------------------------------------------------------------
# JSON (de)serialization


def spec_to_json(spec: FifSpec) -> dict:
    out = {
        "knots": spec.partition.knots.tolist(),
        "ys": spec.ys.tolist(),
        "alpha": spec.alpha.tolist(),
    }
    if isinstance(spec.branch, AffineBranch):
        out["branch"] = "affine"
    else:
        out["branch"] = "alpha_fractal"
        out["seed"] = func_to_json(spec.branch.seed)
        out["base"] = func_to_json(spec.branch.base)
    return out


def spec_from_json(obj) -> FifSpec:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "branch" not in obj:
        raise ValueError("spec JSON must be an object with a 'branch' field")
    branch = obj["branch"]
    if branch == "affine":
        return make_affine_spec(obj["knots"], obj["ys"], obj["alpha"])
    if branch == "alpha_fractal":
        seed = func_from_json(obj["seed"])
        base = func_from_json(obj["base"])
        return make_alpha_fractal_spec(obj["knots"], obj["alpha"], seed, base, ys=obj.get("ys"))
    raise ValueError(f"unknown branch kind {branch!r}")
