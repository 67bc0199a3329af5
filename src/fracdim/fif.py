"""Fractal interpolation functions as fixed points of the branch-map operator.

Specs pair a partition with interpolation data, a scale vector, and a branch
family: either affine maps F_i(x, y) = c_i x + d_i + alpha_i y, or the
fractal-perturbation branch F built from a seed function and a base function.
Fixed points are computed on a uniform grid of m intervals.  When the knots
are N >= 2 equal intervals and m = N^k, every branch pre-image of a grid node
is a grid node, and the fixed point follows level by level from the
self-referential equation (N-adic refinement).  Otherwise the operator is
iterated with linear interpolation at branch pre-images, in place in two
buffers, until an iterate's residual is <= tol.  It starts from the fixed
point on a grid 64 times coarser when m allows it, itself iterated from the
broken line, and from the broken line otherwise.

The part of branch i that does not depend on the iterate, lin_i(u) =
seed(x_{i-1} + a_i u) - alpha_i base(u) (c_i u + d_i for affine branches),
has one evaluator, _branch_term, which both solve paths call: the iteration
for one branch's nodes at a time, N-adic refinement for a table of all
branches.  When seed and base are Bernstein polynomials of one order n,
lin_i is itself a Bernstein polynomial of order n in u; the evaluator builds
these N polynomials once and evaluates one per node.  The iteration's data
on a set of nodes, each node's interpolation index, its two weights and its
lin value, have one constructor, _Sweep, which the iterative solve, its
coarse start, rb_apply and self_ref_residual all use.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinFunc, BernsteinPoly, _restrict
from .errors import ConvergenceError
from .functions import Func, GridFunction, Partition, _grid_cell, func_from_json, func_to_json

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
_CHAOS_BLOCK = 1 << 13


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
        # the bounds grow with the ordinates, as the rounding of the
        # coefficients and of the branch functions does
        scale = max(1.0, float(np.max(np.abs(self.ys))))
        if isinstance(self.branch, AffineBranch):
            c, d = self.branch.c, self.branch.d
            if np.max(np.abs(d + self.alpha * self.ys[0] - self.ys[:-1])) > 1e-12 * scale:
                raise ValueError("branch maps violate the left interpolation condition")
            if np.max(np.abs(c + d + self.alpha * self.ys[-1] - self.ys[1:])) > 1e-12 * scale:
                raise ValueError("branch maps violate the right interpolation condition")
        elif isinstance(self.branch, AlphaFractalBranch):
            ends = np.array([0.0, 1.0])
            gap = np.abs(self.branch.base._eval(ends) - self.branch.seed._eval(ends))
            if np.max(gap) > 1e-9 * scale:
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


def _branch_polys(spec: FifSpec) -> list[BernsteinFunc] | None:
    """lin_i(u) = seed(x_{i-1} + a_i u) - alpha_i base(u) as one BernsteinFunc per branch.

    When seed and base are BernsteinFunc of one order n with samples c and
    d, lin_i has the order-n coefficients _restrict(c, x_{i-1}, x_i) -
    alpha_i d, so each node costs one evaluation instead of two.  None for
    every other pair.
    """
    seed, base = spec.branch.seed, spec.branch.base
    if not (isinstance(seed, BernsteinFunc) and isinstance(base, BernsteinFunc)
            and seed.poly.order == base.poly.order):
        return None
    c, d, knots = seed.poly.samples, base.poly.samples, spec.partition.knots
    return [BernsteinFunc(BernsteinPoly(seed.poly.order, _restrict(c, knots[i], knots[i + 1]) - a * d))
            for i, a in enumerate(spec.alpha)]


def _branch_term(spec: FifSpec):
    """term(rows, u, x): lin_i(u) = seed(x_{i-1} + a_i u) - alpha_i base(u), one row per branch i in the slice rows.

    u holds branch-local points and x the nodes x_{i-1} + a_i u, per row or
    broadcast to the rows; only a general pair reads x.  Affine branches
    give c_i u + d_i (multiply, then add), a Bernstein pair one polynomial
    per branch (_branch_polys), and any other pair seed(x) - alpha_i base(u).
    """
    if isinstance(spec.branch, AffineBranch):
        c, d = spec.branch.c, spec.branch.d

        def term(rows: slice, u: np.ndarray, x) -> np.ndarray:
            out = c[rows, None] * u
            out += d[rows, None]
            return out
    elif (polys := _branch_polys(spec)) is not None:

        def term(rows: slice, u: np.ndarray, x) -> np.ndarray:
            return np.stack([poly._eval(u) for poly in polys[rows]])
    else:
        seed, base, alpha = spec.branch.seed, spec.branch.base, spec.alpha

        def term(rows: slice, u: np.ndarray, x) -> np.ndarray:
            return seed._eval(x) - alpha[rows, None] * base._eval(u)
    return term


class _Sweep:
    """One application of the operator on the nodes xs, g(u) interpolated linearly between nodes.

    The one constructor of the operator's iterate-free data on m + 1 evenly
    spaced nodes xs from 0 to 1.  Node x of branch i has the pre-image
    u = (x - x_{i-1}) / a_i in [0, 1], which gives the interpolation index
    i0, the weights w0 = alpha_i (1 - frac) and w1 = alpha_i frac, and
    lin = lin_i(u), the part of the branch map that does not depend on the
    iterate.  The nodes of a branch are contiguous, so the arrays are filled
    one branch at a time and u lives only for its branch.  A lin passed in
    is kept, and then no branch function is evaluated.  Each call writes
    w0 g[i0] + w1 g[i0 + 1] + lin into a caller's buffer with the same
    operations in the same order, so the output is bitwise equal to that
    expression evaluated with temporaries.  g[i0 + 1] is read as g[1:] at
    i0, which _grid_cell keeps in range by capping i0 at m - 1.
    """

    def __init__(self, spec: FifSpec, xs: np.ndarray, lin: np.ndarray | None = None):
        m = xs.size - 1
        knots, lengths, alpha = spec.partition.knots, spec.partition.lengths, spec.alpha
        term = _branch_term(spec) if lin is None else None
        self.lin = np.empty(m + 1) if lin is None else lin
        self.i0, self.w0, self.w1 = np.empty(m + 1, dtype=np.int64), np.empty(m + 1), np.empty(m + 1)
        # branch k holds the nodes in (x_k, x_{k+1}]: interior knots belong to
        # their left branch, and x = 0 belongs to branch 0
        bounds = np.searchsorted(xs, knots, side="right")
        bounds[0] = 0
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            u = np.clip((xs[lo:hi] - knots[k]) / lengths[k], 0.0, 1.0)
            if term is not None:
                self.lin[lo:hi] = term(slice(k, k + 1), u, xs[lo:hi])[0]
            # _grid_cell writes i0 into its slice and frac over the positions in w1
            w0, w1 = self.w0[lo:hi], self.w1[lo:hi]
            _grid_cell(np.multiply(u, m, out=w1), m, self.i0[lo:hi])
            np.subtract(1.0, w1, out=w0)
            w0 *= alpha[k]
            w1 *= alpha[k]
        self.tmp = np.empty(m + 1)

    def __call__(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.take(g, self.i0, out=out, mode="clip")
        out *= self.w0
        tmp = np.take(g[1:], self.i0, out=self.tmp, mode="clip")
        tmp *= self.w1
        out += tmp
        out += self.lin
        return out

    def step(self, g: np.ndarray, out: np.ndarray) -> float:
        """Write T g into out and return sup |T g - g|."""
        t = np.subtract(self(g, out), g, out=self.tmp)
        # abs turns an all-zero difference's -0.0 into +0.0
        return abs(max(float(t.max()), -float(t.min())))


def _sweep_on(spec: FifSpec, g: GridFunction) -> _Sweep:
    if g.partition is not None:
        raise ValueError("the branch-map operator needs samples on the uniform grid j/m, not on a partition's knots")
    return _Sweep(spec, g.xs)


def rb_apply(spec: FifSpec, g: GridFunction) -> GridFunction:
    """One application of the branch-map operator to samples on the uniform grid j/m."""
    return GridFunction(g.m, _sweep_on(spec, g)(g.values, np.empty(g.m + 1)))


def self_ref_residual(spec: FifSpec, g: GridFunction) -> float:
    """Sup over the uniform grid j/m of |g - T g|, with g(u) interpolated linearly between nodes.

    Pre-images are located as u * m in floating point.  On a uniform
    partition with N a power of two they land on grid nodes exactly; for
    other N they sit about m * eps off a node, so on a refined grid this can
    report up to about 4 m eps times the grid's scale where the grid has no
    such error.  FifFunction.residual from N-adic refinement is taken with
    exact pre-images instead.
    """
    return _sweep_on(spec, g).step(g.values, np.empty(g.m + 1))


@dataclass(eq=False)
class FifFunction(GridFunction):
    """Converged fixed point of a spec on the grid j/m, plus how it was solved."""

    spec: FifSpec
    residual: float
    iterations: int

    grid = property(lambda self: self, doc="The fixed point itself, also read as fif.grid.")


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

    Iterated from the interpolation ordinate y until it settles: a settled
    end satisfies its equation bit for bit, so the refined residual is 0.0.
    A start that has not settled after 64 steps is replaced by the closed
    form, which need not.  N-adic refinement holds both ends at
    these values, so such an end shows in the residual as its own
    equation's error and nowhere else.
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

    One rule: both ends are fixed, and every other node is written once per
    level from its pre-image.  The end values come from _settle_end; node 0
    is never rewritten, and the right end, which a level's last row writes
    as lin_end + alpha_N g_{k-1}[p_k], is set back after each level.  So
    every level nests in the next, g_k[N r] == g_{k-1}[r] for every r, by
    induction over levels: the ends hold their values, and level k writes
    node N r from pre-image r'' = N r - i p_k, while level k - 1 wrote node
    r from r'' / N, on the same branch, with the same lin double (affine
    branches: the same quotient, below; table branches: the same entry) and,
    by the induction, the same pre-image value.  At the last level every
    other node was written as alpha_i g[N r] + lin(i, r / p), which is its
    operator value exactly, so the residual is the larger of the two end
    equations' errors, each rounded as a row write rounds (multiply, then
    add): 0.0 when both end values satisfy their equations bit for bit.

    Affine branches take u = r / p_k per block from a ramp of integers built
    once: ramp + lo is the exact integer r, and r / p_k and (r p / p_k) / p
    round the same quotient, so u is the same double on every level.  When
    p_k is a power of two, 1 / p_k is exact and so is r * (1 / p_k), which
    is then that quotient; other p_k (N = 3, 5) divide.
    """
    n = spec.partition.n_intervals
    alpha = spec.alpha
    p = m // n
    term = _branch_term(spec)
    if isinstance(spec.branch, AffineBranch):
        ramp = np.arange(min(p, _REFINE_BLOCK) + 1, dtype=float)

        def lin_block(lo: int, hi: int, pk: int) -> np.ndarray:
            """lin[i, r] for r = lo..hi-1 on p_k intervals per branch, shape (N, hi - lo)."""
            u = ramp[:hi - lo] + lo
            if pk & (pk - 1) == 0:
                u *= 1.0 / pk
            else:
                u /= pk
            return term(slice(0, n), u, None)
    else:
        # row i holds the nodes i*p .. (i + 1)*p of branch i
        xs = np.lib.stride_tricks.sliding_window_view(np.linspace(0.0, 1.0, m + 1), p + 1)[::p]
        lin = term(slice(0, n), np.arange(p + 1, dtype=float) / p, xs)

        def lin_block(lo: int, hi: int, pk: int) -> np.ndarray:
            step = p // pk
            return lin[:, step * lo:step * (hi - 1) + 1:step]

    g = np.empty(m + 1)
    lin_start = lin_block(0, 1, 1)[0, 0]
    g[0] = _settle_end(lin_start, alpha[0], spec.ys[0])
    lin_end = lin_block(1, 2, 1)[-1, 0]
    g[1] = end = _settle_end(lin_end, alpha[-1], spec.ys[-1])
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
        g[pk] = end
    residual = max(abs(lin_start + alpha[0] * g[0] - g[0]), abs(lin_end + alpha[-1] * end - end))
    return g, float(residual)


def _iterate(sweep: _Sweep, g: np.ndarray, tol: float):
    """Sweep from g until the iterate's residual sup|T g - g| is <= tol or does not fall.

    Each sweep measures the current iterate's residual; in exact arithmetic
    it is at most max|alpha_i| times the one before, so one that does not
    fall is the rounding floor.  Two buffers take turns, so no sweep allocates.  Returns
    the iterate, the sweeps applied to reach it, and its residual.
    """
    out = np.empty_like(g)
    iterations, last = 0, math.inf
    while True:
        residual = sweep.step(g, out)
        if residual <= tol or not residual < last:  # a NaN residual stops too
            return g, iterations, residual
        g, out, last = out, g, residual
        iterations += 1


# the iteration starts from the fixed point on m / COARSE intervals when
# COARSE divides m and m / COARSE >= COARSE_MIN
COARSE = 64
COARSE_MIN = 16


def _start(spec: FifSpec, lin: np.ndarray, tol: float) -> np.ndarray:
    """Start of the iteration on the grid j/m: one coarse solve, or the broken line.

    lin is the fine sweep's.  The coarse sweep is built on every COARSE-th
    node of np.linspace(0, 1, m + 1), the fine nodes' own doubles, and is
    handed lin[::COARSE], so it evaluates no branch function again.  It iterates from the broken line
    until its residual is <= tol and is interpolated linearly onto the grid
    as a GridFunction on its nodes.  It never raises: if it stalls above
    tol, its last iterate is the start.
    """
    m = lin.size - 1
    xs = np.linspace(0.0, 1.0, m + 1)
    broken_line = GridFunction.on_knots(spec.partition.knots, spec.ys)
    if m % COARSE or m // COARSE < COARSE_MIN:
        return broken_line._eval(xs)
    xs_c = xs[::COARSE]
    g_c = _iterate(_Sweep(spec, xs_c, lin[::COARSE]), broken_line._eval(xs_c), tol)[0]
    return GridFunction.on_knots(xs_c, g_c)._eval(xs)


def solve_fixed_point(spec: FifSpec, m: int = DEFAULT_RESOLUTION, tol: float = DEFAULT_TOL) -> FifFunction:
    """Fixed point of the branch-map operator on the grid j/m, j = 0..m.

    N-adic refinement runs when the knots equal np.linspace(0, 1, N + 1)
    exactly with N >= 2, m = N^k with k >= 1, and s = max|alpha_i| > 0.
    Every branch pre-image of a grid node is then a grid node, so the fixed
    point is built level by level in O(m) work with no stopping rule: both
    ends are fixed at the values that solve their own equations (see
    _settle_end), and every other node is written once per level from its
    pre-image, so each level is every N-th node of the next.  iterations
    reports k, and the residual is sup|T g - g| over the grid with exact
    pre-images, which is the larger of the two end equations' errors: 0.0
    when both end values satisfy their equations bit for bit, a few ulps
    otherwise (see _refine).  tol does not apply on this path.

    Otherwise the operator is iterated on data built once by _Sweep, from
    the fixed point on m / 64 intervals when COARSE = 64 divides m and
    m / 64 >= 16 (iterated to tol on every 64th node from the broken line,
    with every 64th lin value of the fine data, so 2^16 starts from 2^10),
    interpolated linearly, and from the broken-line interpolant for any
    other m.  The iteration holds seven grids of m + 1 values: the sweep's
    i0, w0, w1, lin and scratch buffer, and two iterates.  It returns the
    first iterate whose residual sup|T g - g| is <= tol: residual equals
    self_ref_residual of the returned grid, which lies within tol / (1 - s)
    of the iteration's fixed point.  iterations counts the sweeps applied on
    the m-interval grid to reach it, 0 when the start meets tol.  A residual that does not fall below the one
    before, the rounding floor above tol, raises ConvergenceError.
    A tol that is not positive and finite, or an m below 1, raises
    ValueError on both paths.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if m < 1:
        raise ValueError("resolution must be >= 1")
    depth = _refinement_depth(spec, m) if spec.contraction_factor > 0.0 else None
    if depth is not None:
        g, residual = _refine(spec, m, depth)
        return FifFunction(m, g, spec=spec, residual=residual, iterations=depth)
    sweep = _Sweep(spec, np.linspace(0.0, 1.0, m + 1))
    g, iterations, residual = _iterate(sweep, _start(spec, sweep.lin, tol), tol)
    if not residual <= tol:
        raise ConvergenceError(
            f"fixed-point iteration stalled at residual {residual:.3e}",
            residual=residual,
            iterations=iterations,
        )
    return FifFunction(m, g, spec=spec, residual=residual, iterations=iterations)


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
    # Python floats are IEEE doubles, so the points are the doubles that
    # float64 scalars would give, without numpy's per-scalar overhead
    maps = list(zip(slopes.tolist(), offsets.tolist(), spec.branch.c.tolist(),
                    spec.branch.d.tolist(), spec.alpha.tolist()))
    x = float(spec.partition.knots[0])
    y = float(spec.ys[0])
    pts = array("d")
    # a block of indices at a time keeps the list of Python ints small
    for lo in range(0, idx.size, _CHAOS_BLOCK):
        for i in idx[lo:lo + _CHAOS_BLOCK].tolist():
            a, b, c, d, al = maps[i]
            x, y = a * x + b, c * x + d + al * y
            pts.append(x)
            pts.append(y)
    del pts[:2 * CHAOS_BURN_IN]
    return np.frombuffer(pts, dtype=float).reshape(n_points, 2)


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
    try:
        if branch == "affine":
            return make_affine_spec(obj["knots"], obj["ys"], obj["alpha"])
        if branch == "alpha_fractal":
            seed = func_from_json(obj["seed"])
            base = func_from_json(obj["base"])
            return make_alpha_fractal_spec(obj["knots"], obj["alpha"], seed, base, ys=obj.get("ys"))
    except KeyError as exc:
        raise ValueError(f"{branch!r} spec JSON is missing the field {exc}") from exc
    except TypeError as exc:  # a field of the wrong JSON type, such as an object for a list
        raise ValueError(f"{branch!r} spec JSON has a field of the wrong type: {exc}") from exc
    raise ValueError(f"unknown branch kind {branch!r}")
