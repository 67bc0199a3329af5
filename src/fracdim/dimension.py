"""Closed-form graph-dimension predictors and empirical box counting.

The predictor solves sum |alpha_i| a_i^(D-1) = 1 by Newton's method kept
inside a bisection bracket; the left side is strictly decreasing in D on
[1, 2] because every interval length a_i is below one, and it brackets 1
there whenever sum |alpha_i| > 1.  The empirical side counts mesh cells met
by the sampled graph and regresses log2 counts against the scale exponent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, HypothesisError, ScaleError
from .functions import GridFunction, Partition

__all__ = [
    "DimReport",
    "DataSet",
    "collinear",
    "dimension_equation_root",
    "predict_box_dim",
    "hausdorff_condition",
    "predict_hausdorff_dim",
    "box_count",
    "estimate_box_dim",
]

ROOT_RESIDUAL_TOL = 1e-13
COLLINEAR_TOL = 1e-9
CONDITION_TOL = 1e-9
DEFAULT_J_MIN = 4
DEFAULT_J_MAX = 12


@dataclass(eq=False)
class DimReport:
    predicted: float | None = None
    predicted_kind: str | None = None  # box | hausdorff | degenerate_one
    estimated: float | None = None  # regression slope clamped to [1, 2]
    raw_slope: float | None = None
    slope_stderr: float | None = None
    r_squared: float | None = None
    scales_used: list = field(default_factory=list)  # (delta, count) pairs
    diagnostic: str | None = None

    def to_json(self) -> dict:
        return {**asdict(self), "scales_used": [[d, int(c)] for d, c in self.scales_used]}

    def scales_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("j,delta,count\n")
            for delta, count in self.scales_used:
                j = int(round(-np.log2(delta)))
                fh.write(f"{j},{delta:.17g},{int(count)}\n")


@dataclass(eq=False)
class DataSet:
    """At least 3 interpolation points: one finite y per knot of a Partition."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 3:
            raise ValueError("need at least 3 data points")
        self.partition = Partition(self.xs)
        self.ys = self.partition.ordinates(self.ys)

    @classmethod
    def from_points(cls, points) -> "DataSet":
        arr = _floats(points, "data")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"data must be a list of [x, y] pairs, got an array of shape {arr.shape}")
        return cls(arr[:, 0], arr[:, 1])


def collinear(data: DataSet, tol: float = COLLINEAR_TOL) -> bool:
    """True iff every point is within vertical distance tol of the end chord."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    chord = data.ys[0] + (data.ys[-1] - data.ys[0]) * data.xs
    return bool(np.max(np.abs(data.ys - chord)) <= tol)


def _floats(obj, name: str) -> np.ndarray:
    """obj as a float array; ValueError, not TypeError, when it holds anything but numbers."""
    try:
        return np.asarray(obj, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{name} must hold numbers only: {exc}") from exc


def dimension_equation_root(lengths, alpha) -> float:
    """Unique D in (1, 2) solving sum |alpha_i| a_i^(D-1) = 1, by safeguarded Newton.

    phi(D) = sum |alpha_i| a_i^(D-1) is decreasing and convex, so after the
    first step Newton's iterates approach the root from below.  The bracket
    [lo, hi], from [1, 2], shrinks to each iterate's side of the root, and
    a Newton step that would leave it is replaced by the bracket's midpoint.
    Stops once |phi(D) - 1| <= ROOT_RESIDUAL_TOL, from D = 1.5.
    """
    lengths = np.asarray(lengths, dtype=float)
    alpha = np.abs(_floats(alpha, "scale factors"))
    if not np.all(np.isfinite(alpha)):
        raise ValueError("scale factors must be finite")
    if lengths.shape != alpha.shape:
        raise ValueError("lengths and alpha must have equal length")
    if not np.all((lengths > 0) & (lengths < 1)):  # also rejects NaN
        raise ValueError("interval lengths must lie in (0, 1)")
    if abs(lengths.sum() - 1.0) > 1e-9:
        raise ValueError("interval lengths must sum to 1")
    if alpha.sum() <= 1.0:
        raise HypothesisError("sum |alpha_i| must exceed 1 (otherwise the dimension is 1)")
    log_lengths = np.log(lengths)
    lo, hi = 1.0, 2.0
    d = 1.5
    for _ in range(200):
        terms = alpha * lengths ** (d - 1.0)
        res = float(terms.sum()) - 1.0
        if abs(res) <= ROOT_RESIDUAL_TOL:
            break
        if res > 0:  # phi decreasing: still above 1 means the root lies right
            lo = d
        else:
            hi = d
        d -= res / float(terms @ log_lengths)
        if not lo < d < hi:
            d = 0.5 * (lo + hi)
    return d


def predict_box_dim(data: DataSet, alpha) -> DimReport:
    """Closed-form box dimension of the affine interpolant's graph.

    Degenerates to 1 when sum |alpha_i| <= 1; refuses to predict (with a
    diagnostic) when the data are collinear, since the theorem hypothesis
    fails there.
    """
    alpha = data.partition.scale_factors(_floats(alpha, "scale factors"))
    if np.sum(np.abs(alpha)) <= 1.0:
        return DimReport(predicted=1.0, predicted_kind="degenerate_one")
    if collinear(data):
        return DimReport(
            predicted=None,
            diagnostic="data points are collinear; the box-dimension formula does not apply",
        )
    return DimReport(predicted=dimension_equation_root(data.partition.lengths, alpha), predicted_kind="box")


def hausdorff_condition(data: DataSet, alpha, tol: float = CONDITION_TOL) -> bool:
    """True iff two branch quotients differ by more than tol."""
    alpha = data.partition.scale_factors(_floats(alpha, "scale factors"))
    dy = np.diff(data.ys)
    dx = data.partition.lengths
    span = data.ys[-1] - data.ys[0]
    denom = dx - alpha
    if np.any(np.abs(denom) <= tol):
        raise DegenerateDenominatorError(
            "a quotient denominator x_i - x_{i-1} - alpha_i is within tol of zero"
        )
    q = (dy - alpha * span) / denom
    return bool(q.max() - q.min() > tol)


def predict_hausdorff_dim(data: DataSet, alpha) -> DimReport:
    """Hausdorff dimension via the same root, gated on the quotient condition."""
    alpha = data.partition.scale_factors(_floats(alpha, "scale factors"))
    if np.sum(np.abs(alpha)) <= 1.0:
        return DimReport(
            predicted=None,
            diagnostic="hypothesis sum |alpha_i| > 1 fails",
        )
    if not hausdorff_condition(data, alpha):
        return DimReport(
            predicted=None,
            diagnostic="quotient condition fails: all branch quotients coincide",
        )
    return DimReport(
        predicted=dimension_equation_root(data.partition.lengths, alpha), predicted_kind="hausdorff"
    )


def _check_scale(g: GridFunction, j: int) -> None:
    if g.partition is not None:
        raise ValueError("box counting needs samples on the uniform grid j/m, not on a partition's knots")
    if j < 0:
        raise ValueError("scale exponent must be nonnegative")
    if 2.0 / g.m > 1.0 / (1 << j):
        raise ScaleError(
            f"scale 2^-{j} needs at least 2 samples per column but resolution is {g.m}"
        )


def _column_extents(g: GridFunction, j: int):
    """Max and min of the samples in each column of the 2^-j mesh."""
    n_cols = 1 << j
    vals = g.values
    # column k holds samples lo_k = floor(k m / 2^j) .. hi_k = ceil((k + 1) m / 2^j):
    # reduce over [lo_k, lo_(k+1)), then fold in samples lo_(k+1) and hi_k
    k = np.arange(n_cols + 1, dtype=np.int64)
    lo = k * g.m // n_cols
    hi = -(-(k[1:] * g.m) // n_cols)
    cmax = np.maximum(np.maximum.reduceat(vals, lo[:-1]), np.maximum(vals[lo[1:]], vals[hi]))
    cmin = np.minimum(np.minimum.reduceat(vals, lo[:-1]), np.minimum(vals[lo[1:]], vals[hi]))
    return cmax, cmin


def _count(cmax: np.ndarray, cmin: np.ndarray, j: int) -> int:
    delta = 1.0 / (1 << j)
    counts = np.floor(cmax / delta) - np.floor(cmin / delta) + 1.0
    return int(counts.sum())


def box_count(g: GridFunction, j: int) -> int:
    """Cells of the 2^-j mesh met by the sampled graph.

    Per column the vertical extent is the interval [min, max] of the samples
    there (continuity makes the column image an interval), so the count is
    floor(max/delta) - floor(min/delta) + 1.
    """
    _check_scale(g, j)
    return _count(*_column_extents(g, j), j)


def estimate_box_dim(
    g: GridFunction, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> DimReport:
    """Least-squares slope of log2 N_delta against j over [j_min, j_max].

    The grid is reduced once, at j_max.  Column k of the 2^-j mesh spans
    samples floor(k m / 2^j) .. ceil((k + 1) m / 2^j), exactly the union of
    its two children at 2^-(j+1), which touch or overlap; so each coarser
    scale takes its extents by merging adjacent columns, for any m, and its
    count equals box_count(g, j).

    The summary estimate is clamped to [1, 2] (graph dimensions of continuous
    functions live there); the raw slope is preserved for diagnostics.
    """
    if j_max - j_min < 2:
        raise ValueError("need at least 3 scales for a regression")
    js = np.arange(j_min, j_max + 1)
    scales = [int(j) for j in js]
    for j in scales:
        _check_scale(g, j)
    cmax, cmin = _column_extents(g, scales[-1])
    counts = [_count(cmax, cmin, scales[-1])]
    for j in reversed(scales[:-1]):
        cmax = np.maximum(cmax[0::2], cmax[1::2])
        cmin = np.minimum(cmin[0::2], cmin[1::2])
        counts.append(_count(cmax, cmin, j))
    counts = np.array(counts[::-1], dtype=float)
    # least squares in closed form; r and the slope's standard error follow
    # the usual conventions (r clipped to [-1, 1], r = 0 for flat counts)
    dx = js - js.mean()
    logs = np.log2(counts)
    dy = logs - logs.mean()
    sxx, syy, sxy = float(dx @ dx), float(dy @ dy), float(dx @ dy)
    slope = sxy / sxx
    r = 0.0 if syy == 0.0 else min(max(sxy / math.sqrt(sxx * syy), -1.0), 1.0)
    stderr = math.sqrt((1.0 - r * r) * syy / sxx / (js.size - 2))
    return DimReport(
        estimated=min(max(slope, 1.0), 2.0),
        raw_slope=slope,
        slope_stderr=stderr,
        r_squared=r * r,
        scales_used=[(float(2.0 ** -j), int(c)) for j, c in zip(js, counts)],
    )
