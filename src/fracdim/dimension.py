"""Closed-form graph-dimension predictors and empirical box counting.

The predictor solves sum |alpha_i| a_i^(D-1) = 1 by bisection; the left side
is strictly decreasing in D on [1, 2] because every interval length a_i is
below one, and it brackets 1 there whenever sum |alpha_i| > 1.  The
empirical side counts mesh cells met by the sampled graph and regresses
log2 counts against the scale exponent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, HypothesisError, ScaleError
from .functions import GridFunction

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
        return {
            "predicted": self.predicted,
            "predicted_kind": self.predicted_kind,
            "estimated": self.estimated,
            "raw_slope": self.raw_slope,
            "slope_stderr": self.slope_stderr,
            "r_squared": self.r_squared,
            "scales_used": [[d, int(c)] for d, c in self.scales_used],
            "diagnostic": self.diagnostic,
        }

    def scales_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("j,delta,count\n")
            for delta, count in self.scales_used:
                j = int(round(-np.log2(delta)))
                fh.write(f"{j},{delta:.17g},{int(count)}\n")


@dataclass(eq=False)
class DataSet:
    """Interpolation points with increasing abscissae spanning [0, 1]."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 3:
            raise ValueError("need at least 3 data points")
        if self.ys.shape != self.xs.shape:
            raise ValueError("xs and ys must have equal length")
        if self.xs[0] != 0.0 or self.xs[-1] != 1.0:
            raise ValueError("abscissae must span [0, 1]")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("abscissae must be strictly increasing")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("data must be finite")

    @classmethod
    def from_points(cls, points) -> "DataSet":
        arr = np.asarray(points, dtype=float)
        return cls(arr[:, 0], arr[:, 1])


def collinear(data: DataSet, tol: float = COLLINEAR_TOL) -> bool:
    """True iff every point is within vertical distance tol of the end chord."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    chord = data.ys[0] + (data.ys[-1] - data.ys[0]) * data.xs
    return bool(np.max(np.abs(data.ys - chord)) <= tol)


def _scale_factors(alpha) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("scale factors must be finite")
    return alpha


def dimension_equation_root(lengths, alpha) -> float:
    """Unique D in (1, 2) solving sum |alpha_i| a_i^(D-1) = 1, by bisection."""
    lengths = np.asarray(lengths, dtype=float)
    alpha = np.abs(_scale_factors(alpha))
    if lengths.shape != alpha.shape:
        raise ValueError("lengths and alpha must have equal length")
    if not np.all((lengths > 0) & (lengths < 1)):  # also rejects NaN
        raise ValueError("interval lengths must lie in (0, 1)")
    if abs(lengths.sum() - 1.0) > 1e-9:
        raise ValueError("interval lengths must sum to 1")
    if alpha.sum() <= 1.0:
        raise HypothesisError("sum |alpha_i| must exceed 1 (otherwise the dimension is 1)")

    def phi(d):
        return float(np.sum(alpha * lengths ** (d - 1.0)))

    lo, hi = 1.0, 2.0
    mid = 1.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        res = phi(mid) - 1.0
        if abs(res) <= ROOT_RESIDUAL_TOL:
            return mid
        if res > 0:  # phi decreasing: still above 1 means root lies right
            lo = mid
        else:
            hi = mid
    return mid


def predict_box_dim(data: DataSet, alpha) -> DimReport:
    """Closed-form box dimension of the affine interpolant's graph.

    Degenerates to 1 when sum |alpha_i| <= 1; refuses to predict (with a
    diagnostic) when the data are collinear, since the theorem hypothesis
    fails there.
    """
    alpha = _scale_factors(alpha)
    if np.any(np.abs(alpha) >= 1.0):
        raise ValueError("scale factors must satisfy |alpha_i| < 1")
    lengths = np.diff(data.xs)
    if alpha.shape != lengths.shape:
        raise ValueError("alpha length must equal interval count")
    if np.sum(np.abs(alpha)) <= 1.0:
        return DimReport(predicted=1.0, predicted_kind="degenerate_one")
    if collinear(data):
        return DimReport(
            predicted=None,
            diagnostic="data points are collinear; the box-dimension formula does not apply",
        )
    return DimReport(predicted=dimension_equation_root(lengths, alpha), predicted_kind="box")


def hausdorff_condition(data: DataSet, alpha, tol: float = CONDITION_TOL) -> bool:
    """True iff two branch quotients differ by more than tol."""
    alpha = np.asarray(alpha, dtype=float)
    dy = np.diff(data.ys)
    dx = np.diff(data.xs)
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
    alpha = _scale_factors(alpha)
    if np.any(np.abs(alpha) >= 1.0):
        raise ValueError("scale factors must satisfy |alpha_i| < 1")
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
    lengths = np.diff(data.xs)
    return DimReport(
        predicted=dimension_equation_root(lengths, alpha), predicted_kind="hausdorff"
    )


def box_count(g: GridFunction, j: int) -> int:
    """Cells of the 2^-j mesh met by the sampled graph.

    Per column the vertical extent is the interval [min, max] of the samples
    there (continuity makes the column image an interval), so the count is
    floor(max/delta) - floor(min/delta) + 1.
    """
    if j < 0:
        raise ValueError("scale exponent must be nonnegative")
    n_cols = 1 << j
    delta = 1.0 / n_cols
    if 2.0 / g.m > delta:
        raise ScaleError(
            f"scale 2^-{j} needs at least 2 samples per column but resolution is {g.m}"
        )
    vals = g.values
    # column k holds samples lo_k = floor(k m / 2^j) .. hi_k = ceil((k + 1) m / 2^j):
    # reduce over [lo_k, lo_(k+1)), then fold in samples lo_(k+1) and hi_k
    k = np.arange(n_cols + 1, dtype=np.int64)
    lo = k * g.m // n_cols
    hi = -(-(k[1:] * g.m) // n_cols)
    cmax = np.maximum(np.maximum.reduceat(vals, lo[:-1]), np.maximum(vals[lo[1:]], vals[hi]))
    cmin = np.minimum(np.minimum.reduceat(vals, lo[:-1]), np.minimum(vals[lo[1:]], vals[hi]))
    counts = np.floor(cmax / delta) - np.floor(cmin / delta) + 1.0
    return int(counts.sum())


def estimate_box_dim(
    g: GridFunction, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> DimReport:
    """Least-squares slope of log2 N_delta against j over [j_min, j_max].

    The summary estimate is clamped to [1, 2] (graph dimensions of continuous
    functions live there); the raw slope is preserved for diagnostics.
    """
    if j_max - j_min < 2:
        raise ValueError("need at least 3 scales for a regression")
    js = np.arange(j_min, j_max + 1)
    counts = np.array([box_count(g, int(j)) for j in js], dtype=float)
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
