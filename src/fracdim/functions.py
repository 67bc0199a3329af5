"""Continuous functions on [0, 1]: representations, sampling, grid norms.

Functions are small composable objects that evaluate vectorized over numpy
arrays.  All sup-norms and Lipschitz constants computed here are grid
estimates and therefore *lower bounds* on the true suprema; the rough
functions this package produces can be nowhere differentiable, so exact sup
computations are unavailable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Func",
    "Polynomial",
    "WeierstrassSeries",
    "Sum",
    "Scaled",
    "Shifted",
    "AntiDerivative",
    "Partition",
    "GridFunction",
    "sample",
    "sup_norm_diff",
    "lipschitz_estimate",
    "func_from_json",
    "func_to_json",
    "write_xy_csv",
]

# Round-off slack for domain checks; callers that map points through branch
# inverses can land a few ulps outside [0, 1].
_X_SLACK = 1e-9

DEFAULT_QUADRATURE_PANELS = 2 ** 16
WEIERSTRASS_TAIL_BOUND = 1e-12


def _check_domain(x):
    arr = np.asarray(x, dtype=float)
    if arr.size:
        lo = float(arr.min())
        hi = float(arr.max())
        if math.isnan(lo):  # min propagates NaN
            raise DomainError("evaluation point is NaN")
        if lo < -_X_SLACK or hi > 1.0 + _X_SLACK:
            bad = lo if lo < -_X_SLACK else hi
            raise DomainError(f"evaluation point {bad!r} outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _evaluate_checked(evaluate, x):
    """evaluate(points) at x after the domain check; a float for scalar x."""
    out = evaluate(np.atleast_1d(_check_domain(x)))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


class Func:
    """Base class for evaluable real functions on [0, 1]."""

    def _eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        return _evaluate_checked(self._eval, x)


class Polynomial(Func):
    """Polynomial with coefficients in ascending degree order."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        self.coeffs = coeffs

    def _eval(self, x):
        # Horner's rule in place, in polyval's order: c[-1] + x*0 starts it
        # (so -0.0 and +0.0 come out as polyval gives them), then
        # c[k] + out*x for each lower k
        out = x * 0.0
        out += self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            out *= x
            out += c
        return out


def _whole(value, name: str) -> int:
    """value as an int; ValueError unless it is integral, as 8 and 8.0 are."""
    if isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _weierstrass_terms(a: float) -> int:
    """Smallest K >= 0 with a^(K+1) / (1 - a) below the tail bound.

    K + 1 > log(bound (1 - a)) / log(a) gives K to within rounding; the
    tail test itself then settles it, so K is the one a search from 0 finds.
    """
    def above(k):
        return a ** (k + 1) / (1.0 - a) >= WEIERSTRASS_TAIL_BOUND

    k = max(0, math.floor(math.log(WEIERSTRASS_TAIL_BOUND * (1.0 - a)) / math.log(a)))
    while k > 0 and not above(k - 1):
        k -= 1
    while above(k):
        k += 1
    return k


class WeierstrassSeries(Func):
    """Truncated cosine series sum_{k=0}^{K} a^k cos(b^k pi x).

    With a*b > 1 the (untruncated) graph is rough and serves as a
    box-dimension anchor; that condition is not enforced here.
    """

    def __init__(self, a, b, k_max=None):
        if not 0.0 < a < 1.0:
            raise ValueError("amplitude base a must lie in (0, 1)")
        if not 1.0 < b < math.inf:
            raise ValueError("frequency base b must be finite and exceed 1")
        self.a = float(a)
        self.b = float(b)
        self.k_max = _weierstrass_terms(self.a) if k_max is None else _whole(k_max, "k_max")
        if self.k_max < 0:
            raise ValueError("k_max must be nonnegative")
        try:
            top = self.b ** self.k_max * math.pi
        except OverflowError:
            top = math.inf
        if top == math.inf:
            raise ValueError("k_max too large: the top frequency b^k_max pi must be a finite double")

    def _eval(self, x):
        out = np.zeros_like(x)
        for k in range(self.k_max + 1):
            out += self.a ** k * np.cos(self.b ** k * np.pi * x)
        return out


@dataclass(eq=False)
class Partition:
    """Strictly increasing knots 0 = x_0 < ... < x_N = 1."""

    knots: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        if self.knots.ndim != 1 or self.knots.size < 2:
            raise ValueError("a partition needs at least two knots")
        if self.knots[0] != 0.0 or self.knots[-1] != 1.0:
            raise ValueError("partition must start at 0 and end at 1")
        if not np.all(np.diff(self.knots) > 0):
            raise ValueError("knots must be strictly increasing")

    @property
    def n_intervals(self) -> int:
        return self.knots.size - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.knots)


def _grid_cell(pos: np.ndarray, m: int, i0: np.ndarray | None = None):
    """Left node i0 and weight frac of the right node for positions pos in [0, m].

    frac is written over pos, and i0 into the given int64 array if there is one.
    """
    i0 = np.minimum(pos.astype(np.int64), m - 1, out=i0)
    pos -= i0
    return i0, pos


@dataclass(eq=False)
class GridFunction(Func):
    """Samples values[j] at sorted nodes xs[j], j = 0..m, linear in between.

    The nodes are the uniform grid j/m, built only when xs is read, or the
    knots of a partition when the function is built by on_knots.
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        self.m = int(self.m)
        if self.m < 1:
            raise ValueError("resolution must be >= 1")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.m + 1,):
            raise ValueError(
                f"expected {self.m + 1} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        self.partition = None

    @classmethod
    def on_knots(cls, knots, values) -> "GridFunction":
        """Broken line through (knots[j], values[j]), evaluated with np.interp."""
        out = cls(len(knots) - 1, values)
        out.partition = Partition(knots)
        return out

    @property
    def xs(self) -> np.ndarray:
        if self.partition is not None:
            return self.partition.knots
        return np.linspace(0.0, 1.0, self.m + 1)

    def _eval(self, x):
        if self.partition is not None:
            return np.interp(x, self.partition.knots, self.values)
        i0, frac = _grid_cell(np.clip(x, 0.0, 1.0) * self.m, self.m)
        return self.values[i0] * (1.0 - frac) + self.values[i0 + 1] * frac

    def to_csv(self, path) -> None:
        write_xy_csv(path, self.xs, self.values)

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read an x,y CSV whose x column is the uniform grid j/m, j = 0..m."""
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # rejected below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 or data.shape[0] < 2:
            raise ValueError(f"expected two columns x,y and at least two rows, got shape {data.shape}")
        xs = np.linspace(0.0, 1.0, data.shape[0])
        if not np.all(np.abs(data[:, 0] - xs) <= 1e-12):
            raise ValueError("x column must be the uniform grid j/m, j = 0..m, in order")
        return cls(data.shape[0] - 1, data[:, 1])


class Sum(Func):
    def __init__(self, f: Func, g: Func):
        self.f = f
        self.g = g

    def _eval(self, x):
        return self.f._eval(x) + self.g._eval(x)


class Scaled(Func):
    def __init__(self, factor: float, inner: Func):
        self.factor = float(factor)
        if not math.isfinite(self.factor):
            raise ValueError("factor must be finite")
        self.inner = inner

    def _eval(self, x):
        return self.factor * self.inner._eval(x)


class Shifted(Func):
    """Vertical shift: evaluates to inner(x) + offset."""

    def __init__(self, offset: float, inner: Func):
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        self.inner = inner

    def _eval(self, x):
        return self.inner._eval(x) + self.offset


class AntiDerivative(GridFunction):
    """Cumulative integral from 0, via composite trapezoid on a fixed grid.

    The cumulative table on panels + 1 nodes is built on construction, and
    values between nodes come from linear interpolation of that table; the
    O(m^-2) quadrature error is adequate for continuous integrands.
    """

    def __init__(self, inner: Func, panels: int = DEFAULT_QUADRATURE_PANELS):
        self.inner = inner
        self.panels = _whole(panels, "panels")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        ys = sample(inner, self.panels).values
        h = 1.0 / self.panels
        cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (ys[1:] + ys[:-1]))))
        super().__init__(self.panels, cum)


def sample(f: Func, m: int) -> GridFunction:
    """Sample f on the uniform grid j/m, j = 0..m."""
    if m < 1:
        raise ValueError("resolution must be >= 1")
    xs = np.linspace(0.0, 1.0, m + 1)
    return GridFunction(m, f._eval(xs))


def sup_norm_diff(f: Func, g: Func, m: int = 4096) -> float:
    """Grid estimate of ||f - g||_inf over j/m nodes (a lower bound)."""
    if m < 1:
        raise ValueError("grid must have at least one panel")
    xs = np.linspace(0.0, 1.0, m + 1)
    return float(np.max(np.abs(f._eval(xs) - g._eval(xs))))


def lipschitz_estimate(f: Func, m: int) -> float:
    """Max slope over adjacent grid nodes; a lower bound on Lip(f)."""
    if m < 2:
        raise ValueError("need at least two panels")
    xs = np.linspace(0.0, 1.0, m + 1)
    ys = f._eval(xs)
    return float(np.max(np.abs(np.diff(ys))) * m)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def func_to_json(f: Func) -> dict:
    if isinstance(f, Polynomial):
        return {"kind": "polynomial", "coeffs": f.coeffs.tolist()}
    if isinstance(f, WeierstrassSeries):
        return {"kind": "weierstrass", "a": f.a, "b": f.b, "K": f.k_max}
    if isinstance(f, AntiDerivative):
        return {"kind": "antiderivative", "inner": func_to_json(f.inner), "panels": f.panels}
    if isinstance(f, GridFunction):
        if f.partition is None:
            return {"kind": "grid", "values": f.values.tolist()}
        return {"kind": "piecewise_linear", "knots": f.partition.knots.tolist(), "values": f.values.tolist()}
    if isinstance(f, Sum):
        return {"kind": "sum", "terms": [func_to_json(f.f), func_to_json(f.g)]}
    if isinstance(f, Scaled):
        return {"kind": "scaled", "factor": f.factor, "inner": func_to_json(f.inner)}
    if isinstance(f, Shifted):
        return {"kind": "shifted", "offset": f.offset, "inner": func_to_json(f.inner)}
    raise ValueError(f"cannot serialize function of type {type(f).__name__}")


def func_from_json(obj) -> Func:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("function JSON must be an object with a 'kind' field")
    try:
        return _func_from_obj(obj)
    except TypeError as exc:  # a field of the wrong JSON type, such as null for a number
        raise ValueError(f"{obj['kind']!r} function JSON has a field of the wrong type: {exc}") from exc


def _func_from_obj(obj: dict) -> Func:
    kind = obj["kind"]
    if kind == "polynomial":
        return Polynomial(obj["coeffs"])
    if kind == "weierstrass":
        return WeierstrassSeries(obj["a"], obj["b"], obj.get("K"))
    if kind == "piecewise_linear":
        return GridFunction.on_knots(obj["knots"], obj["values"])
    if kind == "grid":
        values = np.asarray(obj["values"], dtype=float)
        return GridFunction(values.size - 1, values)
    if kind == "sum":
        terms = [func_from_json(t) for t in obj["terms"]]
        if len(terms) < 2:
            raise ValueError("sum needs at least two terms")
        out = terms[0]
        for t in terms[1:]:
            out = Sum(out, t)
        return out
    if kind == "scaled":
        return Scaled(obj["factor"], func_from_json(obj["inner"]))
    if kind == "shifted":
        return Shifted(obj["offset"], func_from_json(obj["inner"]))
    if kind == "antiderivative":
        return AntiDerivative(func_from_json(obj["inner"]), obj.get("panels", DEFAULT_QUADRATURE_PANELS))
    raise ValueError(f"unknown function kind {kind!r}")


CSV_BLOCK_ROWS = 4096


def write_xy_csv(path, xs, ys) -> None:
    """CSV with header 'x,y' and 17 significant digits."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.shape != ys.shape:
        raise ValueError("xs and ys must have equal length")
    with open(path, "w", newline="") as fh:
        fh.write("x,y\n")
        # one % operation per block of rows gives the digits of a per-row
        # f-string at about half the cost; Python floats exist for one block
        # at a time
        for start in range(0, xs.size, CSV_BLOCK_ROWS):
            block = np.column_stack((xs[start:start + CSV_BLOCK_ROWS], ys[start:start + CSV_BLOCK_ROWS]))
            fh.write("%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
