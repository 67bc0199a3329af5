"""Bernstein operator, its derivative, and the weighted second modulus.

One evaluator serves every order: Horner's rule in x/(1-x) (Schumaker and
Volk 1986), O(n) per point.  Binomial coefficients are exact integers kept
as mantissa/exponent pairs.  Up to n = 974 every C(n, k) divided by
C(n, n/2) is a normal double, so one Horner pass covers the whole
polynomial and each point ends as p * 2^e * (1-x)^n, with an exact scalar
2^e and one np.power.  Only above that, where the binomials leave the
double range, is the accumulator renormalised every 32 coefficients and
(1-x)^n applied in the log domain, so orders in the thousands neither
overflow nor underflow; exponents there are passed to np.ldexp as C ints
(np.intc), because numpy's ldexp loop for int64 exponents is about ten
times slower.  The chord through the end coefficients is taken out first
and added back exactly, which keeps affine data exact.  Points run in
chunks of 8192: a chunk wholly on one side of 1/2 is evaluated on its
slice, and only a chunk with points on both sides is split by masks, so
sorted points are gathered and scattered only around 1/2.  `_restrict`
re-expresses a polynomial on a subinterval by de Casteljau subdivision, so
p(a + (b - a) u) is again one set of Bernstein coefficients in u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .functions import Func, _evaluate_checked, sup_norm_diff

__all__ = [
    "BernsteinPoly",
    "bernstein_build",
    "bernstein_eval",
    "bernstein_derivative_eval",
    "BernsteinFunc",
    "modulus_smoothness",
    "totik_error_report",
    "TotikReport",
]

DEFAULT_MODULUS_GRID_T = 64
DEFAULT_MODULUS_GRID_X = 4096
_BLOCK = 32  # coefficients between renormalisations of the accumulator
# largest exponent of 2 a binomial may have for one unrenormalised block: the
# smallest scaled binomial, 2^-e, must stay normal with 53 bits to spare
_ONE_BLOCK_EXP = -np.finfo(float).minexp - (np.finfo(float).nmant + 1)
_CHUNK = 8192  # points per pass; keeps the Horner operands in cache
_T_BLOCK = 4  # modulus steps t per evaluation of f; 8 push the temporaries out of L2


@dataclass(eq=False)
class BernsteinPoly:
    """Order n plus the samples f(k/n), k = 0..n."""

    order: int
    samples: np.ndarray

    def __post_init__(self):
        self.order = int(self.order)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.order + 1,):
            raise ValueError("need order + 1 samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")


def bernstein_build(f: Func, n: int) -> BernsteinPoly:
    if n < 1:
        raise ValueError("order must be >= 1")
    nodes = np.linspace(0.0, 1.0, n + 1)
    return BernsteinPoly(n, f._eval(nodes))


@functools.lru_cache(maxsize=8)
def _binomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C(n, k), k = 0..n, as mantissas in [1/2, 1) and integer exponents.

    The integers are exact; as doubles they overflow near n = 1030, the
    mantissa/exponent pairs never do.
    """
    mant = np.empty(n + 1)
    expo = np.empty(n + 1, dtype=np.intc)
    c = 1
    for k in range(n + 1):
        e = c.bit_length()
        mant[k] = c / (1 << e)  # int / int rounds correctly
        expo[k] = e
        c = c * (n - k) // (k + 1)
    return mant, expo


def _half_sum(a: np.ndarray):
    """h(y) = sum_k a[k] C(n,k) y^k (1-y)^(n-k) for arrays y in [0, 1/2], with |a| <= 1.

    Horner's rule in t = y/(1-y) <= 1 over a[n], ..., a[0], times (1-y)^n
    at the end.  Each block of coefficients is scaled by the power of two of
    its largest binomial.  While C(n, n/2) has at most _ONE_BLOCK_EXP bits,
    all n + 1 coefficients form one block, the Horner sum p is at most n + 1
    in size, and each point ends as p * 2^e * (1-y)^n: 2^e is an exact
    scalar and (1-y)^n one np.power, at least 2^-974.  Above that the
    coefficients run in blocks of _BLOCK; between blocks the accumulator is
    a mantissa in [1/2, 1) and a per-point exponent, and the factor (1-y)^n
    is applied in the log domain, so neither binomials of size 2^n nor
    powers t^n leave the double range.  Every operation is elementwise, so
    a point's value does not depend on the other points in y.
    """
    n = a.size - 1
    mant, expo = _binomials(n)
    size = n + 1 if expo[n // 2] <= _ONE_BLOCK_EXP else _BLOCK
    blocks = []  # (exponent, scaled coefficients from high index to low)
    for lo in range(n - n % size, -1, -size):
        hi = min(lo + size, n + 1)
        e = int(expo[lo:hi].max())
        scaled = a[lo:hi] * np.ldexp(mant[lo:hi], expo[lo:hi] - e)
        blocks.append((e, scaled[::-1].tolist()))

    def horner(coeffs: list, t: np.ndarray) -> np.ndarray:
        if len(coeffs) == 1:
            return np.full(t.shape, coeffs[0])
        p = coeffs[0] * t
        p += coeffs[1]
        for ck in coeffs[2:]:
            p *= t
            p += ck
        return p

    if len(blocks) == 1:
        e, coeffs = blocks[0]
        two_e = math.ldexp(1.0, e)

        def h(y: np.ndarray) -> np.ndarray:
            w = 1.0 - y
            p = horner(coeffs, y / w)
            p *= two_e
            p *= np.power(w, n, out=w)
            return p

        return h

    def h(y: np.ndarray) -> np.ndarray:
        t = y / (1.0 - y)
        t_mant, t_exp = np.frexp(t)
        # t^_BLOCK as a mantissa >= 2^-_BLOCK and an exponent: no underflow
        carry_mant = t_mant ** _BLOCK
        carry_exp = _BLOCK * t_exp
        acc = exp = None
        for e, coeffs in blocks:
            p = horner(coeffs, t)
            if acc is not None:  # acc * t^_BLOCK + p, at the larger exponent
                prev = exp + carry_exp
                top = np.maximum(prev, e)
                p = np.ldexp(acc * carry_mant, prev - top) + np.ldexp(p, e - top)
                e = top
            acc, shift = np.frexp(p)
            exp = e + shift
        log2_scale = exp + n * np.log2(1.0 - y)
        whole = np.floor(log2_scale)
        return np.ldexp(acc * np.exp2(log2_scale - whole), whole.astype(np.intc))

    return h


def _bezier_value(coeffs: np.ndarray, x) -> np.ndarray:
    """Value of sum_k coeffs[k] C(n,k) x^k (1-x)^(n-k) at each x in [0, 1].

    B_n reproduces the chord l(x) = c_0 + (c_n - c_0) x exactly, so only the
    remainder c_k - l(k/n) goes through the Horner sum; affine coefficients
    come back as l itself.  Points above 1/2 use the mirror identity
    B_n(c)(x) = B_n(reversed c)(1 - x), which keeps t <= 1.  The points run
    in chunks of _CHUNK: a chunk wholly on one side of 1/2 is evaluated on
    its slice, and only a chunk with points on both sides is split by masks.
    Each point goes through the same operations on every path, so its value
    does not depend on the order of the points.
    """
    x = np.asarray(x, dtype=float)
    n = coeffs.size - 1
    first, last = coeffs[0], coeffs[-1]
    out = first + (last - first) * x
    rest = coeffs - (first + (last - first) * np.linspace(0.0, 1.0, n + 1))
    scale = float(np.max(np.abs(rest)))
    if scale == 0.0:
        return out
    rest /= scale
    lower, upper = _half_sum(rest), _half_sum(rest[::-1])
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, flat_x.size, _CHUNK):
        xs = flat_x[start : start + _CHUNK]
        o = flat_out[start : start + _CHUNK]
        low = xs <= 0.5
        if low.all():
            o += scale * lower(xs)
        elif not low.any():
            o += scale * upper(1.0 - xs)
        else:
            o[low] += scale * lower(xs[low])
            high = ~low
            o[high] += scale * upper(1.0 - xs[high])
    return out


def _subdivide(c: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the same polynomial on [0, t] and on [t, 1], each rescaled to [0, 1].

    De Casteljau's scheme in place: after level j, w[0] is the left part's
    coefficient j and w[n - j] is final as the right part's coefficient
    n - j, so w ends up holding the right part.
    """
    n = c.size - 1
    s = 1.0 - t
    w = np.array(c, dtype=float)
    left = np.empty(n + 1)
    left[0] = w[0]
    for j in range(1, n + 1):
        w[:n + 1 - j] = s * w[:n + 1 - j] + t * w[1:n + 2 - j]
        left[j] = w[0]
    return left, w


def _restrict(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """Bernstein coefficients in u of p(a + (b - a) u), where p has coefficients c and 0 <= a < b <= 1.

    Split at b and keep [0, b], then split that at a / b and keep the right
    part.  A split whose end is 0 or 1 is skipped, so (c, 0, 1) gives c back.
    """
    if b < 1.0:
        c = _subdivide(c, b)[0]
    if a > 0.0:
        c = _subdivide(c, a / b)[1]
    return c


def bernstein_eval(p: BernsteinPoly, x):
    return _evaluate_checked(functools.partial(_bezier_value, p.samples), x)


def bernstein_derivative_eval(p: BernsteinPoly, x):
    """Exact derivative of the Bernstein polynomial.

    (B_n f)'(x) = n * sum_k [f((k+1)/n) - f(k/n)] C(n-1,k) x^k (1-x)^(n-1-k).
    """
    return _evaluate_checked(functools.partial(_bezier_value, p.order * np.diff(p.samples)), x)


class BernsteinFunc(Func):
    """Func adapter so a BernsteinPoly can feed other operators."""

    def __init__(self, poly: BernsteinPoly):
        self.poly = poly

    def _eval(self, x):
        return _bezier_value(self.poly.samples, x)


def modulus_smoothness(
    f: Func,
    delta: float,
    grid_t: int = DEFAULT_MODULUS_GRID_T,
    grid_x: int = DEFAULT_MODULUS_GRID_X,
) -> float:
    """Second modulus of smoothness with step-weight sqrt(x(1-x)).

    Discretized sup over t in {0, delta/grid_t, ..., delta} and x on a
    uniform grid, restricted to x where both shifted arguments stay inside
    [0, 1]; a lower bound on the true modulus.  Endpoints x = 0, 1 are
    admissible (the weight vanishes there, contributing 0).  f is evaluated
    once per block of _T_BLOCK steps t, on the points x - t phi(x) and
    x + t phi(x) of every step in the block stacked together.  The points,
    the mask and the second differences of a block are written into buffers
    allocated once per call.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    if grid_t < 2 or grid_x < 2:
        raise ValueError("grids must be >= 2")
    if delta == 0:
        return 0.0
    xs = np.linspace(0.0, 1.0, grid_x + 1)
    phi = np.sqrt(xs * (1.0 - xs))
    two_fx = 2.0 * f._eval(xs)
    best = 0.0
    # t = 0 gives f(x) - 2 f(x) + f(x) = 0 exactly
    steps = np.linspace(0.0, delta, grid_t + 1)[1:, None]
    rows = min(_T_BLOCK, grid_t)
    pts_buf = np.empty((2 * rows, xs.size))
    shift_buf, second_buf = np.empty((rows, xs.size)), np.empty((rows, xs.size))
    ok_buf, hi_ok_buf = np.empty((rows, xs.size), bool), np.empty((rows, xs.size), bool)
    for start in range(0, grid_t, _T_BLOCK):
        t = steps[start : start + _T_BLOCK]
        k = len(t)
        shift, second, ok, hi_ok = shift_buf[:k], second_buf[:k], ok_buf[:k], hi_ok_buf[:k]
        pts = pts_buf[: 2 * k]  # rows: every lo, then every hi
        np.multiply(t, phi, out=shift)
        np.subtract(xs, shift, out=pts[:k])
        np.add(xs, shift, out=pts[k:])
        np.greater_equal(pts[:k], -1e-12, out=ok)
        ok &= np.less_equal(pts[k:], 1.0 + 1e-12, out=hi_ok)
        # every point is evaluated and the sup is taken over the admissible
        # ones, which gives the same maximum as gathering them first
        vals = f._eval(np.clip(pts, 0.0, 1.0, out=pts).ravel()).reshape(pts.shape)
        np.subtract(vals[:k], two_fx, out=second)
        second += vals[k:]
        best = max(best, float(np.abs(second, out=second).max(where=ok, initial=0.0)))
    return best


@dataclass(eq=False)
class TotikReport:
    sup_err: float
    modulus: float
    ratio: float


def totik_error_report(f: Func, n: int) -> TotikReport:
    """sup|B_n f - f| on the default grid against the modulus at 1/sqrt(n).

    The literature bound has an unspecified constant, so only the ratio is
    reported (inf when the modulus vanishes but the error does not).
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = bernstein_build(f, n)
    sup_err = sup_norm_diff(f, BernsteinFunc(poly))
    mod = modulus_smoothness(f, 1.0 / np.sqrt(n))
    if mod > 0:
        ratio = sup_err / mod
    elif sup_err > 0:
        ratio = float("inf")
    else:
        ratio = 0.0
    return TotikReport(sup_err=sup_err, modulus=mod, ratio=ratio)
