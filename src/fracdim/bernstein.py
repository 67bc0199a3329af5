"""Bernstein operator, its derivative, and the weighted second modulus.

One evaluator serves every order: Horner's rule in x/(1-x) (Schumaker and
Volk 1986), O(n) per point.  Binomial coefficients are exact integers kept
as mantissa/exponent pairs, and the accumulator is renormalised every 32
coefficients, so orders in the thousands neither overflow nor underflow.
The chord through the end coefficients is taken out first and added back
exactly, which keeps affine data exact.
"""

from __future__ import annotations

import functools
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

DEFAULT_SUP_GRID = 4096  # panels; 4097 nodes resolves extrema up to n ~ 2000
DEFAULT_MODULUS_GRID_T = 64
DEFAULT_MODULUS_GRID_X = 4096
_BLOCK = 32  # coefficients between renormalisations of the accumulator
_CHUNK = 8192  # points per pass; keeps the Horner operands in cache


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
    expo = np.empty(n + 1, dtype=np.int64)
    c = 1
    for k in range(n + 1):
        e = c.bit_length()
        mant[k] = c / (1 << e)  # int / int rounds correctly
        expo[k] = e
        c = c * (n - k) // (k + 1)
    return mant, expo


def _lower_half(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k a[k] C(n,k) y^k (1-y)^(n-k) for 0 <= y <= 1/2 and |a| <= 1.

    Horner's rule in t = y/(1-y) <= 1 over a[n], ..., a[0], times (1-y)^n
    at the end.  Coefficients run in blocks of _BLOCK, each scaled by the
    power of two of its largest binomial.  Between blocks the accumulator is
    a mantissa in [1/2, 1) and a per-point exponent, so neither binomials of
    size 2^n nor powers t^n leave the double range.
    """
    n = a.size - 1
    mant, expo = _binomials(n)
    blocks = []  # (exponent, scaled coefficients from high index to low)
    for lo in range(n - n % _BLOCK, -1, -_BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        e = int(expo[lo:hi].max())
        scaled = a[lo:hi] * np.ldexp(mant[lo:hi], expo[lo:hi] - e)
        blocks.append((e, scaled[::-1].tolist()))
    out = np.empty_like(y)
    for start in range(0, y.size, _CHUNK):
        ys = y[start : start + _CHUNK]
        t = ys / (1.0 - ys)
        t_mant, t_exp = np.frexp(t)
        # t^_BLOCK as a mantissa >= 2^-_BLOCK and an exponent: no underflow
        carry_mant = t_mant ** _BLOCK
        carry_exp = _BLOCK * t_exp.astype(np.int64)
        acc = exp = None
        for e, coeffs in blocks:
            p = np.full_like(ys, coeffs[0])
            for ck in coeffs[1:]:
                p *= t
                p += ck
            if acc is not None:  # acc * t^_BLOCK + p, at the larger exponent
                prev = exp + carry_exp
                top = np.maximum(prev, e)
                p = np.ldexp(acc * carry_mant, prev - top) + np.ldexp(p, e - top)
                e = top
            acc, shift = np.frexp(p)
            exp = e + shift
        log2_scale = exp + n * np.log2(1.0 - ys)
        whole = np.floor(log2_scale)
        out[start : start + _CHUNK] = np.ldexp(
            acc * np.exp2(log2_scale - whole), whole.astype(np.int64)
        )
    return out


def _bezier_value(coeffs: np.ndarray, x) -> np.ndarray:
    """Value of sum_k coeffs[k] C(n,k) x^k (1-x)^(n-k) at each x in [0, 1].

    B_n reproduces the chord l(x) = c_0 + (c_n - c_0) x exactly, so only the
    remainder c_k - l(k/n) goes through the Horner sum; affine coefficients
    come back as l itself.  Points above 1/2 use the mirror identity
    B_n(c)(x) = B_n(reversed c)(1 - x), which keeps t <= 1.
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
    low = x <= 0.5
    out[low] += scale * _lower_half(rest, x[low])
    high = ~low
    out[high] += scale * _lower_half(rest[::-1], 1.0 - x[high])
    return out


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
    admissible (the weight vanishes there, contributing 0).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if grid_t < 2 or grid_x < 2:
        raise ValueError("grids must be >= 2")
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
    sup_err = sup_norm_diff(f, BernsteinFunc(poly), DEFAULT_SUP_GRID)
    mod = modulus_smoothness(f, 1.0 / np.sqrt(n))
    if mod > 0:
        ratio = sup_err / mod
    elif sup_err > 0:
        ratio = float("inf")
    else:
        ratio = 0.0
    return TotikReport(sup_err=sup_err, modulus=mod, ratio=ratio)
