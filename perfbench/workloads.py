"""The three workloads: seeded inputs, the timed operation, and its checks.

Every workload is a closed loop with one caller.  Inputs come in rounds: a
round has a fixed mix of operation kinds whose parameters are drawn from the
seed, and a run is a whole number of rounds.  The mix is what makes the
median and the tail of one run land in the same operation kind on every seed;
the seed only moves values inside each kind.

``execute`` is the timed part and calls only the package.  ``check`` runs
afterwards, untimed, and returns the list of failed checks plus the accuracy
figures of the operation (a |slope - predicted D| and a sup-norm error).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import select
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

TOL = 1e-10  # solver tolerance used by every workload (the package default)
# Box counting over j = 4..12 is pre-asymptotic; on the specs below it was
# measured at most 0.06 from the prediction.  Fixed once, never tuned per run.
SLOPE_TOL = 0.15
CHECK_KNOTS_TOL = 1e-12
PREDICT_TOL = 1e-10


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    dim_err: float | None = None
    approx_err: float | None = None

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


def zigzag_affine(rng, n_intervals, dim):
    """Knots, ys and alphas of an affine FIF with predicted box dimension dim.

    Uniform partition, equal |alpha| = N^(D-1) / N with alternating signs,
    ys zero at both ends and alternating in sign inside.  With unequal
    |alpha| or sloped data the box-count regression over j = 4..12 was
    measured up to 0.5 away from D, varying tenfold between seeds, which
    would make a maximum over a run meaningless.
    """
    n = n_intervals
    sign = rng.choice([-1.0, 1.0])
    alpha = (n ** (dim - 1.0) / n) * sign * (-1.0) ** np.arange(n)
    ys = np.zeros(n + 1)
    ys[1:-1] = rng.uniform(0.5, 1.0, n - 1) * (-1.0) ** np.arange(n - 1) * rng.choice([-1.0, 1.0])
    return np.linspace(0.0, 1.0, n + 1), ys, alpha


def stratified(rng, r, lo, hi, k):
    """Round r's draw from [lo, hi]: each block of k rounds takes one value
    from each of k - 1 equal strata of [lo, hi), and hi itself.

    The largest accuracy error comes from the top of the range, so pinning
    one round per block there keeps a maximum over a block steady.
    """
    s = r % k
    if s == k - 1:
        return hi
    return lo + (hi - lo) * (s + rng.random()) / (k - 1)


def exact_affine_fif(knots, ys, alpha, x):
    """Values of the affine FIF at dyadic x by the address recursion.

    f(x_{i-1} + a u) = c_i u + d_i + alpha_i f(u) on a uniform partition with
    N a power of two: x N is exact in binary, so the recursion reaches u = 0,
    where f = y_0, after at most ~60 steps.  Independent of the grid solver.
    """
    n = len(knots) - 1
    d = ys[:-1] - alpha * ys[0]
    c = np.diff(ys) - alpha * (ys[-1] - ys[0])
    x = np.array(x, dtype=float)
    val = np.zeros_like(x)
    prod = np.ones_like(x)
    for _ in range(1100):
        live = x > 0.0
        if not live.any():
            break
        i = np.minimum((x * n).astype(np.int64), n - 1)
        u = x * n - i
        val = np.where(live, val + prod * (c[i] * u + d[i]), val)
        prod = np.where(live, prod * alpha[i], prod)
        x = np.where(live, u, 0.0)
    else:
        raise RuntimeError("address recursion did not terminate")
    return val + prod * ys[0]


# ---------------------------------------------------------------------------
# fif-verify


@dataclass
class FifOp:
    n_intervals: int
    dim: float
    knots: np.ndarray
    ys: np.ndarray
    alpha: np.ndarray
    probe_x: np.ndarray  # off-grid points for the exact-value check
    m: int = 2 ** 20
    j_min: int = 4
    j_max: int = 12


class FifVerify:
    """predict_box_dim, solve_fixed_point at m = 2^20, estimate_box_dim j = 4..12.

    Round: N = 2 at D in [1.2, 1.4), [1.4, 1.6), [1.6, 1.8) and at 1.8; N = 4 at
    D in [1.2, 1.8) and at 1.8.  The two D = 1.8 specs are the hardest case for
    both accuracy figures, so every run measures the same worst case.  N = 2
    solves take 20 grid iterations and N = 4 solves 10, so the four N = 2
    operations of six hold the median and the tail.
    """

    name = "fif-verify"
    in_process = True
    min_rounds = 4
    accuracy_rounds = 4
    SLOTS = [(2, 1.2, 1.4), (2, 1.4, 1.6), (2, 1.6, 1.8), (2, 1.8, 1.8),
             (4, 1.2, 1.8), (4, 1.8, 1.8)]
    N_PROBES = 16384

    def setup(self):
        self.fd = importlib.import_module("fracdim")  # the import is part of set-up time

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 1])
        while True:
            ops = []
            for n, lo, hi in self.SLOTS:
                dim = lo + (hi - lo) * rng.random()
                knots, ys, alpha = zigzag_affine(rng, n, dim)
                m = FifOp.m
                j = rng.integers(0, m, self.N_PROBES)
                probe_x = (j + rng.uniform(0.25, 0.75, self.N_PROBES)) / m
                ops.append(FifOp(n, dim, knots, ys, alpha, probe_x))
            yield [ops[k] for k in rng.permutation(len(ops))]

    def execute(self, op, tracer=None):
        fd = self.fd
        spec = fd.make_affine_spec(op.knots, op.ys, op.alpha)
        report = fd.predict_box_dim(fd.DataSet(op.knots, op.ys), op.alpha)
        fif = fd.solve_fixed_point(spec, m=op.m, tol=TOL)
        est = fd.estimate_box_dim(fif.grid, op.j_min, op.j_max)
        return report, fif, est

    def check(self, op, raw):
        report, fif, est = raw
        out = Outcome()
        out.expect(report.predicted_kind == "box", f"predicted kind {report.predicted_kind}")
        if report.predicted is None:
            out.problems.append("no prediction")
            return out
        out.expect(abs(report.predicted - op.dim) <= PREDICT_TOL,
                   f"predicted {report.predicted} for D = {op.dim}")
        out.expect(fif.residual <= TOL, f"residual {fif.residual:.3e} above tol")
        at_knots = fif.grid.values[:: op.m // op.n_intervals]
        out.expect(np.max(np.abs(at_knots - op.ys)) <= CHECK_KNOTS_TOL, "grid misses ys at knots")
        out.dim_err = abs(est.raw_slope - report.predicted)
        out.expect(out.dim_err <= SLOPE_TOL, f"slope {est.raw_slope:.4f} vs D {report.predicted:.4f}")
        # relative to the FIF's size: the FIF, and so this error, is linear in ys
        exact = exact_affine_fif(op.knots, op.ys, op.alpha, op.probe_x)
        scale = float(np.max(np.abs(fif.grid.values)))
        out.approx_err = float(np.max(np.abs(fif(op.probe_x) - exact))) / scale
        return out


# ---------------------------------------------------------------------------
# approx-pipeline


@dataclass
class BoxOp:
    target: dict  # func JSON
    beta: float
    n: int
    knot: float
    m: int = 2 ** 16


@dataclass
class SideOp:
    """The minority operation: the other four pipelines on one target."""

    target: dict
    beta: float
    n_hausdorff: int
    k_dense: int
    n_derivative: int
    gap: tuple
    m: int = 2 ** 16


def _poly_target(rng):
    return {"kind": "polynomial", "coeffs": rng.uniform(-1.0, 1.0, 4).tolist()}


def _weierstrass_target(rng):
    return {"kind": "weierstrass", "a": float(rng.uniform(0.48, 0.5)), "b": 3.0, "K": 3}


def _odd_cubic_target(rng):
    # point-symmetric about x = 1/2: first and last increments coincide on any
    # uniform grid, so the Hausdorff pipeline must take its perturbation branch
    lin, cub = rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0)
    c = [-lin / 2 - cub / 8, lin + 3 * cub / 4, -1.5 * cub, cub]
    return {"kind": "polynomial", "coeffs": c}


def _eval_target(target, x):
    x = np.asarray(x, dtype=float)
    if target["kind"] == "polynomial":
        return np.polynomial.polynomial.polyval(x, target["coeffs"])
    a, b = target["a"], target["b"]
    return sum(a ** k * np.cos(b ** k * np.pi * x) for k in range(target["K"] + 1))


def _far_from_chord(target, knot):
    y0, yk, y1 = _eval_target(target, [0.0, knot, 1.0])
    return abs(yk - (y0 + (y1 - y0) * knot)) >= 0.05


class ApproxPipeline:
    """dim_preserving_sequence plus the CLI's error-bound check, and the rest.

    Round of eleven: n = 16 (two Weierstrass, one polynomial), n = 32 (one
    Weierstrass, three polynomials), n = 64 (one of each), n = 128 (one
    polynomial), and one side operation running the other four pipelines.
    Bernstein evaluation is O(n^2) per point today, so cost rises steeply with
    n: the median sits in the n = 32 operations and the tail in the n = 64
    ones whenever a run has 4 to 10 rounds.  Weierstrass targets at n = 16
    give the largest sup-norm error; two per round make that maximum steady.
    The side operation's beta is drawn by blocks of four rounds.
    The middle knot is drawn away from 1/2, which keeps the alpha-fractal
    solve on the iterative path.
    """

    name = "approx-pipeline"
    in_process = True
    min_rounds = 4
    accuracy_rounds = 4
    SLOTS = [(16, "w"), (16, "w"), (16, "p"), (32, "w"), (32, "p"), (32, "p"),
             (32, "p"), (64, "w"), (64, "p"), (128, "p"), (None, "side")]

    def setup(self):
        self.fd = importlib.import_module("fracdim")

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 2])
        r = 0
        while True:
            ops = []
            for n, kind in self.SLOTS:
                if kind == "side":
                    beta = stratified(rng, r, 1.45, 1.55, self.accuracy_rounds)
                    target = _odd_cubic_target(rng) if r % 2 == 0 else _poly_target(rng)
                    lo = float(rng.uniform(0.3, 0.45))
                    ops.append(SideOp(target, beta, int(rng.choice([4, 8])), int(rng.integers(6, 9)),
                                      int(rng.integers(4, 9)), (lo, lo + float(rng.uniform(0.1, 0.2)))))
                    continue
                beta = float(rng.uniform(1.45, 1.55))
                knot = float(rng.uniform(0.36, 0.42))
                if rng.random() < 0.5:
                    knot = 1.0 - knot
                while True:
                    target = _weierstrass_target(rng) if kind == "w" else _poly_target(rng)
                    if _far_from_chord(target, knot):
                        break
                ops.append(BoxOp(target, beta, n, knot))
            r += 1
            yield [ops[k] for k in rng.permutation(len(ops))]

    def execute(self, op, tracer=None):
        fd = self.fd
        f = fd.func_from_json(op.target)
        if isinstance(op, BoxOp):
            res = fd.dim_preserving_sequence(f, op.beta, op.n, partition=[0.0, op.knot, 1.0],
                                             m=op.m, tol=TOL)
            # the error-bound check of `fracdim approximate --mode box`
            err_f_pn = fd.sup_norm_diff(f, res.seed)
            err_pn_b = fd.sup_norm_diff(res.seed, res.base)
            sup_err = fd.sup_norm_diff(f, res.fif)
            bound = err_f_pn + res.alpha / (1.0 - res.alpha) * err_pn_b
            modulus_f = fd.modulus_smoothness(f, 1.0 / math.sqrt(op.n))
            return res, sup_err, bound, modulus_f
        haus = fd.hausdorff_preserving_sequence(f, op.beta, op.n_hausdorff)
        haus_fif = fd.solve_fixed_point(haus.spec, m=op.m, tol=TOL)
        anchor = fd.make_anchor(op.beta, m=op.m, tol=TOL)
        anchor_est = fd.estimate_box_dim(anchor.fif.grid, 4, 12)
        dense = fd.dense_approximant(f, op.beta, op.k_dense, anchor=anchor)
        dense_err = fd.sup_norm_diff(f, dense)
        deriv = fd.derivative_dim_approximant(f, op.beta, op.n_derivative,
                                              nonneg_primitive=True, anchor=anchor)
        domain = fd.ExtensionDomain([[0.0, op.gap[0]], [op.gap[1], 1.0]], f)
        ext = fd.extend_function(domain, op.beta, anchor=anchor)
        ext_grid = fd.sample(ext, op.m)
        return haus, haus_fif, anchor, anchor_est, dense, dense_err, deriv, ext, ext_grid

    def check(self, op, raw):
        out = Outcome()
        if isinstance(op, BoxOp):
            res, sup_err, bound, modulus_f = raw
            out.expect(abs(res.report.predicted - op.beta) <= PREDICT_TOL,
                       f"predicted {res.report.predicted} for beta {op.beta}")
            out.expect(sup_err <= bound + 1e-9, f"sup error {sup_err:.4g} above bound {bound:.4g}")
            out.expect(res.fif.residual <= TOL, f"residual {res.fif.residual:.3e}")
            out.expect(np.isfinite(modulus_f) and modulus_f >= 0.0, "bad modulus")
            out.approx_err = sup_err
            return out
        haus, haus_fif, anchor, anchor_est, dense, dense_err, deriv, ext, ext_grid = raw
        n = op.n_hausdorff
        xs = np.linspace(0.0, 1.0, n + 1)
        fx = _eval_target(op.target, xs)
        # endpoint-perturbation rule: raise y_0 by exactly 1/n iff the first
        # and last increments coincide
        expect_perturbed = abs((fx[1] - fx[0]) - (fx[-1] - fx[-2])) <= 1e-9
        out.expect(haus.perturbed == expect_perturbed, f"perturbed = {haus.perturbed}")
        want = fx.copy()
        if expect_perturbed:
            want[0] += 1.0 / n
        out.expect(np.max(np.abs(haus.data.ys - want)) <= 1e-12, "hausdorff data do not follow the rule")
        out.expect(abs(haus.report.predicted - op.beta) <= PREDICT_TOL, "hausdorff prediction")
        out.expect(abs(haus.sum_abs_alpha - n * n ** (op.beta - 2.0)) <= 1e-12, "sum |alpha|")
        out.expect(haus_fif.residual <= TOL, f"hausdorff residual {haus_fif.residual:.3e}")
        out.expect(abs(anchor.predicted_dim - op.beta) <= PREDICT_TOL, "anchor dimension")
        knots = np.linspace(0.0, 1.0, 2 ** op.k_dense + 1)
        gap = dense(knots) - _eval_target(op.target, knots) - anchor(knots) / op.k_dense
        out.expect(np.max(np.abs(gap)) <= 1e-12, "dense approximant misses f + anchor/k at knots")
        out.expect(deriv.primitive(0.0) == 0.0, "primitive does not start at 0")
        out.expect(deriv.min_primitive is not None and np.isfinite(deriv.min_primitive),
                   "nonnegativity check did not run")
        x = ext_grid.xs
        on_x = (x <= op.gap[0]) | (x >= op.gap[1])
        off = np.max(np.abs(ext_grid.values[on_x] - _eval_target(op.target, x[on_x])))
        out.expect(off <= 1e-12, f"extension differs from f on X by {off:.3e}")
        lo, hi = op.gap
        inside = ext(np.array([lo, hi]) + np.array([1e-13, -1e-13]) * (hi - lo))
        jump = np.max(np.abs(inside - _eval_target(op.target, [lo, hi])))
        out.expect(jump <= 1e-6, f"extension jumps by {jump:.3e} at a gap end")
        out.dim_err = abs(anchor_est.raw_slope - op.beta)
        out.expect(out.dim_err <= SLOPE_TOL, f"anchor slope {anchor_est.raw_slope:.4f}")
        out.approx_err = dense_err
        return out


# ---------------------------------------------------------------------------
# cli-cold

DIM_KEYS = {"predicted", "predicted_kind", "estimated", "raw_slope", "slope_stderr",
            "r_squared", "scales_used", "diagnostic"}
BOX_KEYS = {"mode", "n", "alpha", "predicted", "sup_err", "error_bound", "holds",
            "modulus_f", "modulus_bn", "residual", "iterations"}
HAUSDORFF_KEYS = {"mode", "n", "alpha", "sum_abs_alpha", "predicted", "perturbed", "residual"}
EXTEND_KEYS = {"beta", "max_jump", "estimated", "raw_slope", "r_squared"}


@dataclass
class CliOp:
    label: str
    argv: list
    keys: set | None = None  # documented stdout JSON keys; None: no stdout
    csv: tuple | None = None  # (path, header, data rows) the command writes
    dim: float | None = None  # predicted dimension the output should show
    beta: float | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class CliCold:
    """Short `python -m fracdim.cli` commands, one fresh interpreter each.

    Round of nine, in dependency order: predict-dim; generate fif at
    m = 2^16 and estimate-dim on that CSV; generate weierstrass at a
    non-dyadic m (rows not 2^k + 1, so the non-dyadic box_count loop runs)
    and estimate-dim on it; generate chaos with 10^5 points; approximate
    --mode box (n = 8) and --mode hausdorff; extend.  About 0.75 s of each
    command is interpreter start plus `import fracdim`.  The spec's D, beta
    and the target's curvature are drawn by blocks of three rounds (see
    ``stratified``), which steadies the accuracy maxima.
    """

    name = "cli-cold"
    in_process = False
    min_rounds = 3
    accuracy_rounds = 3

    def __init__(self, root: Path, workdir: Path):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def rounds(self, seed):
        rng = np.random.default_rng([seed, 3])
        w = self.workdir
        r = 0
        while True:
            k = self.accuracy_rounds
            dim = stratified(rng, r, 1.4, 1.6, k)
            knots, ys, alpha = zigzag_affine(rng, 2, dim)
            # the tent (0, +-1, 0): with N = 2 the interior ordinate only scales
            # the graph, and that scale moved the box-count slope by up to 0.005
            ys = np.sign(ys)
            spec_path = w / "spec.json"
            spec_path.write_text(json.dumps({"branch": "affine", "knots": knots.tolist(),
                                             "ys": ys.tolist(), "alpha": alpha.tolist()}))
            data = json.dumps({"data": np.column_stack([knots, ys]).tolist(), "alpha": alpha.tolist()})
            beta = stratified(rng, r, 1.45, 1.55, k)
            curvature = stratified(rng, r, 0.9, 1.1, k)
            quad = {"kind": "polynomial",
                    "coeffs": [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)), curvature]}
            m_fif = 2 ** 16
            m_w = int(rng.choice([5, 6, 7])) * 2 ** 13
            n_chaos = 10 ** 5
            lo = float(rng.uniform(0.3, 0.45))
            domain = {"intervals": [[0.0, lo], [lo + float(rng.uniform(0.1, 0.2)), 1.0]],
                      "values": {"kind": "polynomial", "coeffs": rng.uniform(-1, 1, 3).tolist()}}
            fif_csv, w_csv, chaos_csv, scales_csv = (w / "fif.csv", w / "w.csv", w / "chaos.csv",
                                                     w / "scales.csv")
            yield [
                CliOp("predict-dim", ["predict-dim", "--spec", data], DIM_KEYS, dim=dim),
                CliOp("generate-fif", ["generate", "fif", "--spec", str(spec_path), "--m", str(m_fif),
                                       "--out", str(fif_csv)], csv=(fif_csv, "x,y", m_fif + 1)),
                CliOp("estimate-fif", ["estimate-dim", "--csv", str(fif_csv), "--jmin", "4", "--jmax", "12",
                                       "--out", str(scales_csv)], DIM_KEYS,
                      csv=(scales_csv, "j,delta,count", 9), dim=dim),
                CliOp("generate-weierstrass", ["generate", "weierstrass", "--a", f"{rng.uniform(0.5, 0.7):.6f}",
                                               "--b", "3", "--k", "8", "--m", str(m_w), "--out", str(w_csv)],
                      csv=(w_csv, "x,y", m_w + 1)),
                CliOp("estimate-weierstrass", ["estimate-dim", "--csv", str(w_csv), "--jmin", "4",
                                               "--jmax", "12"], DIM_KEYS),
                CliOp("generate-chaos", ["generate", "chaos", "--spec", str(spec_path), "--n-points",
                                         str(n_chaos), "--seed", str(int(rng.integers(1 << 30))),
                                         "--out", str(chaos_csv)], csv=(chaos_csv, "x,y", n_chaos)),
                CliOp("approximate-box", ["approximate", "--func", json.dumps(quad), "--beta", repr(beta),
                                          "--mode", "box", "--n", "8"], BOX_KEYS, beta=beta),
                CliOp("approximate-hausdorff", ["approximate", "--func", json.dumps(quad), "--beta",
                                                repr(beta), "--mode", "hausdorff", "--n",
                                                str(int(rng.choice([4, 8])))], HAUSDORFF_KEYS, beta=beta),
                CliOp("extend", ["extend", "--domain", json.dumps(domain), "--beta", repr(beta),
                                 "--m", str(2 ** 16)], EXTEND_KEYS),
            ]
            r += 1

    def execute(self, op, tracer=None):
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        if tracer is None:
            argv = [sys.executable, "-m", "fracdim.cli", *op.argv]
        else:
            spans_path = self.workdir / "spans.json"
            spans_path.unlink(missing_ok=True)  # a killed command leaves none behind
            argv = [sys.executable, str(HERE / "cli_launcher.py"), str(spans_path), *op.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            try:
                code, rss = _wait(proc, timeout=120.0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if tracer is not None and spans_path.exists():
            merge_child_spans(tracer, spans_path)
        return CliResult(code, out_path.read_text(), err_path.read_text(), rss)

    def check(self, op, raw):
        out = Outcome()
        if raw.code != 0:
            out.problems.append(f"{op.label}: exit code {raw.code}: {raw.stderr.strip()[-200:]}")
            return out
        payload = None
        if op.keys is None:
            out.expect(raw.stdout.strip() == "", f"{op.label}: unexpected stdout")
        else:
            try:
                payload = json.loads(raw.stdout)
            except json.JSONDecodeError:
                out.problems.append(f"{op.label}: stdout is not JSON")
                return out
            missing = op.keys - set(payload)
            out.expect(not missing, f"{op.label}: missing keys {sorted(missing)}")
            if missing:
                return out
        if op.csv is not None:
            path, header, rows = op.csv
            with open(path) as fh:
                first = fh.readline().strip()
                count = sum(1 for _ in fh)
            out.expect(first == header, f"{op.label}: CSV header {first!r}")
            out.expect(count == rows, f"{op.label}: {count} CSV rows, expected {rows}")
        if op.label == "predict-dim":
            out.expect(abs(payload["predicted"] - op.dim) <= 1e-9, "predict-dim value")
        elif op.label == "estimate-fif":
            out.dim_err = abs(payload["raw_slope"] - op.dim)
            out.expect(out.dim_err <= SLOPE_TOL, f"estimate-dim slope {payload['raw_slope']:.4f}")
        elif op.label == "estimate-weierstrass":
            out.expect(len(payload["scales_used"]) == 9, "estimate-dim did not use j = 4..12")
            out.expect(1.0 < payload["raw_slope"] < 2.0, f"slope {payload['raw_slope']:.4f}")
        elif op.label == "approximate-box":
            out.expect(payload["holds"] is True, "error bound does not hold")
            out.expect(abs(payload["predicted"] - op.beta) <= 1e-9, "box prediction")
            out.approx_err = payload["sup_err"]
        elif op.label == "approximate-hausdorff":
            out.expect(abs(payload["predicted"] - op.beta) <= 1e-9, "hausdorff prediction")
        elif op.label == "extend":
            out.expect(payload["max_jump"] <= 1e-9, f"extension jump {payload['max_jump']:.3e}")
        return out


def _wait(proc, timeout):
    """Reap one child and return (exit code, its peak RSS in KiB)."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        raise TimeoutError(f"command did not finish in {timeout:.0f} s")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def merge_child_spans(tracer, path):
    """Attach the spans a launched command wrote under the current span."""
    child = json.loads(Path(path).read_text())
    parent = tracer.current_span_id
    source = f"child{len(tracer.spans)}"
    for s in child["spans"]:
        s["source"] = source
        s["op"] = tracer.op_id
        if s["parent"] is None:
            s["parent"], s["parent_source"] = parent, None
        tracer.spans.append(s)


def make(name, root, workdir):
    if name == FifVerify.name:
        return FifVerify()
    if name == ApproxPipeline.name:
        return ApproxPipeline()
    if name == CliCold.name:
        return CliCold(root, workdir)
    raise KeyError(name)


WORKLOADS = [FifVerify.name, ApproxPipeline.name, CliCold.name]
