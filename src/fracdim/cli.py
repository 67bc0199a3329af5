"""Command-line interface on argparse: JSON reports on stdout, CSV samples via --out.

Exit codes: 0 success, --help and --version; 1 malformed input (usage errors
included: a bad choice or type, an unknown, abbreviated or missing option, a
missing --csv file; non-finite numbers; sizes that cannot be allocated; an
--out path that cannot be written, before any report is printed; and a
bare `fracdim`, which prints the command list on stdout), 2 hypothesis/gate
diagnostic, 3 convergence failure.  `main` is the one place that maps an
outcome to its code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bernstein import modulus_smoothness
from .dimension import DataSet, estimate_box_dim, predict_box_dim, predict_hausdorff_dim
from .errors import ConvergenceError, HypothesisError
from .fif import DEFAULT_RESOLUTION, DEFAULT_TOL, chaos_game, solve_fixed_point, spec_from_json
from .functions import (
    GridFunction,
    WeierstrassSeries,
    func_from_json,
    sample,
    sup_norm_diff,
    write_xy_csv,
)
from .pipeline import (
    DENSE_MAX_K,
    ExtensionDomain,
    dense_approximant,
    derivative_dim_approximant,
    dim_preserving_sequence,
    extend_function,
    hausdorff_preserving_sequence,
)


def _load_json_arg(value: str) -> dict:
    """Accept an inline JSON object or a path to a file holding one."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        with open(value) as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def cmd_predict_dim(spec, mode):
    """Closed-form dimension prediction for affine interpolation data."""
    obj = _load_json_arg(spec)
    if "data" in obj:
        data = DataSet.from_points(obj["data"])
        alpha = obj["alpha"]
    else:
        fif_spec = spec_from_json(obj)
        data = DataSet(fif_spec.partition.knots, fif_spec.ys)
        alpha = fif_spec.alpha
    report = (predict_hausdorff_dim if mode == "hausdorff" else predict_box_dim)(data, alpha)
    print(json.dumps(report.to_json(), indent=2))
    if report.predicted is None:
        raise HypothesisError(report.diagnostic)


def cmd_estimate_dim(func, csv, m, jmin, jmax, out):
    """Box-counting dimension estimate with log-log regression."""
    if (func is None) == (csv is None):
        raise ValueError("provide exactly one of --func or --csv")
    grid = sample(func_from_json(_load_json_arg(func)), m) if func is not None else GridFunction.from_csv(csv)
    report = estimate_box_dim(grid, jmin, jmax)
    if out:
        report.scales_to_csv(out)
    print(json.dumps(report.to_json(), indent=2))


def cmd_approximate(func, beta, mode, n, m, tol, nonneg, out):
    """Dimension-preserving approximant construction."""
    f = func_from_json(_load_json_arg(func))
    if m is None and mode != "hausdorff":
        m = DEFAULT_RESOLUTION
    if mode == "box":
        result = dim_preserving_sequence(f, beta, n, m=m, tol=tol)
        sup_err = sup_norm_diff(f, result.fif)
        bound = result.error_bound(f)
        payload = {
            "mode": "box",
            "n": n,
            "alpha": result.alpha,
            "predicted": result.report.predicted,
            "sup_err": sup_err,
            "error_bound": bound,
            "holds": bool(sup_err <= bound + 1e-9),
            "modulus_f": modulus_smoothness(f, 1.0 / np.sqrt(n)),
            "modulus_bn": modulus_smoothness(result.base, 1.0 / np.sqrt(n)),
            "residual": result.fif.residual,
            "iterations": result.fif.iterations,
        }
        samples = result.fif
    elif mode == "hausdorff":
        result = hausdorff_preserving_sequence(f, beta, n)
        if m is None:
            m = n
            while m * n <= DEFAULT_RESOLUTION:
                m *= n
        fif = solve_fixed_point(result.spec, m=m, tol=tol)
        payload = {"mode": "hausdorff", "n": n, "alpha": result.spec.alpha[0],
                   "sum_abs_alpha": result.sum_abs_alpha, "predicted": result.report.predicted,
                   "perturbed": result.perturbed, "residual": fif.residual}
        samples = fif
    elif mode == "dense":
        approx = dense_approximant(f, beta, n)
        payload = {"mode": "dense", "k": n, "beta": beta, "sup_err": sup_norm_diff(f, approx)}
        samples = sample(approx, m)
    else:
        result = derivative_dim_approximant(f, beta, n, nonneg_primitive=nonneg)
        payload = {"mode": "derivative", "n": n, "beta": beta, "primitive_at_0": result.primitive(0.0),
                   "primitive_at_1": result.primitive(1.0), "min_primitive": result.min_primitive}
        samples = sample(result.primitive, m)
    if out:
        samples.to_csv(out)
    print(json.dumps(payload, indent=2))


def cmd_generate(kind, a, b, k, spec, m, n_points, tol, seed, out):
    """Sample generators: rough series, fixed points, chaos-game points."""
    if kind == "weierstrass":
        sample(WeierstrassSeries(a, b, k), m).to_csv(out)
    elif spec is None:
        raise ValueError(f"--spec is required for {kind} generation")
    elif kind == "fif":
        solve_fixed_point(spec_from_json(_load_json_arg(spec)), m=m, tol=tol).to_csv(out)
    else:
        pts = chaos_game(spec_from_json(_load_json_arg(spec)), n_points, seed)
        write_xy_csv(out, pts[:, 0], pts[:, 1])


def cmd_extend(domain, beta, m, jmin, jmax, out):
    """Continuous extension across gaps with prescribed dimension."""
    obj = _load_json_arg(domain)
    extended = extend_function(ExtensionDomain(obj["intervals"], func_from_json(obj["values"])), beta)
    grid = sample(extended, m)
    report = estimate_box_dim(grid, jmin, jmax)
    payload = {"beta": beta, "max_jump": extended.max_jump, "estimated": report.estimated,
               "raw_slope": report.raw_slope, "r_squared": report.r_squared}
    if out:
        grid.to_csv(out)
    print(json.dumps(payload, indent=2))


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    """Help that starts with "Usage:" and shows a default only where there is one."""

    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)

    def _get_help_string(self, action):
        shown = action.default is not None and action.default is not False
        return super()._get_help_string(action) if shown else action.help


class _Parser(argparse.ArgumentParser):
    """Only --help, no -h; rejects abbreviated options; a usage error raises ValueError for main."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise ValueError(message)


def _parser(prog: str) -> _Parser:
    parser = _Parser(prog=prog, description="Fractal interpolation, dimension prediction, and approximation tools.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(title="commands")

    def command(fn, name):
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.set_defaults(run=fn)
        return sub

    def scales(sub):
        sub.add_argument("--m", type=int, default=2 ** 20, help="sampling resolution")
        sub.add_argument("--jmin", type=int, default=4, help="coarsest box scale 2^-jmin")
        sub.add_argument("--jmax", type=int, default=12, help="finest box scale 2^-jmax")

    sub = command(cmd_predict_dim, "predict-dim")
    sub.add_argument("--spec", required=True, help="FifSpec JSON, {data, alpha} JSON, or a path")
    sub.add_argument("--mode", choices=["box", "hausdorff"], default="box", help="dimension to predict")

    sub = command(cmd_estimate_dim, "estimate-dim")
    sub.add_argument("--func", help="function JSON or path")
    sub.add_argument("--csv", help="x,y sample CSV")
    scales(sub)
    sub.add_argument("--out", help="write per-scale counts CSV here")

    sub = command(cmd_approximate, "approximate")
    sub.add_argument("--func", required=True, help="target function JSON or path")
    sub.add_argument("--beta", type=float, required=True, help="prescribed dimension")
    sub.add_argument("--mode", choices=["box", "hausdorff", "dense", "derivative"], required=True)
    sub.add_argument("--n", type=int, default=4, help="box: Bernstein order; hausdorff: branch count; dense and "
                     f"derivative: exponent k of the 2^k + 1 sample knots, from 1 to {DENSE_MAX_K}")
    sub.add_argument("--m", type=int, help=f"solve/sample resolution [default: {DEFAULT_RESOLUTION}; hausdorff mode: "
                     f"the largest power of n up to {DEFAULT_RESOLUTION}, so the solve refines exactly]")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="stop once sup|T g - g| <= tol (iterative solves)")
    sub.add_argument("--nonneg", action="store_true", help="derivative mode: request a nonnegative primitive")
    sub.add_argument("--out", help="write approximant samples CSV here")

    sub = command(cmd_generate, "generate")
    sub.add_argument("kind", choices=["weierstrass", "fif", "chaos"])
    sub.add_argument("--a", type=float, default=0.5, help="weierstrass amplitude ratio")
    sub.add_argument("--b", type=float, default=3.0, help="weierstrass frequency ratio")
    sub.add_argument("--k", type=int, help="weierstrass truncation")
    sub.add_argument("--spec", help="FifSpec JSON or path (fif/chaos)")
    sub.add_argument("--m", type=int, default=DEFAULT_RESOLUTION, help="sampling resolution")
    sub.add_argument("--n-points", type=int, default=10 ** 5, help="chaos-game points")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="stop once sup|T g - g| <= tol (iterative solves)")
    sub.add_argument("--seed", type=int, default=42, help="chaos-game seed")
    sub.add_argument("--out", required=True, help="write samples CSV here")

    sub = command(cmd_extend, "extend")
    sub.add_argument("--domain", required=True, help='{"intervals": [[a,b],...], "values": <func JSON>} or path')
    sub.add_argument("--beta", type=float, required=True, help="prescribed dimension")
    scales(sub)
    sub.add_argument("--out", help="write extension samples CSV here")
    return parser


def main(argv: list[str] | None = None, prog: str = "fracdim") -> None:
    """Run one command, then sys.exit with its outcome's code."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser(prog)
    code, line = 0, None
    try:
        if argv:
            kwargs = vars(parser.parse_args(argv))
            kwargs.pop("run")(**kwargs)
        else:
            parser.print_help()
            code = 1
    except SystemExit as exc:  # argparse's --help and --version, after printing
        code = exc.code
    except HypothesisError as exc:
        code, line = 2, f"diagnostic: {exc}"
    except ConvergenceError as exc:
        code, line = 3, f"convergence failure: {exc}"
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        code, line = 1, f"input error: {exc}"
    if line:
        print(line, file=sys.stderr)
    sys.exit(code)


# main.main(args=, prog_name=, standalone_mode=): the call perfbench/cli_launcher.py and
# tests/test_cli.py make; standalone_mode is not read.
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args, prog_name or "fracdim")


if __name__ == "__main__":
    main()
