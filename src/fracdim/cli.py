"""Command-line interface: JSON reports on stdout, CSV samples via --out.

Exit codes: 0 success, 1 malformed input (usage errors included: a bad choice
or type, an unknown or missing option, a missing --csv file; and a bare
`fracdim`, which prints the command list), 2 hypothesis/gate diagnostic,
3 convergence failure.  Only the command group's main maps an outcome to its
code.
"""

from __future__ import annotations

import json
import sys

import click
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
    ExtensionDomain,
    dense_approximant,
    derivative_dim_approximant,
    dim_preserving_sequence,
    extend_function,
    hausdorff_preserving_sequence,
)

def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


def _load_json_arg(value: str):
    """Accept inline JSON or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        with open(value) as fh:
            text = fh.read()
    return json.loads(text)


def _load_func(value: str):
    return func_from_json(_load_json_arg(value))


class _Commands(click.Group):
    def main(self, args=None, prog_name=None, standalone_mode=True, **extra):
        """Run one command, then sys.exit with its outcome's code; standalone_mode is not read."""
        code, line = 0, None
        try:
            super().main(args, prog_name, standalone_mode=False, **extra)
        except click.exceptions.NoArgsIsHelpError as exc:
            click.echo(exc.format_message())
            code = 1
        except HypothesisError as exc:
            code, line = 2, f"diagnostic: {exc}"
        except ConvergenceError as exc:
            code, line = 3, f"convergence failure: {exc}"
        except click.ClickException as exc:
            code, line = 1, f"input error: {exc.format_message()}"
        except click.Abort:
            code, line = 1, "input error: aborted"
        except (ValueError, KeyError, OSError) as exc:
            code, line = 1, f"input error: {exc}"
        if line:
            click.echo(line, err=True)
        sys.exit(code)


@click.group(cls=_Commands)
@click.version_option(__version__)
def main():
    """Fractal interpolation, dimension prediction, and approximation tools."""


@main.command("predict-dim")
@click.option("--spec", "spec_arg", required=True, help="FifSpec JSON, {data, alpha} JSON, or a path")
@click.option("--mode", type=click.Choice(["box", "hausdorff"]), default="box", show_default=True)
def cmd_predict_dim(spec_arg, mode):
    """Closed-form dimension prediction for affine interpolation data."""
    obj = _load_json_arg(spec_arg)
    if "data" in obj:
        data = DataSet.from_points(obj["data"])
        alpha = obj["alpha"]
    else:
        spec = spec_from_json(obj)
        data = DataSet(spec.partition.knots, spec.ys)
        alpha = spec.alpha
    predict = predict_hausdorff_dim if mode == "hausdorff" else predict_box_dim
    report = predict(data, alpha)
    _echo_json(report.to_json())
    if report.predicted is None:
        raise HypothesisError(report.diagnostic)


@main.command("estimate-dim")
@click.option("--func", "func_arg", default=None, help="function JSON or path")
@click.option("--csv", "csv_path", default=None, type=click.Path(exists=True), help="x,y sample CSV")
@click.option("--m", "m", default=2 ** 20, show_default=True, help="sampling resolution")
@click.option("--jmin", default=4, show_default=True)
@click.option("--jmax", default=12, show_default=True)
@click.option("--out", "out_path", default=None, help="write per-scale counts CSV here")
def cmd_estimate_dim(func_arg, csv_path, m, jmin, jmax, out_path):
    """Box-counting dimension estimate with log-log regression."""
    if (func_arg is None) == (csv_path is None):
        raise ValueError("provide exactly one of --func or --csv")
    if func_arg is not None:
        grid = sample(_load_func(func_arg), m)
    else:
        grid = GridFunction.from_csv(csv_path)
    report = estimate_box_dim(grid, jmin, jmax)
    _echo_json(report.to_json())
    if out_path:
        report.scales_to_csv(out_path)


@main.command("approximate")
@click.option("--func", "func_arg", required=True, help="target function JSON or path")
@click.option("--beta", type=float, required=True)
@click.option("--mode", type=click.Choice(["box", "hausdorff", "dense", "derivative"]), required=True)
@click.option("--n", "n", type=int, default=4, show_default=True)
@click.option(
    "--m",
    "m",
    type=int,
    default=None,
    help=f"solve/sample resolution [default: {DEFAULT_RESOLUTION}; hausdorff mode: the largest "
    f"power of n up to {DEFAULT_RESOLUTION}, so the solve refines exactly]",
)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--nonneg", is_flag=True, help="derivative mode: request a nonnegative primitive")
@click.option("--out", "out_path", default=None, help="write approximant samples CSV here")
def cmd_approximate(func_arg, beta, mode, n, m, tol, nonneg, out_path):
    """Dimension-preserving approximant construction."""
    f = _load_func(func_arg)
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
        payload = {
            "mode": "hausdorff",
            "n": n,
            "alpha": result.spec.alpha[0],
            "sum_abs_alpha": result.sum_abs_alpha,
            "predicted": result.report.predicted,
            "perturbed": result.perturbed,
            "residual": fif.residual,
        }
        samples = fif
    elif mode == "dense":
        approx = dense_approximant(f, beta, n)
        payload = {
            "mode": "dense",
            "k": n,
            "beta": beta,
            "sup_err": sup_norm_diff(f, approx),
        }
        samples = sample(approx, m)
    else:
        result = derivative_dim_approximant(f, beta, n, nonneg_primitive=nonneg)
        payload = {
            "mode": "derivative",
            "n": n,
            "beta": beta,
            "primitive_at_0": result.primitive(0.0),
            "primitive_at_1": result.primitive(1.0),
            "min_primitive": result.min_primitive,
        }
        samples = sample(result.primitive, m)
    _echo_json(payload)
    if out_path:
        samples.to_csv(out_path)


@main.command("generate")
@click.argument("kind", type=click.Choice(["weierstrass", "fif", "chaos"]))
@click.option("--a", type=float, default=0.5, show_default=True)
@click.option("--b", type=float, default=3.0, show_default=True)
@click.option("--k", "k_max", type=int, default=None, help="weierstrass truncation")
@click.option("--spec", "spec_arg", default=None, help="FifSpec JSON or path (fif/chaos)")
@click.option("--m", "m", type=int, default=DEFAULT_RESOLUTION, show_default=True)
@click.option("--n-points", type=int, default=10 ** 5, show_default=True)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--out", "out_path", required=True)
def cmd_generate(kind, a, b, k_max, spec_arg, m, n_points, tol, seed, out_path):
    """Sample generators: rough series, fixed points, chaos-game points."""
    if kind == "weierstrass":
        sample(WeierstrassSeries(a, b, k_max), m).to_csv(out_path)
    elif kind == "fif":
        if spec_arg is None:
            raise ValueError("--spec is required for fif generation")
        fif = solve_fixed_point(spec_from_json(_load_json_arg(spec_arg)), m=m, tol=tol)
        fif.to_csv(out_path)
    else:
        if spec_arg is None:
            raise ValueError("--spec is required for chaos generation")
        pts = chaos_game(spec_from_json(_load_json_arg(spec_arg)), n_points, seed)
        write_xy_csv(out_path, pts[:, 0], pts[:, 1])


@main.command("extend")
@click.option("--domain", "domain_arg", required=True, help='{"intervals": [[a,b],...], "values": <func JSON>} or path')
@click.option("--beta", type=float, required=True)
@click.option("--m", "m", type=int, default=2 ** 20, show_default=True)
@click.option("--jmin", default=4, show_default=True)
@click.option("--jmax", default=12, show_default=True)
@click.option("--out", "out_path", default=None, help="write extension samples CSV here")
def cmd_extend(domain_arg, beta, m, jmin, jmax, out_path):
    """Continuous extension across gaps with prescribed dimension."""
    obj = _load_json_arg(domain_arg)
    domain = ExtensionDomain(obj["intervals"], func_from_json(obj["values"]))
    extended = extend_function(domain, beta)
    grid = sample(extended, m)
    report = estimate_box_dim(grid, jmin, jmax)
    payload = {
        "beta": beta,
        "max_jump": extended.max_jump,
        "estimated": report.estimated,
        "raw_slope": report.raw_slope,
        "r_squared": report.r_squared,
    }
    _echo_json(payload)
    if out_path:
        grid.to_csv(out_path)


if __name__ == "__main__":
    main()
