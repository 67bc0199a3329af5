"""Fractal interpolation with prescribed dimension and box-counting tools."""

__version__ = "0.1.0"

from .errors import (
    BetaRangeError,
    CollinearDataError,
    ConditionError,
    ConvergenceError,
    DegenerateDenominatorError,
    DomainError,
    FracdimError,
    HypothesisError,
    ScaleError,
)
from .functions import (
    AntiDerivative,
    Func,
    GridFunction,
    Partition,
    Polynomial,
    Scaled,
    Shifted,
    Sum,
    WeierstrassSeries,
    func_from_json,
    func_to_json,
    lipschitz_estimate,
    sample,
    sup_norm_diff,
    write_xy_csv,
)
from .bernstein import (
    BernsteinFunc,
    BernsteinPoly,
    bernstein_build,
    bernstein_derivative_eval,
    bernstein_eval,
    modulus_smoothness,
    totik_error_report,
)
from .fif import (
    AffineBranch,
    AlphaFractalBranch,
    FifFunction,
    FifSpec,
    affine_branch_coeffs,
    affine_map_params,
    chaos_game,
    make_affine_spec,
    make_alpha_fractal_spec,
    rb_apply,
    self_ref_residual,
    solve_fixed_point,
    spec_from_json,
    spec_to_json,
)
from .dimension import (
    DataSet,
    DimReport,
    box_count,
    collinear,
    dimension_equation_root,
    estimate_box_dim,
    hausdorff_condition,
    predict_box_dim,
    predict_hausdorff_dim,
)
from .pipeline import (
    Anchor,
    ExtensionDomain,
    dense_approximant,
    derivative_dim_approximant,
    dim_preserving_sequence,
    extend_function,
    hausdorff_preserving_sequence,
    lipschitz_invariance_check,
    make_anchor,
)
