"""dirimor: numerical toolkit for Dirichlet-Morrey function spaces on the unit disc."""

from .analytic import (
    AnalyticFunction,
    BoundaryPoint,
    EvaluationDomainError,
    SpaceParams,
    TruncationError,
    constant,
    log_kernel,
    make_gap_series,
    make_power_kernel,
    make_taylor,
    mobius_apply,
    mobius_translate,
)
from .quadrature import (
    Arc,
    QuadratureError,
    QuadratureResult,
    RadialAnnuliGrid,
    arc_double_integral,
    integrate_disc,
    integrate_lune,
)
from .norms import (
    NormReport,
    ParamGrid,
    UnsupportedFunctionError,
    boundary_double_seminorm,
    dirichlet_norm,
    dirichlet_norm_coeff,
    dm_norm_translate,
    dm_norms_translate,
    dm_seminorm_box,
    general_morrey_norm,
    gpcm_quantity,
    growth_envelope,
    hinf_sup,
    qp_log_quantity,
    qp_quantity,
    translate_seminorm,
)
from .operators import (
    IG,
    JG,
    MG,
    RatioScanReport,
    apply_Ig,
    apply_Jg,
    apply_Mg,
    ibp_residual,
    make_test_family,
    ratio_scan,
)
from .gaps import (
    GapCoefficients,
    gap_block_sums,
    pzh_check,
    remark_example,
    yamashita_limsup,
)
from .verify import RunConfig, emit_report, parse_function_spec, run_verification

__version__ = "0.1.0"
