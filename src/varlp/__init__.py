"""Numerics for variable-exponent Lebesgue spaces.

The package computes modulars and Luxemburg norms for piecewise exponent
functions (including the value infinity), fractional averaging and maximal
operators on grids, harmonic means of exponents over cubes, and normalized
norm-product constants over cube families.  A set of worked constructions
reproduces the quantitative behaviour of several known examples at desk
scale, and a CLI exposes the lot as reproducible experiment runs.
"""

from .errors import (
    ConstructionError,
    DomainError,
    PreconditionError,
    SpecParseError,
    VarlpError,
)
from .exponent import (
    BumpsPiece,
    CenterSequence,
    ConstantPiece,
    ExponentFunction,
    PlateauBump,
    Strata,
    conjugate,
    evaluate,
    from_spec,
    lh0_modulus,
    load_spec,
    sobolev_dual,
    to_spec,
)
from .grid import Cube, GridDomain, GridFunction, MeasurableSet, as_box
from .norms import (
    duality_constant,
    harmonic_mean,
    holder_constant,
    holder_pairing_check,
    interval_indicator_modular,
    interval_indicator_norm,
    interval_integral,
    luxemburg_norm,
    mean_inverse_exponent,
    modular,
    set_norm,
)
from .operators import (
    DYADIC,
    EXACT,
    FractionalKernel,
    TUPair,
    averaging_op,
    box_sums,
    covering_cube,
    cube_average,
    czo_pair_lower_bound,
    fractional_maximal,
    fractional_maximal_uncentered,
    kernel_sign_coherent,
    kernel_threshold,
    make_tu_pair,
    maximal_pair_lower_bound,
    riesz_gamma,
    riesz_kernel,
    riesz_potential,
)
from .k0 import (
    CubeFamily,
    averaging_uniform_bound,
    dual_witness,
    k0_constant,
    k0alpha_constant,
    k0alpha_iff_k0_check,
    minimal_harmonic_mean_cube,
    norm_harmonic_sandwich,
    subdivision_identity_gap,
)
from .constructions import (
    EXAMPLE_NAMES,
    BlowupFamily,
    BlowupLevel,
    ExampleSpec,
    blowup_family_k0,
    blowup_growth_floor,
    blowup_modular_growth,
    blowup_threshold,
    blowup_threshold_identity_residual,
    build_blowup,
    build_ex61,
    build_ex62,
    build_ex63,
    build_ex64,
    build_l1_failure,
    check_blowup_geometry,
    default_blowup_exponent,
    ex61_divergence_check,
    ex61_interval_constant_scan,
    ex61_local_window,
    ex61_sets,
    hm_counterexample,
    l1_failure_maximal_closed_form,
    two_sided_interval_check,
    witness_check,
    witness_interval,
    witness_norm_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
