"""Numerics for variable-exponent Lebesgue spaces.

The package computes modulars and Luxemburg norms for piecewise exponent
functions (including the value infinity), fractional averaging and maximal
operators on grids, harmonic means of exponents over cubes, and normalized
norm-product constants over cube families.  A set of worked constructions
reproduces the quantitative behaviour of several known examples at desk
scale, and a CLI exposes the lot as reproducible experiment runs.

Only the exceptions load with the package.  Every other public name, and
every submodule, loads its module on first read (PEP 562) and is looked
up in that module on every read, so nothing is bound here but the
modules themselves: `import varlp` and the operator commands never load
the norm stack they do not call.
"""

import importlib as _importlib

from .errors import (
    ConstructionError,
    DomainError,
    PreconditionError,
    SpecParseError,
    VarlpError,
)

__version__ = "0.1.0"

# the module each public name is read from
_PUBLIC = {
    "exponent": (
        "BumpsPiece", "CenterSequence", "ConstantPiece", "ExponentFunction",
        "PlateauBump", "Strata", "conjugate", "evaluate", "from_spec",
        "lh0_modulus", "load_spec", "sobolev_dual", "to_spec",
    ),
    "grid": (
        "Cube", "GridDomain", "GridFunction", "MeasurableSet", "as_box",
    ),
    "norms": (
        "duality_constant", "harmonic_mean", "holder_constant",
        "holder_pairing_check", "interval_indicator_modular",
        "interval_indicator_norm", "interval_integral", "luxemburg_norm",
        "mean_inverse_exponent", "modular", "set_norm",
    ),
    "operators": (
        "DYADIC", "EXACT", "FractionalKernel", "TUPair", "averaging_op", "box_sums",
        "covering_cube", "cube_average", "czo_pair_lower_bound",
        "fractional_maximal", "fractional_maximal_uncentered",
        "kernel_sign_coherent", "kernel_threshold", "make_tu_pair",
        "maximal_pair_lower_bound", "riesz_gamma", "riesz_kernel",
        "riesz_potential",
    ),
    "k0": (
        "CubeFamily", "averaging_uniform_bound", "dual_witness", "k0alpha_constant",
        "k0alpha_iff_k0_check", "minimal_harmonic_mean_cube",
        "norm_harmonic_sandwich", "subdivision_identity_gap",
    ),
    "constructions": (
        "EXAMPLE_NAMES", "BlowupFamily", "BlowupLevel", "ExampleSpec",
        "blowup_family_k0", "blowup_growth_floor", "blowup_modular_growth",
        "blowup_threshold", "blowup_threshold_identity_residual", "build_blowup",
        "build_ex61", "build_ex62", "build_ex63", "build_ex64", "build_l1_failure",
        "check_blowup_geometry", "default_blowup_exponent", "ex61_divergence_check",
        "ex61_interval_constant_scan", "ex61_local_window", "ex61_sets",
        "hm_counterexample", "l1_failure_maximal_closed_form",
        "two_sided_interval_check", "witness_check", "witness_interval",
        "witness_norm_check",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_MODULE_OF))


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a loaded submodule is bound here by the import system; a name read
    # from it is never bound, so every read sees the module's binding
    mod = globals().get(module) or _importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted(__all__ + [name for name in globals() if name.startswith("__")
                             and name not in ("__getattr__", "__dir__")])
