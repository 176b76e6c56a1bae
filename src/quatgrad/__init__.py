"""quatgrad: quaternion calculus with left/right restricted HR gradients.

The package provides exact quaternion arithmetic with involutions and
polar form, the left and right restricted HR gradient operators with their
product and chain rules, forward-mode jets for composing real gradients,
closed-form derivatives of power-series (regular) functions, the full real
gradient of exp, ln, tanh and (q - c)^n through their intrinsic complex
lift, a finite-difference verification oracle, and a QLMS adaptive filter
with a system-identification harness.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (DomainError, InconsistentQuadruple, LengthMismatch,
                     NonFiniteComponent, NotRealValued, OutsideAnnulus,
                     PoleError, QuatGradError, SideMismatch)
from .hr import (HRGradient, IDENTITY_GRADIENT, JACOBIAN, QJet, RealGradient,
                 Side, chain_matrix_components, chain_matrix_involutions,
                 chain_rule_first, chain_rule_second, chain_rule_third,
                 differential, hr_from_real, jet_const, jet_exp, jet_pow,
                 jet_seed, jet_tanh, left_from_real, product_rule_first,
                 product_rule_first_right, qmat_conj_transpose,
                 qmat_from_real, qmat_mul, qmat_scale, real_from_left,
                 real_from_right, real_jacobian, real_valued_reduce,
                 right_from_real)
from .quaternion import (AxisUnit, IMAGINARY_AXES, ONE, PolarForm, QI, QJ, QK,
                         Quaternion, ZERO, components_from_involutions,
                         isclose, polar)
from .regular import (Elementary, PowerSeriesFn, cosh_abs_sq, exp_derivative,
                      exp_q, exp_series, ln_derivative, ln_q,
                      ln_real_gradient, power_derivative,
                      power_derivative_oracle, real_axis_limit_check,
                      symmetric_ratio, tanh_derivative, tanh_q, tanh_series)

__version__ = "0.1.0"

# fd's and qlms's public names, each with its module; both modules are
# imported on first use (PEP 562), so eval-grad loads neither
_LAZY = {name: module for module, names in (
    ("fd", ("FDConfig", "convergence_order", "default_step", "gradient_error",
            "hr_gradient_fd", "real_partials_fd", "rel_error")),
    ("qlms", ("ConvergenceRecord", "DIVERGENCE_LIMIT", "ExperimentConfig",
              "FilterState", "SamplePair", "StabilityWarning", "cost_gradient",
              "error_signal", "predict", "read_record_csv",
              "run_system_identification", "update_step",
              "write_record_csv")),
) for name in names}

# the names imported above and the lazy ones; not the submodules the imports
# bind as a side effect
__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, _ModuleType)] + list(_LAZY)


def __getattr__(name):
    """A lazy name or module, imported on first access and then bound here,
    so that later lookups do not come back to this hook."""
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
