"""dklb: a spectral laboratory for dissipative third-order wave models.

The equation family is u_t + u_xxx + eta*L*u + u*u_x = 0 on a periodic
domain, where L is a Fourier multiplier with damping symbol Phi.  The
package computes with the exact flow multiplier, iterates the integral
(Duhamel) form to a fixed point, runs an independent ETDRK4 integrator,
and measures the smoothing, weighted-persistence, and weight-conjugation
inequalities that make the fixed-point argument close.
"""

from .brackets import (
    Bracket,
    BracketExpression,
    GaussPoly,
    eval_bracket,
    eval_expression,
    evenodd_expand,
    reduce_bracket,
    reduction_residual,
)
from .config import ExperimentConfig, load_config
from .conjugation import (
    ConjugationResult,
    ExchangeReport,
    ProbeReport,
    conjugation_check,
    exchange_ensemble,
    operator_polynomial,
    regularity_gain_probe,
    shifted_multiplier,
    weight_exchange_check,
)
from .errors import (
    ConfigError,
    DklbError,
    LeakageError,
    NumericalError,
    OverflowGuardWarning,
)
from .fields import (
    gaussian,
    gaussian_spectral,
    mollified_cusp,
    normalize_l2,
    random_mixture,
    sample_ensemble,
)
from .grid import (
    SpectralField,
    SpectralGrid,
    Trajectory,
    WeightSpec,
    apply_multiplier,
    boundary_leakage,
    dealiased_product,
    fractional_D,
    from_values,
    l2_norm,
    parse_weight,
    read_snapshot,
    to_values,
    write_snapshot,
)
from .norms import (
    A2,
    A3,
    A6,
    NormEnsembleReport,
    SmoothingParams,
    alpha,
    hs_norm,
    lambda_diagnostics,
    lp_norm,
    mixed_norm,
    smoothing_A,
    verify_smoothing,
    weighted_norm,
)
from .plots import emit_plot
from .solver import (
    ContractionReport,
    apply_semigroup,
    dissipation_residuals,
    etdrk4_solve,
    existence_time,
    linear_trajectory,
    nonlinearity,
    picard_solve,
)
from .symbols import (
    EXP_REAL_CAP,
    ModelPreset,
    PhaseFunction,
    PhaseTerm,
    kdvb,
    kdvks,
    optimality,
    ost,
    preset,
    semigroup_multiplier,
    weighted_multiplier_sup,
)

__version__ = "0.1.0"
