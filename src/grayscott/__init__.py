"""Spectral simulation and verification harness for a stochastic
activator-inhibitor system with fractional inhibitor diffusion and
linear multiplicative noise."""

__version__ = "0.1.0"

from .config import InitialData, RunConfig, dump_config, parse_config
from .errors import (
    GrayScottError,
    NegativePowerOnZeroMode,
    NoConvergence,
    NonFinite,
    ParseError,
    ScheduleExhausted,
    ValidationError,
)
from .estimators import (
    MomentReport,
    estimate_coupling,
    estimate_u_L2,
    estimate_u_pstar,
    estimate_v_Halpha,
    stroock_varopoulos_check,
    trace_diagnostic,
)
from .fixedpoint import (
    ControlPair,
    KSetConstants,
    apply_V,
    compute_kset_constants,
    kset_check,
    picard_solve,
)
from .integrate import (
    MildIntegrator,
    ModelParams,
    PathRecord,
    pathspace_norm,
    simulate_ensemble,
    simulate_glued,
    smooth_cutoff,
)
from .noise import NoiseConfig, WienerSource, hs_tail_sum
from .paramgate import (
    GateCondition,
    GateReport,
    check_embedding,
    check_noise,
    check_rho_window,
    check_spaces,
    evaluate_gate,
)
from .spectral import (
    SpaceConfig,
    SpectralField,
    apply_fractional_laplacian,
    constant_field,
    lp_norm,
    mode_field,
    semigroup_step,
    sobolev_norm,
)
