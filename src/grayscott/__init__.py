"""Spectral simulation and verification harness for a stochastic
activator-inhibitor system with fractional inhibitor diffusion and
linear multiplicative noise."""

__version__ = "0.1.0"

from .config import RunConfig, parse_config
from .errors import (
    GrayScottError,
    NoConvergence,
    NonFinite,
    ParseError,
    ValidationError,
)
from .estimators import (
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
    check_embedding,
    check_noise,
    check_rho_window,
    check_spaces,
    evaluate_gate,
)
from .spectral import (
    SpaceConfig,
    SpectralField,
    constant_field,
    lp_norm,
    mode_field,
    sobolev_norm,
)
