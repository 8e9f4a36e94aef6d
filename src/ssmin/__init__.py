"""Verification engine for minimal translation surfaces with respect to
semi-symmetric metric and non-metric connections in Euclidean and Minkowski
3-space."""

__version__ = "0.1.0"

from .ambient import (
    AmbientSpace,
    ConnectionKind,
    Signature,
    Vec3,
    metric_inner,
)
from .jets import (
    Interval,
    Jet2,
    Profile,
    adaptive_simpson,
    affine_profile,
    log_abs_cos_profile,
    log_abs_exp_profile,
    profile_quadrature,
)
from .surface import (
    FirstFundamental,
    FramePoint,
    TranslationSurface,
    TranslationType,
    immersion,
)
from .pde import CaseId, equivalence_sweep, residual
from .ode import OdeCase, OdeId, Trajectory, compare_profile, integrate
from .catalog import (
    AdmissibleDomain,
    Branch,
    FamilyId,
    SolutionFamily,
    build,
    default_settings,
    make_family,
    verify_auto,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
