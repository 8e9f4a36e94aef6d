"""Verification engine for minimal translation surfaces with respect to
semi-symmetric metric and non-metric connections in Euclidean and Minkowski
3-space."""

__version__ = "0.1.0"

from .ambient import (
    AmbientSpace,
    ConnectionKind,
    Signature,
    Vec3,
    X1,
    X2,
    X3,
    covariant_derivative,
    metric_inner,
    torsion,
)
from .jets import (
    Interval,
    Jet2,
    Profile,
    QuadratureSpec,
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
    first_fundamental,
    frame,
    immersion,
)
from .curvature import CurvatureReport, SigmaMatrix, mean_curvature, second_form
from .pde import (
    CaseId,
    SeparationConstants,
    equivalence_factor,
    equivalence_sweep,
    residual,
    separation_check,
)
from .ode import OdeCase, OdeId, Trajectory, compare_profile, integrate, substitution_check
from .catalog import (
    AdmissibleDomain,
    Branch,
    FamilyId,
    SolutionFamily,
    build,
    default_settings,
    make_family,
    verify_family,
    verify_residual,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
