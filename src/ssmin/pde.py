"""Closed-form minimality residuals for the classified cases.

Each case couples an ambient signature, a semi-symmetric connection kind, and
the surface types sharing one minimality PDE.  The residual is the closed-form
left side of that PDE, evaluated on profile jets; a surface of the case is
minimal exactly where the residual vanishes.  The non-metric residuals are
stored product-cleared, i.e. multiplied through by (1 +- f'^2)(1 +- g'^2), so
they are polynomial in the jets and free of spurious singularities.

The equivalence factor lambda ties the residual back to the general mean
curvature numerator: lambda * numerator = residual, where lambda is the frame
normalizer with a fixed per-(case, type) sign.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .ambient import ConnectionKind, Signature
from .curvature import _curvature_kernel
from .errors import IllConditionedFit, UnknownCase, VerifierError
from .jets import Jet2
from .sampling import SplitMix64
from .surface import (
    TranslationType,
    frame_from_jets,  # noqa: F401  perfbench's tracer test patches it in this namespace
)


class CaseId(Enum):
    E_M_I = "E_M_I"
    E_M_II_III = "E_M_II_III"
    E_NM_ALL = "E_NM_ALL"
    L_M_I = "L_M_I"
    L_M_II_III = "L_M_II_III"
    L_NM_I = "L_NM_I"
    L_NM_II_III = "L_NM_II_III"


CASE_SPACE: dict[CaseId, tuple[Signature, ConnectionKind, tuple[TranslationType, ...]]] = {
    CaseId.E_M_I: (
        Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_METRIC,
        (TranslationType.I,),
    ),
    CaseId.E_M_II_III: (
        Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_METRIC,
        (TranslationType.II, TranslationType.III),
    ),
    CaseId.E_NM_ALL: (
        Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
        (TranslationType.I, TranslationType.II, TranslationType.III),
    ),
    CaseId.L_M_I: (
        Signature.LORENTZIAN, ConnectionKind.SEMI_SYMMETRIC_METRIC,
        (TranslationType.I,),
    ),
    CaseId.L_M_II_III: (
        Signature.LORENTZIAN, ConnectionKind.SEMI_SYMMETRIC_METRIC,
        (TranslationType.II, TranslationType.III),
    ),
    CaseId.L_NM_I: (
        Signature.LORENTZIAN, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
        (TranslationType.I,),
    ),
    CaseId.L_NM_II_III: (
        Signature.LORENTZIAN, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
        (TranslationType.II, TranslationType.III),
    ),
}


# Closed-form residual of each case as a function of (f', f'', g', g'').
_RESIDUALS: dict[CaseId, Callable[[float, float, float, float], float]] = {
    CaseId.E_M_I: lambda f1, f2, g1, g2: (
        f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 + f2 + g2 - 2.0),
    CaseId.E_M_II_III: lambda f1, f2, g1, g2: (
        2.0 * g1 ** 3 + 2.0 * f1 * f1 * g1 + g1 * g1 * f2 + f1 * f1 * g2 + f2 + g2 + 2.0 * g1),
    CaseId.E_NM_ALL: lambda f1, f2, g1, g2: (1.0 + g1 * g1) * f2 + (1.0 + f1 * f1) * g2,
    CaseId.L_M_I: lambda f1, f2, g1, g2: (
        f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 - f2 - g2 + 2.0),
    CaseId.L_M_II_III: lambda f1, f2, g1, g2: (
        2.0 * g1 ** 3 - 2.0 * f1 * f1 * g1 + g1 * g1 * f2 + f1 * f1 * g2 - f2 + g2 - 2.0 * g1),
    CaseId.L_NM_I: lambda f1, f2, g1, g2: (1.0 - g1 * g1) * f2 + (1.0 - f1 * f1) * g2,
    CaseId.L_NM_II_III: lambda f1, f2, g1, g2: (1.0 - g1 * g1) * f2 - (1.0 + f1 * f1) * g2,
}


def _residual_of(case: CaseId) -> Callable[[float, float, float, float], float]:
    """The residual of a case as a function of (f', f'', g', g''); UnknownCase if none."""
    fn = _RESIDUALS.get(case)
    if fn is None:
        raise UnknownCase(repr(case))
    return fn


def residual(case: CaseId, fj: Jet2, gj: Jet2) -> float:
    """Closed-form minimality residual; zero exactly on minimal surfaces."""
    return _residual_of(case)(fj.d1, fj.d2, gj.d1, gj.d2)


# Sign of lambda in lambda * numerator = residual.  The sign flips between
# Type II and Type III because their fixed normal orientations are opposite
# under the coordinate swap relating the two types.
_EQUIVALENCE_SIGN: dict[tuple[CaseId, TranslationType], float] = {
    (CaseId.E_M_I, TranslationType.I): 1.0,
    (CaseId.E_M_II_III, TranslationType.II): -1.0,
    (CaseId.E_M_II_III, TranslationType.III): 1.0,
    (CaseId.E_NM_ALL, TranslationType.I): 1.0,
    (CaseId.E_NM_ALL, TranslationType.II): -1.0,
    (CaseId.E_NM_ALL, TranslationType.III): 1.0,
    (CaseId.L_M_I, TranslationType.I): -1.0,
    (CaseId.L_M_II_III, TranslationType.II): -1.0,
    (CaseId.L_M_II_III, TranslationType.III): 1.0,
    (CaseId.L_NM_I, TranslationType.I): 1.0,
    (CaseId.L_NM_II_III, TranslationType.II): 1.0,
    (CaseId.L_NM_II_III, TranslationType.III): -1.0,
}


# Bound on the relative deviation |lambda * numerator - residual| / (1 + |residual|).
EQUIVALENCE_TOLERANCE = 1e-10


class EquivalenceRecord(NamedTuple):
    case: CaseId
    n_samples: int
    attempts: int
    acceptance_rate: float
    max_rel_deviation: float
    tolerance: float
    verdict: bool


def equivalence_sweep(case: CaseId, n_samples: int, seed: int,
                      tolerance: float | None = None) -> EquivalenceRecord:
    """Check lambda * numerator = residual on seeded admissible jet samples.

    Cases spanning Types II and III alternate between the two types so both
    frame bindings are exercised.  Lorentzian samples outside the spacelike
    region are rejected and counted.  Each draws f' then g' from its type's
    box, and f'' then g'' only once the pair is admitted.
    """
    if n_samples < 1:
        raise VerifierError(f"n_samples must be >= 1, got {n_samples}")
    sig, kind, types = CASE_SPACE[case]
    kernel, res_fn, unit = _curvature_kernel, _RESIDUALS[case], SplitMix64(seed).unit
    # per type: (type, sign, f' low end and width, g' low end and width, spacelike gate);
    # Lorentzian gate 1 (Type I) admits 1 - f'^2 - g'^2 >= 1e-3, gate 2 g'^2 - f'^2 - 1 >= 1e-3
    slots = []
    for ttype in types:
        if sig is Signature.EUCLIDEAN:
            fw, gw, gate = 2.5, 2.5, 0
        elif ttype is TranslationType.I:
            fw, gw, gate = 1.2, 1.2, 1
        else:
            fw, gw, gate = 1.5, 2.6, 2
        slots.append((ttype, _EQUIVALENCE_SIGN[(case, ttype)],
                      -fw, fw - -fw, -gw, gw - -gw, gate))
    n_slots, cap = len(slots), 1000 * n_samples
    worst = 0.0
    attempts = 0
    accepted = 0
    while accepted < n_samples:
        attempts += 1
        if attempts > cap:
            raise IllConditionedFit(f"sampler starved for case {case.value}")
        ttype, sign, f_lo, f_span, g_lo, g_span, gate = slots[accepted % n_slots]
        f1 = f_lo + f_span * unit()
        g1 = g_lo + g_span * unit()
        if gate == 1 and not 1.0 - f1 * f1 - g1 * g1 >= 1e-3:
            continue
        if gate == 2 and not g1 * g1 - f1 * f1 - 1.0 >= 1e-3:
            continue
        # f'' and g'' on [-3, 3]
        f2 = -3.0 + 6.0 * unit()
        g2 = -3.0 + 6.0 * unit()
        k = kernel(ttype, sig, kind, f1, f2, g1, g2)
        res = res_fn(f1, f2, g1, g2)
        # k[4] is the normalizer and k[-1] the numerator; a NaN deviation sticks as the worst
        err = abs((sign * k[4]) * k[-1] - res) / (1.0 + abs(res))
        if err > worst or err != err:
            worst = err
        accepted += 1
    tol = tolerance if tolerance is not None else EQUIVALENCE_TOLERANCE
    return EquivalenceRecord(case, n_samples, attempts, accepted / attempts, worst,
                             tol, worst <= tol)
