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

from dataclasses import dataclass
from enum import Enum

from .ambient import ConnectionKind, Signature
from .curvature import _curvature_kernel
from .errors import IllConditionedFit, UnknownCase
from .jets import Jet2
from .sampling import SplitMix64, _worse
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


def residual(case: CaseId, fj: Jet2, gj: Jet2) -> float:
    """Closed-form minimality residual; zero exactly on minimal surfaces."""
    f1, f2 = fj.d1, fj.d2
    g1, g2 = gj.d1, gj.d2
    if case is CaseId.E_M_I:
        return f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 + f2 + g2 - 2.0
    if case is CaseId.E_M_II_III:
        return (2.0 * g1 ** 3 + 2.0 * f1 * f1 * g1 + g1 * g1 * f2
                + f1 * f1 * g2 + f2 + g2 + 2.0 * g1)
    if case is CaseId.E_NM_ALL:
        return (1.0 + g1 * g1) * f2 + (1.0 + f1 * f1) * g2
    if case is CaseId.L_M_I:
        return f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 - f2 - g2 + 2.0
    if case is CaseId.L_M_II_III:
        return (2.0 * g1 ** 3 - 2.0 * f1 * f1 * g1 + g1 * g1 * f2
                + f1 * f1 * g2 - f2 + g2 - 2.0 * g1)
    if case is CaseId.L_NM_I:
        return (1.0 - g1 * g1) * f2 + (1.0 - f1 * f1) * g2
    if case is CaseId.L_NM_II_III:
        return (1.0 - g1 * g1) * f2 - (1.0 + f1 * f1) * g2
    raise UnknownCase(repr(case))


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


@dataclass(frozen=True)
class EquivalenceRecord:
    case: CaseId
    n_samples: int
    attempts: int
    acceptance_rate: float
    max_rel_deviation: float
    tolerance: float
    verdict: bool


def _draw_first_derivatives(rng: SplitMix64, sig: Signature,
                            ttype: TranslationType) -> tuple[float, float]:
    if sig is Signature.EUCLIDEAN:
        return rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
    if ttype is TranslationType.I:
        return rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
    return rng.uniform(-1.5, 1.5), rng.uniform(-2.6, 2.6)


def _admissible(sig: Signature, ttype: TranslationType, f1: float, g1: float) -> bool:
    if sig is Signature.EUCLIDEAN:
        return True
    if ttype is TranslationType.I:
        return 1.0 - f1 * f1 - g1 * g1 >= 1e-3
    return g1 * g1 - f1 * f1 - 1.0 >= 1e-3


def equivalence_sweep(case: CaseId, n_samples: int, seed: int,
                      tolerance: float | None = None) -> EquivalenceRecord:
    """Check lambda * numerator = residual on seeded admissible jet samples.

    Cases spanning Types II and III alternate between the two types so both
    frame bindings are exercised.  Lorentzian samples outside the spacelike
    region are rejected and counted.
    """
    sig, kind, types = CASE_SPACE[case]
    signs = tuple(_EQUIVALENCE_SIGN[(case, ttype)] for ttype in types)
    rng = SplitMix64(seed)
    worst = 0.0
    attempts = 0
    accepted = 0
    while accepted < n_samples:
        attempts += 1
        if attempts > 1000 * n_samples:
            raise IllConditionedFit(f"sampler starved for case {case.value}")
        which = accepted % len(types)
        ttype = types[which]
        f1, g1 = _draw_first_derivatives(rng, sig, ttype)
        if not _admissible(sig, ttype, f1, g1):
            continue
        fj = Jet2(0.0, f1, rng.uniform(-3.0, 3.0))
        gj = Jet2(0.0, g1, rng.uniform(-3.0, 3.0))
        kernel = _curvature_kernel(ttype, sig, kind, f1, fj.d2, g1, gj.d2)
        res = residual(case, fj, gj)
        lam = signs[which] * kernel[4]  # the normalizer; kernel[-1] is the numerator
        dev = abs(lam * kernel[-1] - res) / (1.0 + abs(res))
        worst = _worse(worst, dev)
        accepted += 1
    tol = tolerance if tolerance is not None else EQUIVALENCE_TOLERANCE
    return EquivalenceRecord(case, n_samples, attempts, accepted / attempts, worst,
                             tol, worst <= tol)
