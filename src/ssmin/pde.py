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
from typing import Sequence

import numpy as np

from .ambient import AmbientSpace, ConnectionKind, Signature
from .curvature import mean_curvature_from_jets
from .errors import IllConditionedFit, UnknownCase
from .jets import Jet2, Profile
from .sampling import SplitMix64, _worse
from .surface import (
    FramePoint,
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


def case_for(sig: Signature, kind: ConnectionKind, ttype: TranslationType) -> CaseId:
    for case, (csig, ckind, types) in CASE_SPACE.items():
        if csig is sig and ckind is kind and ttype in types:
            return case
    raise UnknownCase(f"no classified case for ({sig}, {kind}, type {ttype.value})")


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


def _equivalence_sign(case: CaseId, ttype: TranslationType) -> float:
    try:
        return _EQUIVALENCE_SIGN[(case, ttype)]
    except KeyError:
        raise UnknownCase(
            f"case {case.value} does not apply to surface type {ttype.value}"
        ) from None


def equivalence_factor(case: CaseId, fr: FramePoint) -> float:
    """Signed factor lambda with lambda * numerator = residual at the frame point."""
    return _equivalence_sign(case, fr.ttype) * fr.normalizer


@dataclass(frozen=True)
class SeparationConstants:
    c0: float
    c1: float
    c2: float | None
    deviation: float


def separation_check(case: CaseId, f: Profile, g: Profile,
                     u_samples: Sequence[float],
                     v_samples: Sequence[float]) -> SeparationConstants:
    """Fit the separated reduced form of a case by least squares.

    E_M_I fits f'' = (c0/2) f'^2 + c1 together with g'' = -(c0/2) g'^2 + c2
    (shared c0).  E_M_II_III and L_M_II_III fit the profile-f side
    f'' = (c0/2) f'^2 + c1 only; their g-side separation is third order and is
    certified through the reduced-ODE checks instead.  A deviation below 1e-8
    certifies membership in the separated family.
    """
    if case not in (CaseId.E_M_I, CaseId.E_M_II_III, CaseId.L_M_II_III):
        raise UnknownCase(f"no separated form is fitted for case {case.value}")
    if len(u_samples) < 3:
        raise IllConditionedFit("need at least 3 u samples")

    fjets = [f.at(u) for u in u_samples]
    fsq = [j.d1 * j.d1 for j in fjets]
    if max(fsq) - min(fsq) < 1e-9:
        raise IllConditionedFit("f'^2 is constant across samples")

    with_g = case is CaseId.E_M_I and len(v_samples) > 0
    rows, rhs = [], []
    for j, s in zip(fjets, fsq):
        rows.append([0.5 * s, 1.0, 0.0] if with_g else [0.5 * s, 1.0])
        rhs.append(j.d2)
    if with_g:
        for v in v_samples:
            gj = g.at(v)
            rows.append([-0.5 * gj.d1 * gj.d1, 0.0, 1.0])
            rhs.append(gj.d2)

    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise IllConditionedFit("separation fit is rank deficient")
    deviation = float(np.max(np.abs(a @ solution - b)))
    c2 = float(solution[2]) if with_g else None
    return SeparationConstants(float(solution[0]), float(solution[1]), c2, deviation)


@dataclass(frozen=True)
class EquivalenceRecord:
    case: CaseId
    n_samples: int
    attempts: int
    acceptance_rate: float
    max_rel_deviation: float


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


def equivalence_sweep(case: CaseId, n_samples: int, seed: int) -> EquivalenceRecord:
    """Check lambda * numerator = residual on seeded admissible jet samples.

    Cases spanning Types II and III alternate between the two types so both
    frame bindings are exercised.  Lorentzian samples outside the spacelike
    region are rejected and counted.
    """
    sig, kind, types = CASE_SPACE[case]
    space = AmbientSpace(sig, kind)
    signs = tuple(_equivalence_sign(case, ttype) for ttype in types)
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
        report = mean_curvature_from_jets(ttype, space, kind, fj, gj)
        res = residual(case, fj, gj)
        lam = signs[which] * report.normalizer
        dev = abs(lam * report.numerator - res) / (1.0 + abs(res))
        worst = _worse(worst, dev)
        accepted += 1
    return EquivalenceRecord(case, n_samples, attempts, accepted / attempts, worst)
