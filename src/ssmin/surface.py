"""Translation-surface frames, first fundamental form, and unit normals.

A translation surface sums two one-variable profiles f(u) + g(v) and places the
sum in one of three coordinate slots:

    Type I:   (u, v, f + g)
    Type II:  (u, f + g, v)
    Type III: (f + g, u, v)

In Minkowski space only spacelike points are admitted: EG - F^2 > 0 with the
Lorentzian ambient metric, equivalently the squared normalizer of the unit
normal is positive.  Normal orientations follow fixed per-type sign patterns;
they are never re-oriented.
"""

import math
from enum import Enum
from typing import NamedTuple

from .ambient import AmbientSpace, Signature, Vec3, ZERO, metric_inner
from .errors import DegenerateSurface
from .jets import Jet2, Profile

# EG - F^2 below this is treated as degenerate (downstream divides by it).
DEGENERACY_MARGIN = 1e-10


class TranslationType(Enum):
    I = "I"
    II = "II"
    III = "III"


class TranslationSurface(NamedTuple):
    ttype: TranslationType
    f: Profile
    g: Profile
    space: AmbientSpace


class FirstFundamental(NamedTuple):
    E: float
    F: float
    G: float

    @property
    def det(self) -> float:
        return self.E * self.G - self.F * self.F


class FramePoint(NamedTuple):
    """Tangent vectors, flat second partials, and the unit normal at a point."""

    ttype: TranslationType
    Fu: Vec3
    Fv: Vec3
    dFu_du: Vec3
    dFu_dv: Vec3
    dFv_du: Vec3
    dFv_dv: Vec3
    N: Vec3
    normalizer: float


def _tangents(ttype: TranslationType, f1: float, g1: float) -> tuple[Vec3, Vec3]:
    if ttype is TranslationType.I:
        return Vec3(1.0, 0.0, f1), Vec3(0.0, 1.0, g1)
    if ttype is TranslationType.II:
        return Vec3(1.0, f1, 0.0), Vec3(0.0, g1, 1.0)
    return Vec3(f1, 1.0, 0.0), Vec3(g1, 0.0, 1.0)


def _second_partials(ttype: TranslationType, f2: float, g2: float) -> tuple[Vec3, Vec3]:
    if ttype is TranslationType.I:
        return Vec3(0.0, 0.0, f2), Vec3(0.0, 0.0, g2)
    if ttype is TranslationType.II:
        return Vec3(0.0, f2, 0.0), Vec3(0.0, g2, 0.0)
    return Vec3(f2, 0.0, 0.0), Vec3(g2, 0.0, 0.0)


def _normal_direction(ttype: TranslationType, sig: Signature, f1: float, g1: float) -> Vec3:
    """Unnormalized normal with the fixed per-type orientation.

    The Lorentzian direction flips the X3 coefficient relative to the
    Euclidean one, so the normal of a spacelike surface stays timelike.
    """
    euclidean = sig is Signature.EUCLIDEAN
    if ttype is TranslationType.I:
        return Vec3(-f1, -g1, 1.0 if euclidean else -1.0)
    if ttype is TranslationType.II:
        return Vec3(f1, -1.0, g1 if euclidean else -g1)
    return Vec3(1.0, -f1, -g1 if euclidean else g1)


def _fundamental(sig: Signature, Fu: Vec3, Fv: Vec3) -> FirstFundamental:
    return FirstFundamental(
        metric_inner(sig, Fu, Fu),
        metric_inner(sig, Fu, Fv),
        metric_inner(sig, Fv, Fv),
    )


def _require_regular(sig: Signature, det: float, f1: float, g1: float) -> None:
    """Raise unless EG - F^2 clears the margin; a NaN determinant never does."""
    if not det >= DEGENERACY_MARGIN:
        reason = "degenerate" if sig is Signature.EUCLIDEAN else "degenerate or not spacelike"
        raise DegenerateSurface(f"{reason}: EG - F^2 = {det!r} at f'={f1!r}, g'={g1!r}")


def frame_from_jets(ttype: TranslationType, space: AmbientSpace,
                    fj: Jet2, gj: Jet2) -> FramePoint:
    """Frame built directly from profile jets; raises on degenerate points."""
    sig = space.signature
    Fu, Fv = _tangents(ttype, fj.d1, gj.d1)
    det = _fundamental(sig, Fu, Fv).det
    _require_regular(sig, det, fj.d1, gj.d1)
    duu, dvv = _second_partials(ttype, fj.d2, gj.d2)
    normalizer = math.sqrt(det)
    n = _normal_direction(ttype, sig, fj.d1, gj.d1) * (1.0 / normalizer)
    return FramePoint(ttype, Fu, Fv, duu, ZERO, ZERO, dvv, n, normalizer)


def immersion(ttype: TranslationType, u, v, h):
    """Ambient coordinates in the slot order of the type, h = f(u) + g(v) being the
    height.  u, v and h may be numbers or whole columns alike, such as text."""
    if ttype is TranslationType.I:
        return u, v, h
    if ttype is TranslationType.II:
        return u, h, v
    return h, u, v
