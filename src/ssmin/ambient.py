"""Ambient 3-space geometry: two metrics and three connections.

Everything is expressed in the global frame X1, X2, X3.  The inner product is
either Euclidean (+,+,+) or Lorentzian diag(+1, +1, -1).  Both semi-symmetric
connections add a torsion correction built from the fixed generator X3 to the
flat directional derivative D_X W:

    metric kind:      D_X W + <W, X3> X - <X, W> X3
    non-metric kind:  D_X W + <W, X3> X

The Levi-Civita connection of either metric has all frame derivatives zero, so
it adds nothing.

On a surface only the normal parts of these corrections reach the mean
curvature, and `<W, X3> X` is tangent, so `curvature._curvature_kernel` keeps
only the metric kind's `-<X, W> X3`.  As vector functions on the frame X1, X2,
X3 the connections are test oracles, in `tests/oracles.py`.
"""

from enum import Enum
from typing import NamedTuple


class Signature(Enum):
    EUCLIDEAN = "euclidean"
    LORENTZIAN = "lorentzian"


class ConnectionKind(Enum):
    LEVI_CIVITA = "levi-civita"
    SEMI_SYMMETRIC_METRIC = "semi-symmetric-metric"
    SEMI_SYMMETRIC_NON_METRIC = "semi-symmetric-non-metric"


class Vec3(NamedTuple):
    """Coefficients of a vector in the global frame X1, X2, X3.

    Its operators are vector arithmetic: they replace the tuple's
    concatenation and repetition.
    """

    c1: float
    c2: float
    c3: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.c1 - other.c1, self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.c1, -self.c2, -self.c3)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.c1 * s, self.c2 * s, self.c3 * s)

    __rmul__ = __mul__


ZERO = Vec3(0.0, 0.0, 0.0)


class AmbientSpace(NamedTuple):
    """Metric signature plus connection kind; the torsion generator is X3."""

    signature: Signature
    connection: ConnectionKind


def metric_inner(sig: Signature, a: Vec3, b: Vec3) -> float:
    """Ambient inner product of two frame-coefficient vectors."""
    planar = a.c1 * b.c1 + a.c2 * b.c2
    if sig is Signature.EUCLIDEAN:
        return planar + a.c3 * b.c3
    return planar - a.c3 * b.c3

