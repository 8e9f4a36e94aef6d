"""Mean curvature of a translation surface with respect to a connection.

The Gauss formula reads the second fundamental form off as the normal
component of the ambient covariant derivative of tangent fields,
sigma_ij = < nabla_{E_i} E_j , N >, and the mean curvature is

    H = [G*s11 - F*s12 - F*s21 + E*s22] / (2 (EG - F^2)).

For a semi-symmetric connection with P = X3 this reduces to Levi-Civita plus
one term.  The torsion part pi(Y) X of nabla_X Y is tangent to the surface, so
it drops out of sigma; the metric kind's extra term -<X, Y> P has the normal
part -<X, Y> <X3, N>.  So H~ = H for the non-metric kind and H~ = H - <X3, N>
for the metric kind (K. Yano, "On semi-symmetric metric connection", Rev.
Roumaine Math. Pures Appl. 15, 1970; N. S. Agashe & M. R. Chafle, "A
semi-symmetric non-metric connection on a Riemannian manifold", Indian J. Pure
Appl. Math. 23, 1992).  A translation surface has x_uv = 0, so s12 = s21 = 0
for Levi-Civita, and the numerator is (G f'' + E g'') <X_h, N>, with X_h the
axis carrying the height, less 2 (EG - F^2) <X3, N> for the metric kind.

The kernel reports lc, the numerator times the frame normalizer sqrt(EG - F^2),
and EG - F^2 itself: lc is a polynomial in the jets, so minimality checks never
divide by a small EG - F^2, and each case residual of `ssmin.pde` is sign * lc.
A caller that wants the numerator divides lc by sqrt(det).  The paper's sigma
form, built from the frame chain, is kept in `tests/oracles.py`; the test suite
proves the two equal symbolically and bounds the kernel's rounding against a
50-digit evaluation of that form.
"""

from math import inf

from .ambient import ConnectionKind, Signature
from .surface import (
    DEGENERACY_MARGIN,
    TranslationType,
    _require_regular,
    frame_from_jets,  # noqa: F401  perfbench's tracer test patches it in this namespace
)

# The kernel's enum members, bound once: a module global is read several times
# faster than an enum attribute, and the kernel runs once per sample.
_EUCLIDEAN, _METRIC = Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_METRIC
_I, _II = TranslationType.I, TranslationType.II


def _curvature_kernel(ttype: TranslationType, sig: Signature, kind: ConnectionKind,
                      f1: float, f2: float, g1: float, g2: float) -> tuple[float, float]:
    """(lc, det) at one point: the numerator times the normalizer sqrt(det), and det.

    With e = <X3, X3> = +-1, the tangents and normal are those of
    `surface._tangents` and `_normal_direction`, and lc starts as G f'' + E g''.
    Type I carries the height on X3, and <X3, N> = 1 / normalizer, so the
    metric kind subtracts 2 det.  Types II and III carry it on the planar axis
    X_h with <X_h, N> = -o / normalizer and <X3, N> = o g' / normalizer, where
    o is 1 for Type II and -1 for Type III (its normal is the swapped one
    negated); so the metric kind adds 2 g' det, and Type II negates the sum.
    """
    e = 1.0 if sig is _EUCLIDEAN else -1.0
    # det = EG - F^2 in the cancellation-free form of `surface._fundamental`
    if ttype is _I:
        E = 1.0 + e * (f1 * f1)
        G = 1.0 + e * (g1 * g1)
        det = 1.0 + e * (f1 * f1 + g1 * g1)
    else:
        E = 1.0 + f1 * f1
        G = g1 * g1 + e
        det = g1 * g1 + e * E
    if not DEGENERACY_MARGIN <= det < inf:
        _require_regular(sig, det, f1, g1)
    lc = G * f2 + E * g2
    if ttype is _I:
        if kind is _METRIC:
            lc = lc - 2.0 * det
    else:
        if kind is _METRIC:
            lc = lc + 2.0 * g1 * det
        if ttype is _II:
            lc = -lc
    return lc, det
