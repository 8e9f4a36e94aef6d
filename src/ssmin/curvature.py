"""Second fundamental form and mean curvature with respect to a connection.

The Gauss formula reads the second fundamental form off as the normal
component of the ambient covariant derivative of tangent fields:

    sigma_ij = < nabla_{E_i} E_j , N >

with E_1, E_2 the coordinate tangents of the translation surface.  The mean
curvature is

    H = [G*s11 - F*s12 - F*s21 + E*s22] / (2 (EG - F^2))

applied verbatim in both signatures; the kernel reports the numerator, not H,
so minimality checks never divide by a small EG - F^2.

`_curvature_kernel` evaluates this from the four jet derivatives with plain
floats.  It performs the floating-point operations of `frame_from_jets`,
`covariant_derivative` and `metric_inner` in the same order, leaving out only
products with an exact 0.0 and factors of 1.0, so its values equal theirs
(up to the sign of a zero); the test suite checks that equality exactly, with
`covariant_derivative` and the record form `mean_curvature_from_jets` kept in
`tests/oracles.py`.
"""

import math
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
_EUCLIDEAN, _LEVI_CIVITA = Signature.EUCLIDEAN, ConnectionKind.LEVI_CIVITA
_METRIC = ConnectionKind.SEMI_SYMMETRIC_METRIC
_I, _II = TranslationType.I, TranslationType.II


def _curvature_kernel(ttype: TranslationType, sig: Signature, kind: ConnectionKind,
                      f1: float, f2: float, g1: float, g2: float) -> tuple[float, ...]:
    """(E, F, G, det, normalizer, s11, s12, s21, s22, numerator) at one point.

    With e = <X3, X3> = +-1, the tangents, normal and second partials are
    those of `surface._tangents`, `_normal_direction` and `_second_partials`.
    The torsion part of nabla_{E_i} E_j is E_i <E_j, X3>, so `tor` is e for
    both semi-symmetric kinds and 0.0 for Levi-Civita; the metric kind also
    subtracts X3 <E_i, E_j>, carried by m11, m12, m22.
    """
    e = 1.0 if sig is _EUCLIDEAN else -1.0
    tor = 0.0 if kind is _LEVI_CIVITA else e
    # det = EG - F^2 in the cancellation-free form of `surface._fundamental`
    if ttype is _I:
        E = 1.0 + e * (f1 * f1)
        F = e * (f1 * g1)
        G = 1.0 + e * (g1 * g1)
        det = 1.0 + e * (f1 * f1 + g1 * g1)
    else:
        E = 1.0 + f1 * f1
        F = f1 * g1
        G = g1 * g1 + e
        det = g1 * g1 + e * E
    if not DEGENERACY_MARGIN <= det < inf:
        _require_regular(sig, det, f1, g1)
    normalizer = math.sqrt(det)
    inv = 1.0 / normalizer
    if kind is _METRIC:
        m11, m12, m22 = E, F, G
    else:
        m11 = m12 = m22 = 0.0
    if ttype is _I:
        # Fu = (1, 0, f1), Fv = (0, 1, g1), N = (-f1, -g1, e) / normalizer.
        a, b = tor * f1, tor * g1
        n1, n2, n3 = -f1 * inv, -g1 * inv, e * inv
        s11 = a * n1 + e * (((f2 + f1 * a) - m11) * n3)
        s12 = b * n1 + e * ((f1 * b - m12) * n3)
        s21 = a * n2 + e * ((g1 * a - m12) * n3)
        s22 = b * n2 + e * (((g2 + g1 * b) - m22) * n3)
    else:
        # Type II: Fu = (1, f1, 0), Fv = (0, g1, 1), N = (f1, -1, e g1) / normalizer.
        # Type III swaps the first two slots and negates N, so each sigma_ij is
        # the Type II sum negated term by term: nf is N in the slot holding
        # f', g', f'', g'', nc in the other planar slot.
        o = 1.0 if ttype is _II else -1.0
        nf, nc, n3 = -o * inv, o * (f1 * inv), (o * (e * g1)) * inv
        s11 = f2 * nf - e * (m11 * n3)
        s12 = (tor * nc + (tor * f1) * nf) - e * (m12 * n3)
        s21 = -(e * (m12 * n3))
        s22 = (g2 + g1 * tor) * nf + e * ((tor - m22) * n3)
    numerator = G * s11 - F * s12 - F * s21 + E * s22
    return E, F, G, det, normalizer, s11, s12, s21, s22, numerator

