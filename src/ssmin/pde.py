"""Closed-form minimality residuals for the classified cases.

Each case couples an ambient signature, a semi-symmetric connection kind, and
the surface types sharing one minimality PDE.  The residual is the closed-form
left side of that PDE, evaluated on profile jets; a surface of the case is
minimal exactly where the residual vanishes.  The non-metric residuals are
stored product-cleared, i.e. multiplied through by (1 +- f'^2)(1 +- g'^2), so
they are polynomial in the jets and free of spurious singularities.

Each residual is the general mean curvature numerator times the frame
normalizer, with a fixed per-(case, type) sign: sign * lc = residual, where lc
is the first value `curvature._curvature_kernel` returns.
"""

from enum import Enum
from itertools import cycle, islice
from typing import Callable, NamedTuple

from .ambient import ConnectionKind, Signature
from .curvature import _curvature_kernel
from .errors import DomainError, IllConditionedFit, VerifierError, _row_of
from .jets import Jet2
from .sampling import SplitMix64
from .surface import (
    TranslationType,
    frame_from_jets,  # noqa: F401  perfbench's tracer test patches it in this namespace
)


class _Case(NamedTuple):
    """One classified case: ambient signature, connection kind, the sign in
    sign * lc = residual for each surface type sharing the minimality PDE, and
    the closed-form residual as a function of (f', f'', g', g'').

    The sign flips between Type II and Type III because their fixed normal
    orientations are opposite under the coordinate swap relating the two types.
    """

    signature: Signature
    connection: ConnectionKind
    signs: dict[TranslationType, float]
    residual: Callable[[float, float, float, float], float]


_E, _L = Signature.EUCLIDEAN, Signature.LORENTZIAN
_M, _NM = ConnectionKind.SEMI_SYMMETRIC_METRIC, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
_I, _II, _III = TranslationType.I, TranslationType.II, TranslationType.III

_CASES: dict[str, _Case] = {
    "E_M_I": _Case(_E, _M, {_I: 1.0}, lambda f1, f2, g1, g2: (
        f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 + f2 + g2 - 2.0)),
    "E_M_II_III": _Case(_E, _M, {_II: -1.0, _III: 1.0}, lambda f1, f2, g1, g2: (
        2.0 * g1 ** 3 + 2.0 * f1 * f1 * g1 + g1 * g1 * f2 + f1 * f1 * g2 + f2 + g2 + 2.0 * g1)),
    "E_NM_ALL": _Case(_E, _NM, {_I: 1.0, _II: -1.0, _III: 1.0}, lambda f1, f2, g1, g2: (
        (1.0 + g1 * g1) * f2 + (1.0 + f1 * f1) * g2)),
    "L_M_I": _Case(_L, _M, {_I: -1.0}, lambda f1, f2, g1, g2: (
        f2 * g1 * g1 - 2.0 * f1 * f1 - 2.0 * g1 * g1 + f1 * f1 * g2 - f2 - g2 + 2.0)),
    "L_M_II_III": _Case(_L, _M, {_II: -1.0, _III: 1.0}, lambda f1, f2, g1, g2: (
        2.0 * g1 ** 3 - 2.0 * f1 * f1 * g1 + g1 * g1 * f2 + f1 * f1 * g2 - f2 + g2 - 2.0 * g1)),
    "L_NM_I": _Case(_L, _NM, {_I: 1.0}, lambda f1, f2, g1, g2: (
        (1.0 - g1 * g1) * f2 + (1.0 - f1 * f1) * g2)),
    "L_NM_II_III": _Case(_L, _NM, {_II: 1.0, _III: -1.0}, lambda f1, f2, g1, g2: (
        (1.0 - g1 * g1) * f2 - (1.0 + f1 * f1) * g2)),
}
CaseId = Enum("CaseId", [(name, name) for name in _CASES])


def residual(case: CaseId, fj: Jet2, gj: Jet2) -> float:
    """Closed-form minimality residual; zero exactly on minimal surfaces.

    Jets that overflow give inf or NaN, except through a power such as g1 ** 3,
    which raises OverflowError; that is raised as a DomainError."""
    row = _row_of(_CASES, CaseId, case)
    try:
        return row.residual(fj.d1, fj.d2, gj.d1, gj.d2)
    except OverflowError:
        raise DomainError(f"{case.value} residual overflows at f'={fj.d1!r}, f''={fj.d2!r}, "
                          f"g'={gj.d1!r}, g''={gj.d2!r}") from None


# Bound on the relative deviation |sign * lc - residual| / (1 + |residual|).
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
    """Check sign * lc = residual on seeded admissible jet samples.

    Cases spanning Types II and III alternate between the two types so both
    frame bindings are exercised.  Lorentzian samples outside the spacelike
    region are rejected and counted.  The 53-bit words are read in pairs: each
    attempt takes (f', g') from one pair, scaled to the case's box, and an
    admitted attempt takes (f'', g'') from the next.  Each affine map has
    2**-53 folded into its width, exact for every width here (see
    `ssmin.sampling`), so no float is made per draw.
    """
    if n_samples < 1:
        raise VerifierError(f"n_samples must be >= 1, got {n_samples}")
    sig, kind, signs, res_fn = _row_of(_CASES, CaseId, case)
    kernel, words = _curvature_kernel, SplitMix64(seed).words
    pairs = zip(words, words)
    # one box and spacelike gate per case (no Lorentzian case mixes Type I with II/III):
    # gate 1 admits 1 - f'^2 - g'^2 >= 1e-3, gate 2 g'^2 - f'^2 - 1 >= 1e-3
    if sig is Signature.EUCLIDEAN:
        fw, gw, gate = 2.5, 2.5, 0
    elif TranslationType.I in signs:
        fw, gw, gate = 1.2, 1.2, 1
    else:
        fw, gw, gate = 1.5, 2.6, 2
    f_lo, f_scale, g_lo, g_scale = -fw, (fw - -fw) * 2 ** -53, -gw, (gw - -gw) * 2 ** -53
    cap = 1000 * n_samples
    worst = 0.0
    attempts = 0
    for ttype, sign in islice(cycle(signs.items()), n_samples):
        for a, b in pairs:  # endless: the stream never runs out
            attempts += 1
            if attempts > cap:
                raise IllConditionedFit(f"sampler starved for case {case.value}")
            f1 = f_lo + f_scale * a
            g1 = g_lo + g_scale * b
            if (gate == 0 or gate == 1 and 1.0 - f1 * f1 - g1 * g1 >= 1e-3
                    or gate == 2 and g1 * g1 - f1 * f1 - 1.0 >= 1e-3):
                break
        a, b = next(pairs)
        # f'' and g'' on [-3, 3]
        f2 = -3.0 + (6.0 * 2 ** -53) * a
        g2 = -3.0 + (6.0 * 2 ** -53) * b
        lc, _ = kernel(ttype, sig, kind, f1, f2, g1, g2)
        res = res_fn(f1, f2, g1, g2)
        # a zero deviation cannot raise the worst; a NaN one is truthy and sticks
        d = sign * lc - res
        if d:
            err = abs(d) / (1.0 + abs(res))
            if err > worst or err != err:
                worst = err
    tol = tolerance if tolerance is not None else EQUIVALENCE_TOLERANCE
    return EquivalenceRecord(case, n_samples, attempts, n_samples / attempts, worst,
                             tol, worst <= tol)
