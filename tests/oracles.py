"""Test-side oracles: the connections as vector functions, the record form of
the mean curvature and the first fundamental form, the NaN-sticky running
worst, scalar splitmix64, forward-mode jet arithmetic, least-squares
separation and substitution fits, an RK4-backed profile, the pointwise
reduced-ODE check of a family, the slope-bounded box of the finite-difference
oracle, the per-sample equivalence sweep, and the family check and RK4
comparison by way of `Profile.at`.

No command runs these; the tests use them as checks that do not share the
code path they verify.  `covariant_derivative` and `torsion` on the frame
X1, X2, X3 are the printed connection tables, and with `frame_from_jets` they
are the chain the scalar `ssmin.curvature._curvature_kernel` must equal;
`mean_curvature_from_jets` wraps that kernel's values in the `SigmaMatrix`,
`CurvatureReport` and `FirstFundamental` records.  The jet arithmetic is the
reference the closed-form profile kernels of `ssmin.jets` must equal, the
scalar splitmix64 (one draw per integer pass) is the reference the block
stream of `ssmin.sampling` must equal, and the per-sample sweep (scalar draws,
one `Jet2` pair and one `residual` call per sample) is the reference the flat
`ssmin.pde.equivalence_sweep` must equal.  The family check and the RK4
comparison that call `Profile.at` per sample and `residual` per sample are the
references the flat `ssmin.catalog.verify_auto` and `ssmin.ode.compare_profile`
must equal, errors included.  The least-squares fits use numpy, which the
package itself does not import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ssmin.ambient import (AmbientSpace, ConnectionKind, Signature, Vec3, ZERO,
                           metric_inner)
from ssmin.catalog import (
    SAMPLING_CAP,
    FamilyReport,
    SolutionFamily,
    _assemble,
    perturb_profile,
)
from ssmin.curvature import _curvature_kernel
from ssmin.errors import (
    BlowUp,
    DomainError,
    DomainMismatch,
    IllConditionedFit,
    InvalidStep,
    UnknownCase,
    VerifierError,
)
from ssmin.jets import Interval, Jet2, Profile
from ssmin.ode import (
    BLOWUP_THRESHOLD,
    OdeCase,
    OdeId,
    Trajectory,
    _check_span_step,
    _rk4_step,
    integrate,
)
from ssmin.pde import (
    EQUIVALENCE_TOLERANCE,
    CaseId,
    EquivalenceRecord,
    _CASES,
    residual,
)
from ssmin.sampling import SplitMix64
from ssmin.surface import (FirstFundamental, TranslationType, _fundamental,
                           _require_regular, _tangents)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

X1 = Vec3(1.0, 0.0, 0.0)
X2 = Vec3(0.0, 1.0, 0.0)
X3 = Vec3(0.0, 0.0, 1.0)
BASIS = (X1, X2, X3)


def covariant_derivative(space: AmbientSpace, x: Vec3, w: Vec3, dw_along_x: Vec3) -> Vec3:
    """Covariant derivative of W along X given the flat derivative D_X W.

    The correction depends only on the pointwise values of X and W, so the
    same formula serves constant frame fields and surface tangent fields.
    """
    kind = space.connection
    if kind is ConnectionKind.LEVI_CIVITA:
        return dw_along_x
    out = dw_along_x + x * metric_inner(space.signature, w, X3)
    if kind is ConnectionKind.SEMI_SYMMETRIC_METRIC:
        out = out - X3 * metric_inner(space.signature, x, w)
    return out


def torsion(space: AmbientSpace, x: Vec3, y: Vec3) -> Vec3:
    """Torsion T(X, Y) for constant-coefficient fields.

    Both semi-symmetric kinds share <Y, X3> X - <X, X3> Y; the Levi-Civita
    connection is torsion free.
    """
    if space.connection is ConnectionKind.LEVI_CIVITA:
        return ZERO
    sig = space.signature
    return x * metric_inner(sig, y, X3) - y * metric_inner(sig, x, X3)


class SigmaMatrix(NamedTuple):
    s11: float
    s12: float
    s21: float
    s22: float


class CurvatureReport(NamedTuple):
    sigma: SigmaMatrix
    H: float
    numerator: float
    first: FirstFundamental
    normalizer: float


def mean_curvature_from_jets(ttype: TranslationType, space: AmbientSpace,
                             kind: ConnectionKind, fj: Jet2, gj: Jet2) -> CurvatureReport:
    E, F, G, det, normalizer, s11, s12, s21, s22, numerator = _curvature_kernel(
        ttype, space.signature, kind, fj.d1, fj.d2, gj.d1, gj.d2
    )
    return CurvatureReport(SigmaMatrix(s11, s12, s21, s22), numerator / (2.0 * det),
                           numerator, FirstFundamental(E, F, G, det), normalizer)


def first_fundamental_from_jets(ttype: TranslationType, space: AmbientSpace,
                                fj: Jet2, gj: Jet2) -> FirstFundamental:
    Fu, Fv = _tangents(ttype, fj.d1, gj.d1)
    first = _fundamental(space.signature, Fu, Fv)
    _require_regular(space.signature, first.det, fj.d1, gj.d1)
    return first


def _worse(worst: float, sample: float) -> float:
    """Running worst of sampled errors, like ``max`` but a NaN sample sticks.

    ``max(worst, nan)`` keeps ``worst``, so a NaN sample would pass a check
    vacuously; here it becomes the worst and fails every ``<= tolerance`` test.
    """
    return sample if sample > worst or sample != sample else worst


class ScalarSplitMix64:
    """splitmix64 one draw per call (Steele, Lea & Flood 2014); uniform
    doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        self._state = z = (self._state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return lo + (hi - lo) * (((z ^ (z >> 31)) >> 11) * 2.0 ** -53)


class Jet(Jet2):
    """A Jet2 that propagates all three entries through arithmetic and
    elementary functions by the Leibniz and chain rules."""

    def is_finite(self) -> bool:
        return math.isfinite(self.v) and math.isfinite(self.d1) and math.isfinite(self.d2)

    @staticmethod
    def constant(c: float) -> "Jet":
        return Jet(float(c), 0.0, 0.0)

    @staticmethod
    def variable(u: float) -> "Jet":
        """Seed jet of the independent variable at u."""
        return Jet(float(u), 1.0, 0.0)

    def __add__(self, other) -> "Jet":
        o = _lift(other)
        return Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        o = _lift(other)
        return Jet(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __mul__(self, other) -> "Jet":
        o = _lift(other)
        return Jet(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__


def _lift(x) -> Jet:
    if isinstance(x, Jet):
        return x
    if isinstance(x, (int, float)):
        return Jet.constant(x)
    raise TypeError(f"cannot mix Jet with {type(x).__name__}")


def _chain(fv: float, f1: float, f2: float, x: Jet) -> Jet:
    """Compose the outer derivatives (fv, f1, f2) at x.v with the inner jet."""
    return Jet(fv, f1 * x.d1, f2 * x.d1 * x.d1 + f1 * x.d2)


def jet_cos(x: Jet) -> Jet:
    c = math.cos(x.v)
    return _chain(c, -math.sin(x.v), -c, x)


def jet_exp(x: Jet) -> Jet:
    e = math.exp(x.v)
    return _chain(e, e, e, x)


def jet_log_abs(x: Jet) -> Jet:
    """ln|x| with derivative 1/x; valid on each side of zero separately."""
    if x.v == 0.0:
        raise DomainError("log|x| at zero")
    r = 1.0 / x.v
    return _chain(math.log(abs(x.v)), r, -r * r, x)


def jet_log_abs_cos(x: Jet) -> Jet:
    return jet_log_abs(jet_cos(x))


def log_abs_cos_jet(k: float, q: float, a: float, offset: float, u: float) -> Jet:
    """k * ln|cos(q*u - a)| + offset by jet arithmetic (`log_abs_cos_profile`)."""
    return k * jet_log_abs_cos(q * Jet.variable(u) - a) + offset


def log_abs_exp_jet(k: float, q: float, coeff_pos: float, coeff_neg: float,
                    offset: float, u: float) -> Jet:
    """k * ln|coeff_pos*e^(q*u) + coeff_neg*e^(-q*u)| + offset by jet arithmetic
    (`log_abs_exp_profile`)."""
    x = Jet.variable(u)
    return k * jet_log_abs(coeff_pos * jet_exp(q * x) + coeff_neg * jet_exp(-q * x)) + offset


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


def integrate_profile_scalar(phi: Callable[[float], float], value0: float,
                             h0: float, t_span: tuple[float, float], step: float,
                             label: str = "rk4-profile") -> Profile:
    """Joint RK4 on (value, h) yielding a node-lookup profile.

    The returned profile evaluates only at trajectory node times; d2 comes
    from the right-hand side, so the profile is an RK4-backed oracle for
    closed forms fitted elsewhere.
    """
    _check_span_step(t_span, step)
    t0, t1 = t_span
    n_full = int(math.floor((t1 - t0) / step + 1e-9))
    values = [value0]
    slopes = [h0]
    y, h = value0, h0
    for _ in range(n_full):
        # one RK4 step of the joint system y' = h, h' = phi(h)
        k1y, k1h = h, phi(h)
        k2y, k2h = h + 0.5 * step * k1h, phi(h + 0.5 * step * k1h)
        k3y, k3h = h + 0.5 * step * k2h, phi(h + 0.5 * step * k2h)
        k4y, k4h = h + step * k3h, phi(h + step * k3h)
        y = y + step / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        h = _rk4_step(phi, h, step)
        if not (math.isfinite(y) and math.isfinite(h)) or abs(h) > BLOWUP_THRESHOLD:
            raise BlowUp(f"{label}: blow-up during joint integration")
        values.append(y)
        slopes.append(h)
    t_end = t0 + n_full * step

    def fn(u: float) -> Jet2:
        i = round((u - t0) / step)
        if i < 0 or i > n_full or abs(t0 + i * step - u) > 1e-9:
            raise DomainError(f"trajectory profile defined only at node times, got {u!r}")
        return Jet2(values[i], slopes[i], phi(slopes[i]))

    return Profile(fn, Interval(t0 - 1e-9, t_end + 1e-9), label)


def substitution_check(case: OdeCase, h0: float, v_span: tuple[float, float],
                       n_samples: int = 40, step: float = 1e-4) -> float:
    """Verify the reciprocal-square substitution W = h^-2 linearizes the cubic cases.

    Along an RK4 trajectory of h, W' (by five-point finite differences of the
    discrete W) must follow W' = 4/(c^2+1) + 4 W for O2_36 and
    W' = 4/(c^2+1) - 4 W for O3_28.  Returns the worst of: pointwise deviation
    from the known line and the error of the least-squares fitted (a, b)
    against the known coefficients.
    """
    if case.kind is OdeId.O2_36:
        slope = 4.0
    elif case.kind is OdeId.O3_28:
        slope = -4.0
    else:
        raise UnknownCase(f"substitution check applies to O2_36/O3_28, not {case.kind.value}")
    intercept = 4.0 / (case.c ** 2 + 1.0)

    traj = integrate(case, h0, v_span, step)
    ts, hs = np.asarray(traj.nodes).T
    # the stencil needs a uniform grid: drop the shorter tail step, if any
    if len(ts) >= 2 and abs((ts[-1] - ts[-2]) - step) > 1e-12:
        hs = hs[:-1]
    if np.min(np.abs(hs)) < 1e-8:
        raise DomainError("h crosses zero; W = h^-2 undefined")
    w = 1.0 / (hs * hs)
    if len(w) < 5:
        raise InvalidStep("span too short for the difference stencil")
    # five-point central first derivative on the uniform grid
    dw = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * step)
    w_in = w[2:-2]
    idx = np.linspace(0, len(w_in) - 1, min(n_samples, len(w_in))).astype(int)
    w_s, dw_s = w_in[idx], dw[idx]
    if float(np.max(w_s) - np.min(w_s)) < 1e-9:
        raise IllConditionedFit("W is constant along the trajectory")
    design = np.column_stack([np.ones_like(w_s), w_s])
    (a_fit, b_fit), _, _, _ = np.linalg.lstsq(design, dw_s, rcond=None)
    pointwise = float(np.max(np.abs(dw_s - (intercept + slope * w_s))))
    return max(abs(a_fit - intercept), abs(b_fit - slope), pointwise)


def ode_pointwise_max(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0) -> float:
    """Worst |h' - phi(h)| over samples, for every reduced-ODE binding of the family."""
    built = _assemble(fam)
    if not built.ode_checks:
        return 0.0
    box_u, box_v = built.domain.sampling_box()
    worst = 0.0
    rng = SplitMix64(rng_seed)
    for case, which in built.ode_checks:
        phi = case.rhs()
        profile = built.surface.f if which == "f" else built.surface.g
        box = box_u if which == "f" else box_v
        for _ in range(n_samples):
            jet = profile.at(rng.uniform(box.lo, box.hi))
            worst = _worse(worst, abs(jet.d2 - phi(jet.d1)))
    return worst


def moderate_box(profile: Profile, max_slope: float = 2.0, step: float = 0.05) -> Interval:
    """Interval reaching up to 2 either side of a point where |d1| stays moderate.

    The box of the finite-difference oracle: it keeps the stencils away from
    poles, where their truncation error grows with the third derivative.
    A profile steeper than max_slope at every candidate (a steep line, say)
    gets the box under the gentlest slope found instead.  Where no point one
    step from the start passes, the search repeats on the candidates' spacing;
    the box never leaves the profile's domain.
    """

    def slope(u: float) -> float:
        try:
            return abs(profile.at(u, value=False).d1)
        except DomainError:
            return math.inf

    clipped = profile.domain.clipped(SAMPLING_CAP)
    width = clipped.hi - clipped.lo
    candidates = [c for c in [0.0, 0.5 * (clipped.lo + clipped.hi)] + [
        clipped.lo + k * width / 40.0 for k in range(1, 40)
    ] if profile.domain.contains(c)]
    start = next((c for c in candidates if slope(c) <= max_slope), None)
    if start is None:
        gentlest = min(map(slope, candidates), default=math.inf)
        if math.isinf(gentlest):
            raise DomainError(f"{profile.label}: no moderate-slope point found")
        return moderate_box(profile, gentlest, step)
    lo = hi = start
    while hi - start < 2.0 and slope(hi + step) <= max_slope:
        hi += step
    while start - lo < 2.0 and slope(lo - step) <= max_slope:
        lo -= step
    if hi - lo < step:
        fine = width / 40.0
        if fine < step:  # the slope bound binds within one step: search on the candidate grid
            return moderate_box(profile, max_slope, fine)
        lo = max(start - 0.5 * step, profile.domain.lo)
        hi = min(start + 0.5 * step, profile.domain.hi)
    return Interval(lo, hi)


def _draw_first_derivatives(rng: ScalarSplitMix64, sig: Signature,
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


def reference_equivalence_sweep(case: CaseId, n_samples: int, seed: int,
                                tolerance: float | None = None) -> EquivalenceRecord:
    """`equivalence_sweep` one call per step: scalar draws, jets, draw and gate
    helpers, `residual`."""
    sig, kind, sign_of, _ = _CASES[case.value]
    types, signs = tuple(sign_of), tuple(sign_of.values())
    rng = ScalarSplitMix64(seed)
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


def reference_verify_auto(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0,
                          tolerance: float | None = None,
                          perturb: float = 0.0) -> FamilyReport:
    """`verify_auto` one `Profile.at` pair, one `_curvature_kernel` call in full
    mode and one `residual` call per sample."""
    if n_samples < 1:
        raise VerifierError(f"n_samples must be >= 1, got {n_samples}")
    built = _assemble(fam)
    full = built.empty_reason is None and not perturb
    tol = tolerance if tolerance is not None else built.tolerance
    box_u, box_v = built.domain.sampling_box()
    surface = built.surface
    f = perturb_profile(surface.f, perturb) if perturb else surface.f
    ttype, sig, kind = surface.ttype, surface.space.signature, surface.space.connection
    rng = SplitMix64(rng_seed)
    worst_num = worst_res = 0.0
    for _ in range(n_samples):
        u = rng.uniform(box_u.lo, box_u.hi)
        v = rng.uniform(box_v.lo, box_v.hi)
        fj, gj = f.at(u, value=False), surface.g.at(v, value=False)
        if full:
            numerator = _curvature_kernel(ttype, sig, kind, fj.d1, fj.d2, gj.d1, gj.d2)[-1]
            worst_num = _worse(worst_num, abs(numerator))
        worst_res = _worse(worst_res, abs(residual(built.case, fj, gj)))
    return FamilyReport(
        fam.family_id.value, fam.branch.value, fam.param_dict, n_samples,
        "full" if full else "residual-only", worst_num if full else None, worst_res, tol,
        worst_res <= tol and (not full or worst_num <= tol), built.empty_reason,
    )


def reference_compare_profile(numeric: Trajectory, analytic: Profile) -> float:
    """`compare_profile` one `Profile.at` call per trajectory node."""
    worst = 0.0
    for t, h in numeric.nodes:
        if not analytic.domain.contains(t):
            raise DomainMismatch(
                f"trajectory node t={t!r} outside profile domain "
                f"[{analytic.domain.lo!r}, {analytic.domain.hi!r}]"
            )
        worst = _worse(worst, abs(h - analytic.at(t, value=False).d1))
    return worst
