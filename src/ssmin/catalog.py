"""Classified minimal-surface families with admissible domains and verification.

Each family binds a pair of profiles (f, g) to a surface type, an ambient
space, and the minimality case whose residual it solves identically.  Domains
are computed constructively: the nearest singularity of each closed form is
solved for and the interval shrunk by a fixed margin; in Minkowski space the
admissible box additionally keeps EG - F^2 above a floor.

Several Minkowski families solve their minimality PDE yet have an empty
spacelike region for every permitted parameter choice (their derivative bounds
contradict EG - F^2 > 0).  Building such a family raises EmptyDomain; its
verification falls back to the PDE residual, the part of the classification
that remains checkable.  Its builder still returns a sampling box in closed
form, inside both profiles' domains: a log|cos| profile keeps its slope cap,
a bounded slope reaches SAMPLING_CAP either side of its centre in the
exponent's variable, and a coth-type slope starts near SLOPE_CAP from its
pole (`_coth_box`) and runs SAMPLING_CAP away from it.

Each family's builder takes its parameters as keywords with float defaults,
and that signature is the family's one parameter table (`_DEFAULTS`).
"""

import math
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

from .ambient import AmbientSpace
from .curvature import _curvature_kernel
from .errors import (DomainError, EmptyDomain, ParameterConstraintViolation, VerifierError,
                     _row_of)
from .jets import (
    Interval,
    Profile,
    REAL_LINE,
    SINGULARITY_GUARD,
    affine_profile,
    beside,
    log_abs_cos_profile,
    log_abs_exp_profile,
    profile_quadrature,
)
from .ode import MAX_RK4_STEPS, OdeCase, OdeId, compare_profile, integrate
from .pde import CaseId, _CASES
from .sampling import SplitMix64
from .surface import TranslationSurface, TranslationType

# Admissible boxes keep this much distance (in u or v) from closed-form
# singularities, and keep EG - F^2 at or above the spacelike floor.
EDGE_MARGIN = 1e-3
SPACELIKE_FLOOR = 1e-4
SAMPLING_CAP = 3.0

# Verification tolerances on |numerator| and |residual|: quadrature-backed
# families get the looser bound.
CLOSED_FORM_TOLERANCE = 1e-8
QUADRATURE_TOLERANCE = 1e-6


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


class _FamilyFields(NamedTuple):
    family_id: "FamilyId"
    params: tuple[tuple[str, float], ...]
    branch: Branch = Branch.PLUS


class SolutionFamily(_FamilyFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        """Complete params from the family's defaults; reject names it does not have."""
        self = super().__new__(cls, *args, **kwargs)
        merged = dict(_row_of(_DEFAULTS, FamilyId, self.family_id))
        for key, value in self.params:
            if key not in merged:
                raise ParameterConstraintViolation(f"{self.family_id.value} has no parameter "
                                                   f"{key!r} (expected {sorted(merged)})")
            merged[key] = float(value)
        if self.branch is Branch.MINUS and self.family_id not in BRANCHED_FAMILIES:
            raise ParameterConstraintViolation(f"{self.family_id.value} has no +- branch")
        return super().__new__(cls, self.family_id, tuple(sorted(merged.items())), self.branch)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def make_family(fid: "FamilyId", branch: Branch | str = Branch.PLUS,
                **params: float) -> SolutionFamily:
    return SolutionFamily(fid, tuple(params.items()), Branch(branch))


class AdmissibleDomain(NamedTuple):
    u: Interval
    v: Interval

    def sampling_box(self) -> tuple[Interval, Interval]:
        return self.u.clipped(SAMPLING_CAP), self.v.clipped(SAMPLING_CAP)


class FamilyBuild(NamedTuple):
    """An assembled family with its sampling box; `empty_reason` says why, where it is
    never spacelike, and then the box serves the residual check alone."""

    surface: TranslationSurface
    case: CaseId
    ode_checks: tuple[tuple[OdeCase, str], ...]
    domain: AdmissibleDomain
    empty_reason: str | None

    @property
    def tolerance(self) -> float:
        """Verification tolerance: quadrature-backed families get the looser bound."""
        if self.surface.f.quadrature or self.surface.g.quadrature:
            return QUADRATURE_TOLERANCE
        return CLOSED_FORM_TOLERANCE


class FamilyReport(NamedTuple):
    theorem: str
    family_id: str
    branch: str
    params: dict[str, float]
    n_samples: int
    mode: str  # "full" or "residual-only"
    max_abs_numerator: float | None
    max_abs_residual: float
    tolerance: float
    verdict: bool
    empty_reason: str | None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterConstraintViolation(message)


def _sorted_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


# Derivative cap for the boxes of log|cos| profiles, and, over its asymptote,
# for those of coth-type slopes.  Past it the residual is a difference of
# terms ~ slope^4 and double rounding alone would exceed the closed-form
# verification tolerance.
SLOPE_CAP = 20.0


def _log_cos(k: float, q: float, a: float, offset: float = 0.0) -> tuple[Profile, Interval]:
    """k*ln|cos(q*u - a)| + offset and its admissible box: away from the pole and
    |d1| <= cap.

    A branch narrower than twice the edge margin keeps the middle half of its
    guarded width instead.
    """
    theta_half = math.pi / 2.0 - abs(q) * EDGE_MARGIN
    if theta_half <= 0.0:
        theta_half = 0.5 * (math.pi / 2.0 - abs(q) * SINGULARITY_GUARD)
    theta_half = min(theta_half, math.atan(SLOPE_CAP / abs(k * q)))
    return (log_abs_cos_profile(k, q, a, offset),
            _sorted_interval((a - theta_half) / q, (a + theta_half) / q))


def _coth_box(domain: Interval, s: float, scale: float) -> Interval:
    """Box of a slope s*coth(y), y = (u - pole)/scale, beside the one finite end of
    its profile's domain.

    It starts where |slope| <= s + cap and |d2| = (s/scale)*csch(y)^2 <= cap^2,
    which bounds the residual's terms whatever the scale, and runs
    SAMPLING_CAP further from the pole in y.
    """
    y = max(math.atanh(s / (s + SLOPE_CAP)), math.asinh(math.sqrt(s / scale) / SLOPE_CAP))
    near, far = y * scale, (y + SAMPLING_CAP) * scale
    if math.isinf(domain.hi):
        return Interval(domain.lo + near, domain.lo + far)
    return Interval(domain.hi - far, domain.hi - near)


def _quad(integrand: Callable[[float], float], integrand_d1: Callable[[float], float],
          domain: Interval, base: float = 0.0) -> Profile:
    """Catalog quadrature profile, anchored at 0 or else one unit inside its domain's
    finite end.  Every domain here is the real line or a half-line."""
    if domain.contains(0.0):
        anchor = 0.0
    elif math.isfinite(domain.lo):
        anchor = domain.lo + 1.0
    else:
        anchor = domain.hi - 1.0
    return profile_quadrature(integrand, integrand_d1, base=base, domain=domain,
                              base_point=anchor)


def _radicand_integrands(fid: str, sign: float, ah: float, rate: float, shift: float):
    """g' = sign / sqrt(ah*e^(rate*v) + shift) and its derivative (F2_39, F3_30)."""
    coeff = -0.5 * rate * sign

    def radicand(x: float) -> tuple[float, float, float]:
        """(a, e, r): r = a*e + shift > 0, with a = ah and e = e^(rate*x) unless that overflows."""
        try:
            a, e = ah, math.exp(rate * x)
        except OverflowError:  # a tiny ah can keep a*e finite: a = 1, e = e^(rate*x + ln ah)
            try:
                a, e = 1.0, math.exp(rate * x + math.log(ah))
            except (OverflowError, ValueError):
                raise DomainError(f"{fid}: radicand overflows at v={x!r}") from None
        r = a * e + shift
        if r <= 0.0:
            raise DomainError(f"{fid}: radicand {r!r} nonpositive at v={x!r}")
        return a, e, r

    def integrand(x: float) -> float:
        # adaptive Simpson calls this at every point, so only a refusal or an overflow
        # goes through radicand
        try:
            r = ah * math.exp(rate * x) + shift
            if r > 0.0:
                return sign / math.sqrt(r)
        except OverflowError:
            pass
        return sign / math.sqrt(radicand(x)[2])

    def integrand_d1(x: float) -> float:
        a, e, r = radicand(x)
        try:
            return coeff * a * e * r ** -1.5
        except OverflowError:
            raise DomainError(f"{fid}: g'' overflows at v={x!r}") from None

    return integrand, integrand_d1


def _tanh_ratio_integrands(s: float, coeff: float, rate: float):
    """f' = s (1 + coeff*e^(rate*x)) / (1 - coeff*e^(rate*x)) and its derivative."""

    def ratio(x: float) -> tuple[float, float]:
        """(t, 1 - t), t = coeff*e^(rate*x); refuses an overflowing e^(rate*x) or 1 - t near 0."""
        try:
            t = coeff * math.exp(rate * x)
        except OverflowError:
            raise DomainError(f"ratio exponential overflows at x={x!r}") from None
        den = 1.0 - t
        if abs(den) < 1e-12:
            raise DomainError(f"ratio denominator vanishes at x={x!r}")
        return t, den

    def integrand(x: float) -> float:
        t, den = ratio(x)
        return s * (1.0 + t) / den

    def integrand_d1(x: float) -> float:
        t, den = ratio(x)
        return 2.0 * s * rate * t / (den * den)

    return integrand, integrand_d1


def _ratio_domain(coeff: float, rate: float) -> Interval:
    """Component of 1 - coeff*e^(rate*x) != 0, preferring the one containing 0."""
    if coeff <= 0.0:
        return REAL_LINE
    x_star = -math.log(coeff) / rate
    return beside(x_star, x_star <= 0.0)


# A builder takes its family's parameters as keywords with float defaults, so
# its parameter list is the family's parameter table (`_DEFAULTS`); a family
# with a +- branch also takes the keyword-only `sign`.  It returns what varies
# between families: (f, g, reduced-ODE checks, sampling box, and the reason
# the family has no spacelike points or None).  Profile labels, the surface
# type, the case and the ambient space are added by `_assemble` from the
# `_FAMILIES` table.
_Parts = tuple[Profile, Profile, tuple[tuple[OdeCase, str], ...], AdmissibleDomain, str | None]
_EVERYWHERE = AdmissibleDomain(REAL_LINE, REAL_LINE)


def _swap(parts: _Parts) -> _Parts:
    """Mirror a family: exchange f and g, u and v, and the side of each ODE check."""
    f, g, checks, domain, reason = parts
    checks = tuple((case, "g" if side == "f" else "f") for case, side in checks)
    return g, f, checks, AdmissibleDomain(domain.v, domain.u), reason


def _plane(f: Profile, g: Profile, gap: float, gap_text: str) -> _Parts:
    """Affine f and g: spacelike everywhere when gap = EG - F^2 clears the floor, else nowhere."""
    if gap >= SPACELIKE_FLOOR:
        return f, g, (), _EVERYWHERE, None
    return f, g, (), _EVERYWHERE, f"no spacelike points: {gap_text} = {gap:.6g} <= 0"


def _f2_23(c3=0.0, a=0.0, c5=0.0) -> _Parts:
    """F2_23: log-cos f, affine g; F2_24 is its mirror."""
    scale = c3 ** 2 + 1.0
    f, box = _log_cos(-scale / 2.0, 2.0 / math.sqrt(scale), a)
    return (f, affine_profile(c3, c5), ((OdeCase(OdeId.O2_21, c3), "f"),),
            AdmissibleDomain(box, REAL_LINE), None)


def _f2_35(c0_tilde=1.0, a_tilde=0.0, b_tilde=0.0) -> _Parts:
    _require(c0_tilde != 0.0, "F2_35 requires c0_tilde != 0")
    scale = c0_tilde * c0_tilde + 1.0
    f, box = _log_cos(scale / (2.0 * c0_tilde), 2.0 * c0_tilde / math.sqrt(scale), a_tilde,
                      b_tilde)
    return (f, affine_profile(c0_tilde, 0.0), ((OdeCase(OdeId.O2_33, c0_tilde), "f"),),
            AdmissibleDomain(box, REAL_LINE), None)


def _f2_39(c0_hat=1.0, a_hat=2.0, b_hat=0.0, *, sign: float) -> _Parts:
    _require(a_hat > 0.0, "F2_39 requires a_hat > 0")
    kk = 1.0 / (c0_hat * c0_hat + 1.0)
    v_star = 0.25 * math.log(kk / a_hat)
    g = _quad(*_radicand_integrands("F2_39", sign, a_hat, 4.0, -kk), beside(v_star, True), b_hat)
    return (affine_profile(c0_hat, 0.0), g, ((OdeCase(OdeId.O2_36, c0_hat), "g"),),
            AdmissibleDomain(REAL_LINE, Interval(v_star + EDGE_MARGIN, math.inf)), None)


def _f2_51(c=1.0, c3=0.0, c4=0.0, c5=0.0) -> _Parts:
    _require(c != 0.0, "F2_51 requires c != 0")
    (f, u), (g, v) = _log_cos(1.0 / c, c, c3), _log_cos(-1.0 / c, c, c4, c5)
    return f, g, (), AdmissibleDomain(u, v), None


def _f3_10(fid: str, c_name: str, c: float, a: float, b: float) -> _Parts:
    """F3_10: log-cos f, affine g of slope c, never spacelike; F3_13 is its mirror."""
    _require(c * c > 1.0, f"{fid} requires {c_name}^2 > 1")
    scale = c * c - 1.0
    f, box = _log_cos(-scale / 2.0, 2.0 / math.sqrt(scale), a)
    return (f, affine_profile(c, b), ((OdeCase(OdeId.O3_8, c), "f"),),
            AdmissibleDomain(box, REAL_LINE),
            f"no spacelike points: 1 - f'^2 - g'^2 <= 1 - {c_name}^2 = {1.0 - c * c:.6g} < 0")


def _f3_12(fid: str, side: str, c_name: str, ct_name: str, c: float, ct: float,
           b_quad: float, b_line: float) -> _Parts:
    """F3_12: integral f, affine g of slope c; F3_14 is its mirror.

    `side` and the parameter names keep the messages in the caller's own terms.
    """
    _require(c * c < 1.0, f"{fid} requires {c_name}^2 < 1")
    _require(ct != 0.0, f"{fid} requires {ct_name} != 0")
    s = math.sqrt(1.0 - c * c)
    rate = -4.0 / s
    f = _quad(*_tanh_ratio_integrands(s, ct, rate), _ratio_domain(ct, rate), b_quad)
    parts = (f, affine_profile(c, b_line), ((OdeCase(OdeId.O3_8, c), "f"),))
    if ct > 0.0:  # f' = s*coth(2u/s - ln(ct)/2)
        return *parts, AdmissibleDomain(_coth_box(f.domain, s, 0.5 * s), REAL_LINE), (
            f"no spacelike points: {side}'^2 > 1 - {c_name}^2 everywhere for {ct_name} > 0")
    # f' = s*tanh(2u/s - ln|ct|/2); keep s^2 sech^2 >= floor where it can
    low = 100.0 * s <= 1.02
    y_max = SAMPLING_CAP if low else math.acosh(100.0 * s)
    shift = 0.5 * math.log(-ct)
    box = _sorted_interval(0.5 * s * (-y_max + shift), 0.5 * s * (y_max + shift))
    return *parts, AdmissibleDomain(box, REAL_LINE), (
        f"spacelike margin below floor: 1 - {c_name}^2 = {s * s:.3g}" if low else None)


def _f3_25(c0_tilde=0.5, a_tilde=0.0, b_tilde=0.0) -> _Parts:
    squared = c0_tilde * c0_tilde
    _require(c0_tilde != 0.0 and squared < 1.0, "F3_25 requires 0 < c0_tilde^2 < 1")
    s = math.sqrt(1.0 - squared)
    f, box = _log_cos((1.0 - squared) / (2.0 * c0_tilde), 2.0 * c0_tilde / s, a_tilde, b_tilde)
    return (f, affine_profile(c0_tilde, 0.0), ((OdeCase(OdeId.O3_23, c0_tilde), "f"),),
            AdmissibleDomain(box, REAL_LINE),
            f"no spacelike points: g'^2 - f'^2 - 1 <= c0_tilde^2 - 1 = {squared - 1.0:.6g} < 0")


def _f3_27(c0_tilde=1.5, c1=-1.0, b_bar1=0.0) -> _Parts:
    _require(c0_tilde * c0_tilde > 1.0, "F3_27 requires c0_tilde^2 > 1")
    _require(c1 != 0.0, "F3_27 requires c1 != 0")
    s = math.sqrt(c0_tilde * c0_tilde - 1.0)
    rate = 4.0 * c0_tilde / s
    f = _quad(*_tanh_ratio_integrands(s, c1, rate), _ratio_domain(c1, rate))
    parts = (f, affine_profile(c0_tilde, b_bar1), ((OdeCase(OdeId.O3_23, c0_tilde), "f"),))
    if c1 > 0.0:  # f' = s*coth(y) with y = -(rate*u + ln(c1))/2
        return *parts, AdmissibleDomain(_coth_box(f.domain, s, 2.0 / abs(rate)), REAL_LINE), (
            "no spacelike points: f'^2 > c0_tilde^2 - 1 everywhere for c1 > 0")
    # f' = s*tanh(y) with y = -(rate*u + ln|c1|)/2; keep s^2 sech^2 >= floor where it can
    low = 100.0 * s <= 1.02
    y_max = SAMPLING_CAP if low else math.acosh(100.0 * s)
    shift = math.log(-c1)
    box = _sorted_interval(-(2.0 * y_max + shift) / rate, (2.0 * y_max - shift) / rate)
    return *parts, AdmissibleDomain(box, REAL_LINE), (
        f"spacelike margin below floor: c0_tilde^2 - 1 = {s * s:.3g}" if low else None)


def _f3_30(c0_hat=1.0, a_hat=-0.3, b_hat=0.0, *, sign: float) -> _Parts:
    _require(a_hat != 0.0, "F3_30 requires a_hat != 0")
    kk = 1.0 / (c0_hat * c0_hat + 1.0)
    integrands = _radicand_integrands("F3_30", sign, a_hat, -4.0, kk)
    f = affine_profile(c0_hat, 0.0)
    checks = ((OdeCase(OdeId.O3_28, c0_hat), "g"),)
    if a_hat > 0.0:
        # a_hat*e^(-4v) = kk*e^(-y) with y = 4v - ln(a_hat/kk)
        center = math.log(a_hat) - math.log(kk)
        box = Interval((center - SAMPLING_CAP) / 4.0, (center + SAMPLING_CAP) / 4.0)
        return (f, _quad(*integrands, REAL_LINE, b_hat), checks, AdmissibleDomain(REAL_LINE, box),
                "no spacelike points: g'^2 < 1 + c0_hat^2 everywhere for a_hat > 0")
    v_star = 0.25 * math.log(-a_hat / kk)
    v_hi = 0.25 * math.log(-a_hat / (SPACELIKE_FLOOR * kk * kk))
    g = _quad(*integrands, beside(v_star, True), b_hat)
    return f, g, checks, AdmissibleDomain(REAL_LINE, Interval(v_star + EDGE_MARGIN, v_hi)), None


def _f3_31(c0_prime=1.0, c1_prime=0.0, b_prime=0.0) -> _Parts:
    _require(c1_prime == 0.0 or abs(c1_prime * c1_prime - c0_prime * c0_prime - 2.0) < 1e-9,
             "F3_31 requires c1_prime = 0 or c1_prime^2 - c0_prime^2 - 2 = 0")
    return _plane(affine_profile(c0_prime, b_prime), affine_profile(c1_prime, 0.0),
                  c1_prime * c1_prime - c0_prime * c0_prime - 1.0, "g'^2 - f'^2 - 1")


def _f3_36(c1=0.3, c2=0.4, c3=0.0) -> _Parts:
    return _plane(affine_profile(c1, 0.0), affine_profile(c2, c3),
                  1.0 - c1 * c1 - c2 * c2, "1 - f'^2 - g'^2")


def _f3_38(c0=1.0, c_hat=-1.0, c_hat1=-1.0, a=0.0) -> _Parts:
    _require(c0 != 0.0, "F3_38 requires c0 != 0")
    _require(c_hat != 0.0 and c_hat1 != 0.0, "F3_38 requires c_hat, c_hat1 != 0")
    f = log_abs_exp_profile(1.0 / c0, c0, 1.0, -c_hat, a)
    g = log_abs_exp_profile(-1.0 / c0, c0, -c_hat1, 1.0, 0.0)
    reason = None
    if c_hat > 0.0:
        reason = "no spacelike points: 1 - f'^2 < 0 everywhere for c_hat > 0"
    elif c_hat1 > 0.0:
        reason = "no spacelike points: 1 - g'^2 < 0 everywhere for c_hat1 > 0"
    # f' = tanh(c0*u - ln|c_hat|/2), g' = -tanh(c0*v + ln|c_hat1|/2) where c_hat,
    # c_hat1 < 0, coth where > 0.  Spacelike boxes with |f'|, |g'| <= 0.7 keep
    # 1 - f'^2 - g'^2 >= 0.02.
    reach = SAMPLING_CAP if reason else math.atanh(0.7)

    def box(profile: Profile, coeff: float, center: float) -> Interval:
        if coeff > 0.0:
            return _coth_box(profile.domain, 1.0, 1.0 / abs(c0))
        return _sorted_interval(center - reach / c0, center + reach / c0)

    return (f, g, ((OdeCase(OdeId.O3_37F, c0), "f"), (OdeCase(OdeId.O3_37G, c0), "g")),
            AdmissibleDomain(box(f, c_hat, 0.5 * math.log(abs(c_hat)) / c0),
                             box(g, c_hat1, -0.5 * math.log(abs(c_hat1)) / c0)), reason)


def _f3_41(c1=0.5, c2=2.0, c3=0.0) -> _Parts:
    return _plane(affine_profile(c1, c3), affine_profile(c2, 0.0),
                  c2 * c2 - c1 * c1 - 1.0, "g'^2 - f'^2 - 1")


def _f3_43(c0_bar=1.0, c3=1.0, c4=0.0, b=0.0) -> _Parts:
    _require(c0_bar != 0.0, "F3_43 requires c0_bar != 0")
    _require(c3 != 0.0, "F3_43 requires c3 != 0")
    f, u_box = _log_cos(-1.0 / c0_bar, c0_bar, -c4)
    checks = ((OdeCase(OdeId.O3_42F, c0_bar), "f"), (OdeCase(OdeId.O3_42G, c0_bar), "g"))
    if c3 < 0.0:  # g' = tanh(c0_bar*v - ln|c3|/2)
        center = 0.5 * math.log(-c3)
        box = _sorted_interval((center - SAMPLING_CAP) / c0_bar, (center + SAMPLING_CAP) / c0_bar)
        return (f, log_abs_exp_profile(1.0 / c0_bar, c0_bar, 1.0, -c3, b), checks,
                AdmissibleDomain(u_box, box),
                "no spacelike points: g'^2 < 1 <= 1 + f'^2 everywhere for c3 < 0")
    # g' = (A + c3)/(A - c3) with A = e^(2*c0_bar*v); stay on the A > c3 side where
    # g' > 1, between the singularity and the point where g'^2 = 2 + 0.02.
    v_star = 0.5 * math.log(c3) / c0_bar
    g = log_abs_exp_profile(1.0 / c0_bar, c0_bar, 1.0, -c3, b,
                            domain=beside(v_star, c0_bar > 0.0))
    rho = math.sqrt(2.0 + 0.02)
    v_far = 0.5 * math.log(c3 * (rho + 1.0) / (rho - 1.0)) / c0_bar
    if v_star < v_far:
        v_interval = Interval(v_star + EDGE_MARGIN, v_far)
    else:
        v_interval = Interval(v_far, v_star - EDGE_MARGIN)
    # |f'| <= 1 on the u box, so g'^2 - f'^2 - 1 >= rho^2 - 2 = 0.02 there.
    quarter = _sorted_interval((-math.pi / 4.0 - c4) / c0_bar, (math.pi / 4.0 - c4) / c0_bar)
    return f, g, checks, AdmissibleDomain(quarter, v_interval), None


class _Family(NamedTuple):
    """One classified family: the theorem that states it, which each of its
    records carries, its surface type, the minimality case it solves (which
    fixes the ambient space), its builder, and its second representative
    setting.  The first setting is its defaults; a family with a +- branch
    takes its minus branch in the second."""

    theorem: str
    ttype: TranslationType
    case: CaseId
    builder: Callable[..., _Parts]
    second: dict[str, float]


_I, _II = TranslationType.I, TranslationType.II

# The lambdas name the parameters of a family that shares another's builder.
_FAMILIES: dict[str, _Family] = {
    "F2_23": _Family("2.2", _I, CaseId.E_M_I, _f2_23, {"c3": 1.5, "a": 0.4, "c5": 2.0}),
    "F2_24": _Family("2.2", _I, CaseId.E_M_I,
                     lambda c3_bar=0.0, a1=0.0, c6=0.0: _swap(_f2_23(c3_bar, a1, c6)),
                     {"c3_bar": -0.8, "a1": -0.2, "c6": 1.0}),
    "F2_35": _Family("2.3", _II, CaseId.E_M_II_III, _f2_35,
                     {"c0_tilde": -2.0, "a_tilde": 0.3, "b_tilde": -1.0}),
    "F2_39": _Family("2.3", _II, CaseId.E_M_II_III, _f2_39,
                     {"c0_hat": 0.5, "a_hat": 1.5, "b_hat": 0.5}),
    "F2_40": _Family("2.3", _II, CaseId.E_M_II_III, lambda c0_prime=1.0, b_prime=0.0: (
        affine_profile(c0_prime, b_prime), affine_profile(0.0, 0.0), (), _EVERYWHERE, None),
        {"c0_prime": -2.0, "b_prime": 3.0}),
    "F2_50": _Family("2.4", _I, CaseId.E_NM_ALL, lambda c0=1.0, c1=2.0, c2=0.0: (
        affine_profile(c0, 0.0), affine_profile(c1, c2), (), _EVERYWHERE, None),
        {"c0": -0.5, "c1": 0.25, "c2": 1.0}),
    "F2_51": _Family("2.4", _I, CaseId.E_NM_ALL, _f2_51,
                     {"c": 2.0, "c3": 0.2, "c4": -0.3, "c5": 1.0}),
    "F3_10": _Family("3.1", _I, CaseId.L_M_I,
                     lambda c=1.5, a=0.0, b_bar=0.0: _f3_10("F3_10", "c", c, a, b_bar),
                     {"c": -2.0, "a": 0.5, "b_bar": 1.0}),
    "F3_12": _Family("3.1", _I, CaseId.L_M_I, lambda c=0.5, c_tilde=-1.0, b_tilde=0.0: _f3_12(
        "F3_12", "f", "c", "c_tilde", c, c_tilde, 0.0, b_tilde),
        {"c": -0.6, "c_tilde": -0.2, "b_tilde": 1.0}),
    "F3_13": _Family("3.1", _I, CaseId.L_M_I, lambda c_hat=1.5, a1=0.0, b_bar1=0.0: _swap(
        _f3_10("F3_13", "c_hat", c_hat, a1, b_bar1)),
        {"c_hat": -1.2, "a1": 0.3, "b_bar1": -1.0}),
    "F3_14": _Family("3.1", _I, CaseId.L_M_I, lambda c_hat=0.5, c_tilde1=-1.0, b_tilde=0.0: _swap(
        _f3_12("F3_14", "g", "c_hat", "c_tilde1", c_hat, c_tilde1, b_tilde, 0.0)),
        {"c_hat": 0.0, "c_tilde1": -2.0, "b_tilde": 0.5}),
    "F3_25": _Family("3.2", _II, CaseId.L_M_II_III, _f3_25,
                     {"c0_tilde": -0.7, "a_tilde": 0.1, "b_tilde": 0.5}),
    "F3_27": _Family("3.2", _II, CaseId.L_M_II_III, _f3_27,
                     {"c0_tilde": -2.0, "c1": -0.5, "b_bar1": 1.0}),
    "F3_30": _Family("3.2", _II, CaseId.L_M_II_III, _f3_30,
                     {"c0_hat": 0.0, "a_hat": -0.5, "b_hat": 1.0}),
    "F3_31": _Family("3.2", _II, CaseId.L_M_II_III, _f3_31,
                     {"c0_prime": 0.5, "c1_prime": 0.0, "b_prime": 2.0}),
    "F3_36": _Family("3.3", _I, CaseId.L_NM_I, _f3_36, {"c1": 0.0, "c2": 0.0, "c3": 5.0}),
    "F3_38": _Family("3.3", _I, CaseId.L_NM_I, _f3_38,
                     {"c0": 2.0, "c_hat": -0.5, "c_hat1": -2.0, "a": 1.0}),
    "F3_41": _Family("3.4", _II, CaseId.L_NM_II_III, _f3_41, {"c1": 0.0, "c2": 1.5, "c3": -1.0}),
    "F3_43": _Family("3.4", _II, CaseId.L_NM_II_III, _f3_43,
                     {"c0_bar": 0.5, "c3": 2.0, "c4": 0.3, "b": 1.0}),
}
FamilyId = Enum("FamilyId", [(name, name) for name in _FAMILIES])

# Each family's parameters and their defaults, in order: its builder's
# positional parameters.  The families with a +- branch are those whose
# builder takes the keyword-only sign.
_DEFAULTS: dict[str, dict[str, float]] = {
    name: dict(zip(b.__code__.co_varnames[:b.__code__.co_argcount], b.__defaults__))
    for name, (_, _, _, b, _) in _FAMILIES.items()
}
BRANCHED_FAMILIES = frozenset(FamilyId(name) for name, row in _FAMILIES.items()
                              if row.builder.__code__.co_kwonlyargcount)


def _assemble(fam: SolutionFamily) -> FamilyBuild:
    _, ttype, case, builder, _ = _row_of(_FAMILIES, FamilyId, fam.family_id)
    name = fam.family_id.value
    params = dict(fam.params)
    if fam.family_id in BRANCHED_FAMILIES:
        params["sign"] = 1.0 if fam.branch is Branch.PLUS else -1.0
    try:
        f, g, checks, domain, reason = builder(**params)
    except (ArithmeticError, ValueError) as exc:
        # parameters so large or small that the closed forms overflow or collapse
        raise ParameterConstraintViolation(
            f"{name}: parameters out of range ({type(exc).__name__}: {exc})") from None
    signature, connection, _, _ = _row_of(_CASES, CaseId, case)
    surface = TranslationSurface(ttype, f._replace(label=f"{name}.f"),
                                 g._replace(label=f"{name}.g"),
                                 AmbientSpace(signature, connection))
    return FamilyBuild(surface, case, checks, domain, reason)


def build(fam: SolutionFamily) -> FamilyBuild:
    """Assemble a family with its admissible domain; EmptyDomain if it is never spacelike."""
    built = _assemble(fam)
    if built.empty_reason is not None:
        raise EmptyDomain(f"{fam.family_id.value}: {built.empty_reason}")
    return built


def default_settings(fid: FamilyId) -> tuple[SolutionFamily, ...]:
    """Two representative parameter settings per family: its defaults, and its
    second setting on the minus branch where it has one."""
    second = _row_of(_FAMILIES, FamilyId, fid).second
    return (make_family(fid), make_family(
        fid, Branch.MINUS if fid in BRANCHED_FAMILIES else Branch.PLUS, **second))


def all_default_settings() -> tuple[SolutionFamily, ...]:
    return tuple(fam for fid in FamilyId for fam in default_settings(fid))


def perturb_profile(profile: Profile, eps: float) -> Profile:
    """Profile plus eps*u^2; the negative control for family verification."""
    evaluate = profile.fn

    def fn(u: float, value: bool = True) -> tuple[float, float, float]:
        v, d1, d2 = evaluate(u, value)
        return (v + eps * u * u, d1 + 2.0 * eps * u, d2 + 2.0 * eps)

    return profile._replace(fn=fn, label=f"{profile.label}+{eps:g}u^2")


def verify_auto(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0,
                tolerance: float | None = None, perturb: float = 0.0) -> FamilyReport:
    """Sample a family and report its worst |residual|, and its worst |numerator| in full mode.

    The mode is full where the family has spacelike points and f is not
    perturbed; empty-domain families and the perturbed negative control are
    checked on the PDE residual alone.  Each sample draws u then v and
    evaluates f then g by inlining `Profile.at(u, value=False)`: it calls
    `fn(u, False)` and tests the domain and d1 and d2 only, as no check reads
    a value, and a failed test raises the profile's `error_at`.
    """
    if n_samples < 1:
        raise VerifierError(f"n_samples must be >= 1, got {n_samples}")
    built = _assemble(fam)
    full = built.empty_reason is None and not perturb
    tol = tolerance if tolerance is not None else built.tolerance
    box_u, box_v = built.domain.sampling_box()
    surface = built.surface
    f = perturb_profile(surface.f, perturb) if perturb else surface.f
    g = surface.g
    ttype, sig, kind = surface.ttype, surface.space.signature, surface.space.connection
    (f_lo, f_hi), f_eval = f.domain, f.fn
    (g_lo, g_hi), g_eval = g.domain, g.fn
    kernel, isfinite, sqrt = _curvature_kernel, math.isfinite, math.sqrt
    res_fn = _row_of(_CASES, CaseId, built.case).residual
    unit = SplitMix64(rng_seed).unit
    u_lo, u_span, v_lo, v_span = box_u.lo, box_u.hi - box_u.lo, box_v.lo, box_v.hi - box_v.lo
    worst_num = worst_res = 0.0
    for _ in range(n_samples):
        u = u_lo + u_span * unit()
        v = v_lo + v_span * unit()
        if not (f_lo <= u <= f_hi and isfinite(u)):
            raise f.error_at(u)
        _, f1, f2 = f_eval(u, False)
        if not (isfinite(f1) and isfinite(f2)):
            raise f.error_at(u)
        if not (g_lo <= v <= g_hi and isfinite(v)):
            raise g.error_at(v)
        _, g1, g2 = g_eval(v, False)
        if not (isfinite(g1) and isfinite(g2)):
            raise g.error_at(v)
        # running worsts, like max except that a NaN sample sticks
        if full:
            lc, det = kernel(ttype, sig, kind, f1, f2, g1, g2)
            err = abs(lc / sqrt(det))
            if err > worst_num or err != err:
                worst_num = err
        try:
            err = abs(res_fn(f1, f2, g1, g2))
        except OverflowError:  # a power such as g1 ** 3, mapped as `pde.residual` maps it
            raise DomainError(f"{fam.family_id.value}: {built.case.value} residual overflows "
                              f"at u={u!r}, v={v!r}") from None
        if err > worst_res or err != err:
            worst_res = err
    return FamilyReport(
        _FAMILIES[fam.family_id.value].theorem, fam.family_id.value, fam.branch.value,
        dict(fam.params), n_samples, "full" if full else "residual-only",
        worst_num if full else None, worst_res, tol,
        worst_res <= tol and (not full or worst_num <= tol), built.empty_reason,
    )


# Bounds of the RK4 cross-checks: the sup-norm gap between a reference run
# and its closed form, and the observed order of convergence of a probe.
ODE_TOLERANCE = 1e-6
MIN_CONVERGENCE_ORDER = 3.8


class OdeComparisonRecord(NamedTuple):
    ode_case: str
    family_id: str
    profile: str
    t_span: tuple[float, float]
    step: float
    max_abs_error: float
    tolerance: float
    verdict: bool


class ConvergenceRecord(NamedTuple):
    ode_case: str
    coarse_step: float
    coarse_error: float
    fine_error: float
    observed_order: float
    min_order: float
    verdict: bool


# (family at its defaults, profile, t span) of each RK4 reference run.
_ODE_REFERENCE_RUNS: tuple[tuple[FamilyId, str, tuple[float, float]], ...] = (
    (FamilyId.F2_23, "f", (0.0, 0.6)),
    (FamilyId.F2_35, "f", (0.0, 0.4)),
    (FamilyId.F2_39, "g", (0.0, 1.0)),
    (FamilyId.F3_12, "f", (0.0, 1.0)),
    (FamilyId.F3_27, "f", (0.0, 0.8)),
    (FamilyId.F3_30, "g", (0.0, 1.0)),
    (FamilyId.F3_38, "f", (0.0, 1.0)),
    (FamilyId.F3_38, "g", (0.0, 1.0)),
    (FamilyId.F3_43, "f", (0.0, 0.6)),
    (FamilyId.F3_43, "g", (0.3, 1.5)),
)
# An RK4 step must be shorter than this for every reference run to take one,
SHORTEST_ODE_SPAN = min(hi - lo for _, _, (lo, hi) in _ODE_REFERENCE_RUNS)
# and no shorter than this, so that none takes more than MAX_RK4_STEPS steps.
SHORTEST_ODE_STEP = max(hi - lo for _, _, (lo, hi) in _ODE_REFERENCE_RUNS) / MAX_RK4_STEPS
# The reference runs whose observed convergence order is measured, and the
# coarse step of each measurement.
_ORDER_PROBES = ((FamilyId.F2_23, "f"), (FamilyId.F3_38, "f"))
_COARSE_STEP = 0.02


def _run_errors(fid: FamilyId, which: str, span: tuple[float, float],
                steps: tuple[float, ...]) -> tuple[OdeCase, list[float]]:
    """The reduced ODE of a reference run and its RK4 sup-norm error at each step."""
    built = _assemble(make_family(fid))
    profile = built.surface.f if which == "f" else built.surface.g
    case = next(c for c, w in built.ode_checks if w == which)
    h0 = profile.at(span[0], value=False).d1
    return case, [compare_profile(integrate(case, h0, span, step), profile) for step in steps]


def _reference_run(fid: FamilyId, which: str, span: tuple[float, float], step: float,
                   tol: float) -> OdeComparisonRecord:
    case, [err] = _run_errors(fid, which, span, (step,))
    return OdeComparisonRecord(case.kind.value, fid.value, which, span, step, err, tol, err <= tol)


def ode_reference_tasks(step: float = 1e-3, tolerance: float | None = None
                        ) -> list[Callable[[], OdeComparisonRecord]]:
    """One zero-argument task per reference run, in table order, each returning
    the record of its RK4 trajectory against its closed-form profile."""
    tol = tolerance if tolerance is not None else ODE_TOLERANCE
    return [partial(_reference_run, fid, which, span, step, tol)
            for fid, which, span in _ODE_REFERENCE_RUNS]


def convergence_orders() -> tuple[ConvergenceRecord, ...]:
    """Observed RK4 order of each probe run from its errors at the coarse step and half it."""
    spans = {(fid, which): span for fid, which, span in _ODE_REFERENCE_RUNS}
    records = []
    for probe in _ORDER_PROBES:
        case, (err, fine) = _run_errors(*probe, spans[probe], (_COARSE_STEP, _COARSE_STEP / 2.0))
        order = math.log2(err / fine) if fine > 0.0 else math.inf
        records.append(ConvergenceRecord(case.kind.value, _COARSE_STEP, err, fine, order,
                                         MIN_CONVERGENCE_ORDER, order >= MIN_CONVERGENCE_ORDER))
    return tuple(records)
