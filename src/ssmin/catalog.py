"""Classified minimal-surface families with admissible domains and verification.

Each family binds a pair of profiles (f, g) to a surface type, an ambient
space, and the minimality case whose residual it solves identically.  Domains
are computed constructively: the nearest singularity of each closed form is
solved for and the interval shrunk by a fixed margin; in Minkowski space the
admissible box additionally keeps EG - F^2 above a floor.

Several Minkowski families solve their minimality PDE while having an empty
spacelike region for every permitted parameter choice (their derivative bounds
contradict EG - F^2 > 0).  Building such a family raises EmptyDomain; its
verification falls back to the PDE residual sampled on the profiles' own
domains, which is the part of the classification that remains checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping

from .ambient import AmbientSpace
from .curvature import mean_curvature_from_jets
from .errors import DomainError, EmptyDomain, ParameterConstraintViolation
from .jets import (
    Interval,
    Jet2,
    Profile,
    QuadratureSpec,
    REAL_LINE,
    SINGULARITY_GUARD,
    affine_profile,
    log_abs_cos_profile,
    log_abs_exp_profile,
    profile_quadrature,
)
from .ode import OdeCase, OdeId, compare_profile, integrate
from .pde import CASE_SPACE, CaseId, residual
from .sampling import SplitMix64, _worse
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

# Catalog quadrature runs tighter than the default spec so finite-difference
# oracles on profile values stay well below their tolerances.
_QUAD_SPEC = QuadratureSpec(abs_tol=1e-12, max_depth=40)


class FamilyId(Enum):
    F2_23 = "F2_23"
    F2_24 = "F2_24"
    F2_35 = "F2_35"
    F2_39 = "F2_39"
    F2_40 = "F2_40"
    F2_50 = "F2_50"
    F2_51 = "F2_51"
    F3_10 = "F3_10"
    F3_12 = "F3_12"
    F3_13 = "F3_13"
    F3_14 = "F3_14"
    F3_25 = "F3_25"
    F3_27 = "F3_27"
    F3_30 = "F3_30"
    F3_31 = "F3_31"
    F3_36 = "F3_36"
    F3_38 = "F3_38"
    F3_41 = "F3_41"
    F3_43 = "F3_43"


class Branch(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class SolutionFamily:
    family_id: FamilyId
    params: tuple[tuple[str, float], ...]
    branch: Branch = Branch.PLUS

    @property
    def param_dict(self) -> dict[str, float]:
        return dict(self.params)


def make_family(fid: FamilyId, branch: Branch | str = Branch.PLUS,
                **params: float) -> SolutionFamily:
    if isinstance(branch, str):
        branch = Branch(branch)
    merged = dict(_DEFAULTS[fid])
    for key, value in params.items():
        if key not in merged:
            raise ParameterConstraintViolation(
                f"{fid.value} has no parameter {key!r} (expected {sorted(merged)})"
            )
        merged[key] = float(value)
    return SolutionFamily(fid, tuple(sorted(merged.items())), branch)


@dataclass(frozen=True)
class AdmissibleDomain:
    u: Interval
    v: Interval

    def sampling_box(self, cap: float = SAMPLING_CAP) -> tuple[Interval, Interval]:
        return self.u.clipped(cap), self.v.clipped(cap)


@dataclass(frozen=True)
class FamilyBuild:
    family: SolutionFamily
    surface: TranslationSurface
    case: CaseId
    domain: AdmissibleDomain


@dataclass(frozen=True)
class _Assembly:
    ttype: TranslationType
    space: AmbientSpace
    f: Profile
    g: Profile
    case: CaseId
    ode_checks: tuple[tuple[OdeCase, str], ...]
    admissible: AdmissibleDomain | None
    empty_reason: str | None

    @property
    def tolerance(self) -> float:
        """Verification tolerance: quadrature-backed families get the looser bound."""
        if self.f.quadrature or self.g.quadrature:
            return QUADRATURE_TOLERANCE
        return CLOSED_FORM_TOLERANCE


@dataclass(frozen=True)
class FamilyReport:
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


_DEFAULTS: dict[FamilyId, dict[str, float]] = {
    FamilyId.F2_23: {"c3": 0.0, "a": 0.0, "c5": 0.0},
    FamilyId.F2_24: {"c3_bar": 0.0, "a1": 0.0, "c6": 0.0},
    FamilyId.F2_35: {"c0_tilde": 1.0, "a_tilde": 0.0, "b_tilde": 0.0},
    FamilyId.F2_39: {"c0_hat": 1.0, "a_hat": 2.0, "b_hat": 0.0},
    FamilyId.F2_40: {"c0_prime": 1.0, "b_prime": 0.0},
    FamilyId.F2_50: {"c0": 1.0, "c1": 2.0, "c2": 0.0},
    FamilyId.F2_51: {"c": 1.0, "c3": 0.0, "c4": 0.0, "c5": 0.0},
    FamilyId.F3_10: {"c": 1.5, "a": 0.0, "b_bar": 0.0},
    FamilyId.F3_12: {"c": 0.5, "c_tilde": -1.0, "b_tilde": 0.0},
    FamilyId.F3_13: {"c_hat": 1.5, "a1": 0.0, "b_bar1": 0.0},
    FamilyId.F3_14: {"c_hat": 0.5, "c_tilde1": -1.0, "b_tilde": 0.0},
    FamilyId.F3_25: {"c0_tilde": 0.5, "a_tilde": 0.0, "b_tilde": 0.0},
    FamilyId.F3_27: {"c0_tilde": 1.5, "c1": -1.0, "b_bar1": 0.0},
    FamilyId.F3_30: {"c0_hat": 1.0, "a_hat": -0.3, "b_hat": 0.0},
    FamilyId.F3_31: {"c0_prime": 1.0, "c1_prime": 0.0, "b_prime": 0.0},
    FamilyId.F3_36: {"c1": 0.3, "c2": 0.4, "c3": 0.0},
    FamilyId.F3_38: {"c0": 1.0, "c_hat": -1.0, "c_hat1": -1.0, "a": 0.0},
    FamilyId.F3_41: {"c1": 0.5, "c2": 2.0, "c3": 0.0},
    FamilyId.F3_43: {"c0_bar": 1.0, "c3": 1.0, "c4": 0.0, "b": 0.0},
}

BRANCHED_FAMILIES = frozenset({FamilyId.F2_39, FamilyId.F3_30})

# Family ids grouped by the classification suite they belong to.
THEOREM_SUITES: dict[str, tuple[FamilyId, ...]] = {
    "2.2": (FamilyId.F2_23, FamilyId.F2_24),
    "2.3": (FamilyId.F2_35, FamilyId.F2_39, FamilyId.F2_40),
    "2.4": (FamilyId.F2_50, FamilyId.F2_51),
    "3.1": (FamilyId.F3_10, FamilyId.F3_12, FamilyId.F3_13, FamilyId.F3_14),
    "3.2": (FamilyId.F3_25, FamilyId.F3_27, FamilyId.F3_30, FamilyId.F3_31),
    "3.3": (FamilyId.F3_36, FamilyId.F3_38),
    "3.4": (FamilyId.F3_41, FamilyId.F3_43),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterConstraintViolation(message)


def _sorted_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


# Derivative cap for admissible boxes of log|cos| profiles.  Past it the
# residual is a difference of terms ~ slope^4 and double rounding alone would
# exceed the closed-form verification tolerance.
SLOPE_CAP = 20.0


def _cos_admissible(k: float, q: float, a: float) -> Interval:
    """Admissible u box of k*ln|cos(q*u - a)|: away from the pole and |d1| <= cap."""
    theta_half = min(math.pi / 2.0 - abs(q) * EDGE_MARGIN,
                     math.atan(SLOPE_CAP / abs(k * q)))
    return _sorted_interval((a - theta_half) / q, (a + theta_half) / q)


def _quad(integrand: Callable[[float], float], integrand_d1: Callable[[float], float],
          domain: Interval, base: float = 0.0) -> Profile:
    """Catalog quadrature profile, anchored at 0 or else at a point inside its domain."""
    if domain.contains(0.0):
        anchor = 0.0
    elif math.isfinite(domain.lo) and math.isfinite(domain.hi):
        anchor = domain.midpoint
    elif math.isfinite(domain.lo):
        anchor = domain.lo + 1.0
    else:
        anchor = domain.hi - 1.0
    return profile_quadrature(integrand, integrand_d1, base=base, spec=_QUAD_SPEC,
                              domain=domain, base_point=anchor)


def _radicand_integrands(fid: str, sign: float, ah: float, rate: float, shift: float):
    """g' = sign / sqrt(ah*e^(rate*v) + shift) and its derivative (F2_39, F3_30)."""
    coeff = -0.5 * rate * sign

    def integrand(x: float) -> float:
        try:
            r = ah * math.exp(rate * x) + shift
            if r <= 0.0:
                raise DomainError(f"{fid}: radicand {r!r} nonpositive at v={x!r}")
            return sign / math.sqrt(r)
        except OverflowError:
            raise DomainError(f"{fid}: radicand overflows at v={x!r}") from None

    def integrand_d1(x: float) -> float:
        try:
            e = math.exp(rate * x)
            r = ah * e + shift
            if r <= 0.0:
                raise DomainError(f"{fid}: radicand {r!r} nonpositive at v={x!r}")
            return coeff * ah * e * r ** -1.5
        except OverflowError:
            raise DomainError(f"{fid}: radicand overflows at v={x!r}") from None

    return integrand, integrand_d1


def _tanh_ratio_integrands(s: float, coeff: float, rate: float):
    """f' = s (1 + coeff*e^(rate*x)) / (1 - coeff*e^(rate*x)) and its derivative."""

    def integrand(x: float) -> float:
        try:
            t = coeff * math.exp(rate * x)
            den = 1.0 - t
            if abs(den) < 1e-12:
                raise DomainError(f"ratio denominator vanishes at x={x!r}")
            return s * (1.0 + t) / den
        except OverflowError:
            raise DomainError(f"ratio exponential overflows at x={x!r}") from None

    def integrand_d1(x: float) -> float:
        try:
            t = coeff * math.exp(rate * x)
            den = 1.0 - t
            if abs(den) < 1e-12:
                raise DomainError(f"ratio denominator vanishes at x={x!r}")
            return 2.0 * s * rate * t / (den * den)
        except OverflowError:
            raise DomainError(f"ratio exponential overflows at x={x!r}") from None

    return integrand, integrand_d1


def _ratio_domain(coeff: float, rate: float) -> Interval:
    """Component of 1 - coeff*e^(rate*x) != 0, preferring the one containing 0."""
    if coeff <= 0.0:
        return REAL_LINE
    x_star = -math.log(coeff) / rate
    if x_star > 0.0:
        return Interval(-math.inf, x_star - SINGULARITY_GUARD)
    if x_star < 0.0:
        return Interval(x_star + SINGULARITY_GUARD, math.inf)
    return Interval(SINGULARITY_GUARD, math.inf)


# A builder maps (parameters, branch sign) to what varies between families:
# (f, g, reduced-ODE checks, admissible domain or the reason it is empty).
# Profile labels, the surface type, the case and the ambient space are added
# by `_assemble` from the `_FAMILIES` table.
_Parts = tuple[Profile, Profile, tuple[tuple[OdeCase, str], ...], AdmissibleDomain | str]
_EVERYWHERE = AdmissibleDomain(REAL_LINE, REAL_LINE)


def _swap(parts: _Parts) -> _Parts:
    """Mirror a family: exchange f and g, u and v, and the side of each ODE check."""
    f, g, checks, domain = parts
    checks = tuple((case, "g" if side == "f" else "f") for case, side in checks)
    if isinstance(domain, AdmissibleDomain):
        domain = AdmissibleDomain(domain.v, domain.u)
    return g, f, checks, domain


def _plane(f: Profile, g: Profile, gap: float, gap_text: str) -> _Parts:
    """Affine f and g: spacelike everywhere when gap = EG - F^2 clears the floor, else nowhere."""
    if gap >= SPACELIKE_FLOOR:
        return f, g, (), _EVERYWHERE
    return f, g, (), f"no spacelike points: {gap_text} = {gap:.6g} <= 0"


def _f2_23(c3: float, a: float, c5: float) -> _Parts:
    """F2_23: log-cos f, affine g; F2_24 is its mirror."""
    scale = c3 ** 2 + 1.0
    q = 2.0 / math.sqrt(scale)
    return (log_abs_cos_profile(-scale / 2.0, q, a), affine_profile(c3, c5),
            ((OdeCase.of(OdeId.O2_21, c3=c3), "f"),),
            AdmissibleDomain(_cos_admissible(-scale / 2.0, q, a), REAL_LINE))


def _build_f2_35(p: Mapping[str, float], sign: float) -> _Parts:
    c0t = p["c0_tilde"]
    _require(c0t != 0.0, "F2_35 requires c0_tilde != 0")
    scale = c0t * c0t + 1.0
    k, q = scale / (2.0 * c0t), 2.0 * c0t / math.sqrt(scale)
    return (log_abs_cos_profile(k, q, p["a_tilde"], p["b_tilde"]), affine_profile(c0t, 0.0),
            ((OdeCase.of(OdeId.O2_33, c0_tilde=c0t), "f"),),
            AdmissibleDomain(_cos_admissible(k, q, p["a_tilde"]), REAL_LINE))


def _build_f2_39(p: Mapping[str, float], sign: float) -> _Parts:
    c0h, ah = p["c0_hat"], p["a_hat"]
    _require(ah > 0.0, "F2_39 requires a_hat > 0")
    kk = 1.0 / (c0h * c0h + 1.0)
    v_star = 0.25 * math.log(kk / ah)
    prof_lo = 0.25 * math.log((kk + 1e-9) / ah)
    g = _quad(*_radicand_integrands("F2_39", sign, ah, 4.0, -kk),
              Interval(prof_lo, math.inf), p["b_hat"])
    return (affine_profile(c0h, 0.0), g, ((OdeCase.of(OdeId.O2_36, c0_hat=c0h), "g"),),
            AdmissibleDomain(REAL_LINE, Interval(v_star + EDGE_MARGIN, math.inf)))


def _build_f2_51(p: Mapping[str, float], sign: float) -> _Parts:
    c = p["c"]
    _require(c != 0.0, "F2_51 requires c != 0")
    return (log_abs_cos_profile(1.0 / c, c, p["c3"]),
            log_abs_cos_profile(-1.0 / c, c, p["c4"], p["c5"]), (),
            AdmissibleDomain(_cos_admissible(1.0 / c, c, p["c3"]),
                             _cos_admissible(1.0 / c, c, p["c4"])))


def _f3_10(fid: str, c_name: str, c: float, a: float, b: float) -> _Parts:
    """F3_10: log-cos f, affine g of slope c, never spacelike; F3_13 is its mirror."""
    _require(c * c > 1.0, f"{fid} requires {c_name}^2 > 1")
    scale = c * c - 1.0
    return (log_abs_cos_profile(-scale / 2.0, 2.0 / math.sqrt(scale), a),
            affine_profile(c, b), ((OdeCase.of(OdeId.O3_8, c=c), "f"),),
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
    parts = (f, affine_profile(c, b_line), ((OdeCase.of(OdeId.O3_8, c=c), "f"),))
    if ct > 0.0:
        return *parts, (f"no spacelike points: {side}'^2 > 1 - {c_name}^2 "
                        f"everywhere for {ct_name} > 0")
    if 100.0 * s <= 1.02:
        return *parts, f"spacelike margin below floor: 1 - {c_name}^2 = {s * s:.3g}"
    # f' = s*tanh(2u/s - ln|ct|/2); keep s^2 sech^2 >= floor
    y_max = math.acosh(100.0 * s)
    shift = 0.5 * math.log(-ct)
    box = _sorted_interval(0.5 * s * (-y_max + shift), 0.5 * s * (y_max + shift))
    return *parts, AdmissibleDomain(box, REAL_LINE)


def _build_f3_25(p: Mapping[str, float], sign: float) -> _Parts:
    c0t = p["c0_tilde"]
    _require(c0t != 0.0 and c0t * c0t < 1.0, "F3_25 requires 0 < c0_tilde^2 < 1")
    s = math.sqrt(1.0 - c0t * c0t)
    f = log_abs_cos_profile((1.0 - c0t * c0t) / (2.0 * c0t), 2.0 * c0t / s,
                            p["a_tilde"], p["b_tilde"])
    return (f, affine_profile(c0t, 0.0), ((OdeCase.of(OdeId.O3_23, c0_tilde=c0t), "f"),),
            f"no spacelike points: g'^2 - f'^2 - 1 <= c0_tilde^2 - 1 = "
            f"{c0t * c0t - 1.0:.6g} < 0")


def _build_f3_27(p: Mapping[str, float], sign: float) -> _Parts:
    c0t, c1 = p["c0_tilde"], p["c1"]
    _require(c0t * c0t > 1.0, "F3_27 requires c0_tilde^2 > 1")
    _require(c1 != 0.0, "F3_27 requires c1 != 0")
    s = math.sqrt(c0t * c0t - 1.0)
    rate = 4.0 * c0t / s
    f = _quad(*_tanh_ratio_integrands(s, c1, rate), _ratio_domain(c1, rate))
    parts = (f, affine_profile(c0t, p["b_bar1"]),
             ((OdeCase.of(OdeId.O3_23, c0_tilde=c0t), "f"),))
    if c1 > 0.0:
        return *parts, "no spacelike points: f'^2 > c0_tilde^2 - 1 everywhere for c1 > 0"
    if 100.0 * s <= 1.02:
        return *parts, f"spacelike margin below floor: c0_tilde^2 - 1 = {s * s:.3g}"
    # f' = s*tanh(y) with y = -(rate*u + ln|c1|)/2
    y_max = math.acosh(100.0 * s)
    shift = math.log(-c1)
    box = _sorted_interval(-(2.0 * y_max + shift) / rate, (2.0 * y_max - shift) / rate)
    return *parts, AdmissibleDomain(box, REAL_LINE)


def _build_f3_30(p: Mapping[str, float], sign: float) -> _Parts:
    c0h, ah = p["c0_hat"], p["a_hat"]
    _require(ah != 0.0, "F3_30 requires a_hat != 0")
    kk = 1.0 / (c0h * c0h + 1.0)
    integrands = _radicand_integrands("F3_30", sign, ah, -4.0, kk)
    f = affine_profile(c0h, 0.0)
    checks = ((OdeCase.of(OdeId.O3_28, c0_hat=c0h), "g"),)
    if ah > 0.0:
        return (f, _quad(*integrands, REAL_LINE, p["b_hat"]), checks,
                "no spacelike points: g'^2 < 1 + c0_hat^2 everywhere for a_hat > 0")
    v_star = 0.25 * math.log(-ah / kk)
    prof_lo = -0.25 * math.log((kk - 1e-9) / -ah)
    v_hi = 0.25 * math.log(-ah / (SPACELIKE_FLOOR * kk * kk))
    g = _quad(*integrands, Interval(prof_lo, math.inf), p["b_hat"])
    return f, g, checks, AdmissibleDomain(REAL_LINE, Interval(v_star + EDGE_MARGIN, v_hi))


def _build_f3_31(p: Mapping[str, float], sign: float) -> _Parts:
    c0p, c1p = p["c0_prime"], p["c1_prime"]
    _require(c1p == 0.0 or abs(c1p * c1p - c0p * c0p - 2.0) < 1e-9,
             "F3_31 requires c1_prime = 0 or c1_prime^2 - c0_prime^2 - 2 = 0")
    return _plane(affine_profile(c0p, p["b_prime"]), affine_profile(c1p, 0.0),
                  c1p * c1p - c0p * c0p - 1.0, "g'^2 - f'^2 - 1")


def _build_f3_36(p: Mapping[str, float], sign: float) -> _Parts:
    c1, c2 = p["c1"], p["c2"]
    return _plane(affine_profile(c1, 0.0), affine_profile(c2, p["c3"]),
                  1.0 - c1 * c1 - c2 * c2, "1 - f'^2 - g'^2")


def _build_f3_38(p: Mapping[str, float], sign: float) -> _Parts:
    c0, ch, ch1 = p["c0"], p["c_hat"], p["c_hat1"]
    _require(c0 != 0.0, "F3_38 requires c0 != 0")
    _require(ch != 0.0 and ch1 != 0.0, "F3_38 requires c_hat, c_hat1 != 0")
    parts = (log_abs_exp_profile(1.0 / c0, c0, 1.0, -ch, p["a"]),
             log_abs_exp_profile(-1.0 / c0, c0, -ch1, 1.0, 0.0),
             ((OdeCase.of(OdeId.O3_37F, c0=c0), "f"), (OdeCase.of(OdeId.O3_37G, c0=c0), "g")))
    if ch > 0.0:
        return *parts, "no spacelike points: 1 - f'^2 < 0 everywhere for c_hat > 0"
    if ch1 > 0.0:
        return *parts, "no spacelike points: 1 - g'^2 < 0 everywhere for c_hat1 > 0"
    # f' = tanh(c0*u - ln|ch|/2), g' = -tanh(c0*v + ln|ch1|/2); boxes with
    # |f'|, |g'| <= 0.7 keep 1 - f'^2 - g'^2 >= 0.02.
    reach = math.atanh(0.7)
    fu_center = 0.5 * math.log(-ch) / c0
    gv_center = -0.5 * math.log(-ch1) / c0
    return *parts, AdmissibleDomain(
        _sorted_interval(fu_center - reach / c0, fu_center + reach / c0),
        _sorted_interval(gv_center - reach / c0, gv_center + reach / c0))


def _build_f3_41(p: Mapping[str, float], sign: float) -> _Parts:
    c1, c2 = p["c1"], p["c2"]
    return _plane(affine_profile(c1, p["c3"]), affine_profile(c2, 0.0),
                  c2 * c2 - c1 * c1 - 1.0, "g'^2 - f'^2 - 1")


def _build_f3_43(p: Mapping[str, float], sign: float) -> _Parts:
    c0b, c3 = p["c0_bar"], p["c3"]
    _require(c0b != 0.0, "F3_43 requires c0_bar != 0")
    _require(c3 != 0.0, "F3_43 requires c3 != 0")
    f = log_abs_cos_profile(-1.0 / c0b, c0b, -p["c4"])
    checks = ((OdeCase.of(OdeId.O3_42F, c0_bar=c0b), "f"),
              (OdeCase.of(OdeId.O3_42G, c0_bar=c0b), "g"))
    if c3 < 0.0:
        return (f, log_abs_exp_profile(1.0 / c0b, c0b, 1.0, -c3, p["b"]), checks,
                "no spacelike points: g'^2 < 1 <= 1 + f'^2 everywhere for c3 < 0")
    # g' = (A + c3)/(A - c3) with A = e^(2*c0b*v); stay on the A > c3 side where
    # g' > 1, between the singularity and the point where g'^2 = 2 + 0.02.
    v_star = 0.5 * math.log(c3) / c0b
    g_domain = (Interval(v_star + SINGULARITY_GUARD, math.inf) if c0b > 0.0
                else Interval(-math.inf, v_star - SINGULARITY_GUARD))
    g = log_abs_exp_profile(1.0 / c0b, c0b, 1.0, -c3, p["b"], domain=g_domain)
    rho = math.sqrt(2.0 + 0.02)
    v_far = 0.5 * math.log(c3 * (rho + 1.0) / (rho - 1.0)) / c0b
    if v_star < v_far:
        v_interval = Interval(v_star + EDGE_MARGIN, v_far)
    else:
        v_interval = Interval(v_far, v_star - EDGE_MARGIN)
    # |f'| <= 1 on the u box, so g'^2 - f'^2 - 1 >= rho^2 - 2 = 0.02 there.
    quarter = _sorted_interval((-math.pi / 4.0 - p["c4"]) / c0b,
                               (math.pi / 4.0 - p["c4"]) / c0b)
    return f, g, checks, AdmissibleDomain(quarter, v_interval)


_I, _II = TranslationType.I, TranslationType.II

# Surface type, minimality case and builder of every family; the ambient
# space follows from the case.
_FAMILIES: dict[FamilyId, tuple[TranslationType, CaseId,
                                Callable[[Mapping[str, float], float], _Parts]]] = {
    FamilyId.F2_23: (_I, CaseId.E_M_I, lambda p, sign: _f2_23(p["c3"], p["a"], p["c5"])),
    FamilyId.F2_24: (_I, CaseId.E_M_I,
                     lambda p, sign: _swap(_f2_23(p["c3_bar"], p["a1"], p["c6"]))),
    FamilyId.F2_35: (_II, CaseId.E_M_II_III, _build_f2_35),
    FamilyId.F2_39: (_II, CaseId.E_M_II_III, _build_f2_39),
    FamilyId.F2_40: (_II, CaseId.E_M_II_III, lambda p, sign: (
        affine_profile(p["c0_prime"], p["b_prime"]), affine_profile(0.0, 0.0), (), _EVERYWHERE)),
    FamilyId.F2_50: (_I, CaseId.E_NM_ALL, lambda p, sign: (
        affine_profile(p["c0"], 0.0), affine_profile(p["c1"], p["c2"]), (), _EVERYWHERE)),
    FamilyId.F2_51: (_I, CaseId.E_NM_ALL, _build_f2_51),
    FamilyId.F3_10: (_I, CaseId.L_M_I,
                     lambda p, sign: _f3_10("F3_10", "c", p["c"], p["a"], p["b_bar"])),
    FamilyId.F3_12: (_I, CaseId.L_M_I, lambda p, sign: _f3_12(
        "F3_12", "f", "c", "c_tilde", p["c"], p["c_tilde"], 0.0, p["b_tilde"])),
    FamilyId.F3_13: (_I, CaseId.L_M_I, lambda p, sign: _swap(
        _f3_10("F3_13", "c_hat", p["c_hat"], p["a1"], p["b_bar1"]))),
    FamilyId.F3_14: (_I, CaseId.L_M_I, lambda p, sign: _swap(_f3_12(
        "F3_14", "g", "c_hat", "c_tilde1", p["c_hat"], p["c_tilde1"], p["b_tilde"], 0.0))),
    FamilyId.F3_25: (_II, CaseId.L_M_II_III, _build_f3_25),
    FamilyId.F3_27: (_II, CaseId.L_M_II_III, _build_f3_27),
    FamilyId.F3_30: (_II, CaseId.L_M_II_III, _build_f3_30),
    FamilyId.F3_31: (_II, CaseId.L_M_II_III, _build_f3_31),
    FamilyId.F3_36: (_I, CaseId.L_NM_I, _build_f3_36),
    FamilyId.F3_38: (_I, CaseId.L_NM_I, _build_f3_38),
    FamilyId.F3_41: (_II, CaseId.L_NM_II_III, _build_f3_41),
    FamilyId.F3_43: (_II, CaseId.L_NM_II_III, _build_f3_43),
}


def _assemble(fam: SolutionFamily) -> _Assembly:
    params = dict(_DEFAULTS[fam.family_id])
    for key, value in fam.params:
        if key not in params:
            raise ParameterConstraintViolation(
                f"{fam.family_id.value} has no parameter {key!r}"
            )
        params[key] = value
    ttype, case, builder = _FAMILIES[fam.family_id]
    f, g, checks, domain = builder(params, 1.0 if fam.branch is Branch.PLUS else -1.0)
    admissible, reason = ((domain, None) if isinstance(domain, AdmissibleDomain)
                          else (None, domain))
    signature, connection, _ = CASE_SPACE[case]
    name = fam.family_id.value
    return _Assembly(ttype, AmbientSpace(signature, connection),
                     replace(f, label=f"{name}.f"), replace(g, label=f"{name}.g"),
                     case, checks, admissible, reason)


def build(fam: SolutionFamily) -> FamilyBuild:
    """Construct the surface of a family; EmptyDomain if it is never spacelike."""
    asm = _assemble(fam)
    if asm.admissible is None:
        raise EmptyDomain(f"{fam.family_id.value}: {asm.empty_reason}")
    surface = TranslationSurface(asm.ttype, asm.f, asm.g, asm.space)
    return FamilyBuild(fam, surface, asm.case, asm.admissible)


def default_settings(fid: FamilyId) -> tuple[SolutionFamily, ...]:
    """Two representative parameter settings per family (both branches where present)."""
    return _DEFAULT_SETTINGS[fid]


def all_default_settings() -> tuple[SolutionFamily, ...]:
    return tuple(fam for fid in FamilyId for fam in _DEFAULT_SETTINGS[fid])


# The second representative setting of every family; the first is its
# defaults.  Branched families take their minus branch in the second.
_SECOND_SETTINGS: dict[FamilyId, dict[str, float]] = {
    FamilyId.F2_23: {"c3": 1.5, "a": 0.4, "c5": 2.0},
    FamilyId.F2_24: {"c3_bar": -0.8, "a1": -0.2, "c6": 1.0},
    FamilyId.F2_35: {"c0_tilde": -2.0, "a_tilde": 0.3, "b_tilde": -1.0},
    FamilyId.F2_39: {"c0_hat": 0.5, "a_hat": 1.5, "b_hat": 0.5},
    FamilyId.F2_40: {"c0_prime": -2.0, "b_prime": 3.0},
    FamilyId.F2_50: {"c0": -0.5, "c1": 0.25, "c2": 1.0},
    FamilyId.F2_51: {"c": 2.0, "c3": 0.2, "c4": -0.3, "c5": 1.0},
    FamilyId.F3_10: {"c": -2.0, "a": 0.5, "b_bar": 1.0},
    FamilyId.F3_12: {"c": -0.6, "c_tilde": -0.2, "b_tilde": 1.0},
    FamilyId.F3_13: {"c_hat": -1.2, "a1": 0.3, "b_bar1": -1.0},
    FamilyId.F3_14: {"c_hat": 0.0, "c_tilde1": -2.0, "b_tilde": 0.5},
    FamilyId.F3_25: {"c0_tilde": -0.7, "a_tilde": 0.1, "b_tilde": 0.5},
    FamilyId.F3_27: {"c0_tilde": -2.0, "c1": -0.5, "b_bar1": 1.0},
    FamilyId.F3_30: {"c0_hat": 0.0, "a_hat": -0.5, "b_hat": 1.0},
    FamilyId.F3_31: {"c0_prime": 0.5, "c1_prime": 0.0, "b_prime": 2.0},
    FamilyId.F3_36: {"c1": 0.0, "c2": 0.0, "c3": 5.0},
    FamilyId.F3_38: {"c0": 2.0, "c_hat": -0.5, "c_hat1": -2.0, "a": 1.0},
    FamilyId.F3_41: {"c1": 0.0, "c2": 1.5, "c3": -1.0},
    FamilyId.F3_43: {"c0_bar": 0.5, "c3": 2.0, "c4": 0.3, "b": 1.0},
}

_DEFAULT_SETTINGS: dict[FamilyId, tuple[SolutionFamily, ...]] = {
    fid: (make_family(fid), make_family(
        fid, Branch.MINUS if fid in BRANCHED_FAMILIES else Branch.PLUS, **second))
    for fid, second in _SECOND_SETTINGS.items()
}


def family_tolerance(fam: SolutionFamily) -> float:
    """Verification tolerance: quadrature-backed families get the looser bound."""
    return _assemble(fam).tolerance


def perturb_profile(profile: Profile, eps: float) -> Profile:
    """Profile plus eps*u^2; the negative control for family verification."""

    def fn(u: float) -> Jet2:
        return profile.fn(u) + Jet2(eps * u * u, 2.0 * eps * u, 2.0 * eps)

    return replace(profile, fn=fn, label=f"{profile.label}+{eps:g}u^2")


def _moderate_box(profile: Profile, max_slope: float = 2.0,
                  half_width: float = 2.0, step: float = 0.05) -> Interval:
    """Interval around a well-behaved point where |d1| stays moderate.

    Used for residual-only sampling of families whose spacelike region is
    empty and for finite-difference oracles: it keeps evaluations away from
    poles where cancellation or stencil truncation would swamp the check.
    A profile steeper than max_slope at every candidate (a steep line, say)
    gets the box under the gentlest slope found instead.
    """

    def slope(u: float) -> float:
        try:
            return abs(profile.at(u).d1)
        except DomainError:
            return math.inf

    clipped = profile.domain.clipped(SAMPLING_CAP)
    candidates = [c for c in [0.0, clipped.midpoint] + [
        clipped.lo + k * clipped.width / 40.0 for k in range(1, 40)
    ] if profile.domain.contains(c)]
    start = next((c for c in candidates if slope(c) <= max_slope), None)
    if start is None:
        gentlest = min(map(slope, candidates), default=math.inf)
        if math.isinf(gentlest):
            raise DomainError(f"{profile.label}: no moderate-slope point found")
        return _moderate_box(profile, gentlest, half_width, step)
    lo = hi = start
    while hi - start < half_width and slope(hi + step) <= max_slope:
        hi += step
    while start - lo < half_width and slope(lo - step) <= max_slope:
        lo -= step
    if hi - lo < step:
        lo, hi = start - 0.5 * step, start + 0.5 * step
    return Interval(lo, hi)


def _residual_box(asm: _Assembly) -> tuple[Interval, Interval]:
    if asm.admissible is not None:
        return asm.admissible.sampling_box()
    return _moderate_box(asm.f), _moderate_box(asm.g)


def verify_family(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0,
                  tolerance: float | None = None) -> FamilyReport:
    """Sample the admissible box; report worst |numerator| and |residual|."""
    asm = _assemble(fam)
    if asm.admissible is None:
        raise EmptyDomain(f"{fam.family_id.value}: {asm.empty_reason}")
    tol = tolerance if tolerance is not None else asm.tolerance
    box_u, box_v = asm.admissible.sampling_box()
    rng = SplitMix64(rng_seed)
    worst_num = 0.0
    worst_res = 0.0
    kind = asm.space.connection
    for _ in range(n_samples):
        u = rng.uniform(box_u.lo, box_u.hi)
        v = rng.uniform(box_v.lo, box_v.hi)
        fj, gj = asm.f.at(u), asm.g.at(v)
        report = mean_curvature_from_jets(asm.ttype, asm.space, kind, fj, gj)
        worst_num = _worse(worst_num, abs(report.numerator))
        worst_res = _worse(worst_res, abs(residual(asm.case, fj, gj)))
    return FamilyReport(
        fam.family_id.value, fam.branch.value, fam.param_dict, n_samples, "full",
        worst_num, worst_res, tol, worst_num <= tol and worst_res <= tol, None,
    )


def verify_residual(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0,
                    tolerance: float | None = None, perturb: float = 0.0) -> FamilyReport:
    """Sample the PDE residual only; works for empty-domain families and controls."""
    asm = _assemble(fam)
    tol = tolerance if tolerance is not None else asm.tolerance
    box_u, box_v = _residual_box(asm)
    f = perturb_profile(asm.f, perturb) if perturb else asm.f
    rng = SplitMix64(rng_seed)
    worst_res = 0.0
    for _ in range(n_samples):
        u = rng.uniform(box_u.lo, box_u.hi)
        v = rng.uniform(box_v.lo, box_v.hi)
        worst_res = _worse(worst_res, abs(residual(asm.case, f.at(u), asm.g.at(v))))
    return FamilyReport(
        fam.family_id.value, fam.branch.value, fam.param_dict, n_samples,
        "residual-only", None, worst_res, tol, worst_res <= tol, asm.empty_reason,
    )


def verify_auto(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0,
                tolerance: float | None = None, perturb: float = 0.0) -> FamilyReport:
    """Full verification where the family has spacelike points, residual-only otherwise."""
    if perturb:
        return verify_residual(fam, n_samples, rng_seed, tolerance, perturb)
    asm = _assemble(fam)
    if asm.admissible is None:
        return verify_residual(fam, n_samples, rng_seed, tolerance)
    return verify_family(fam, n_samples, rng_seed, tolerance)


def ode_pointwise_max(fam: SolutionFamily, n_samples: int = 200, rng_seed: int = 0) -> float:
    """Worst |h' - phi(h)| over samples, for every reduced-ODE binding of the family."""
    asm = _assemble(fam)
    if not asm.ode_checks:
        return 0.0
    box_u, box_v = _residual_box(asm)
    worst = 0.0
    rng = SplitMix64(rng_seed)
    for case, which in asm.ode_checks:
        phi = case.rhs()
        profile = asm.f if which == "f" else asm.g
        box = box_u if which == "f" else box_v
        for _ in range(n_samples):
            jet = profile.at(rng.uniform(box.lo, box.hi))
            worst = _worse(worst, abs(jet.d2 - phi(jet.d1)))
    return worst


# Bounds of the RK4 cross-checks: the sup-norm gap between a reference run
# and its closed form, and the observed order of convergence of a probe.
ODE_TOLERANCE = 1e-6
MIN_CONVERGENCE_ORDER = 3.8


@dataclass(frozen=True)
class OdeComparisonRecord:
    ode_case: str
    family_id: str
    profile: str
    t_span: tuple[float, float]
    step: float
    max_abs_error: float
    tolerance: float
    verdict: bool


@dataclass(frozen=True)
class ConvergenceRecord:
    ode_case: str
    coarse_step: float
    coarse_error: float
    fine_error: float
    observed_order: float

    @property
    def verdict(self) -> bool:
        return self.observed_order >= MIN_CONVERGENCE_ORDER


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
# An RK4 step must be shorter than this for every reference run to take one.
SHORTEST_ODE_SPAN = min(hi - lo for _, _, (lo, hi) in _ODE_REFERENCE_RUNS)
# The reference runs whose observed convergence order is measured.
_ORDER_PROBES = ((FamilyId.F2_23, "f"), (FamilyId.F3_38, "f"))


def _run_errors(fid: FamilyId, which: str, span: tuple[float, float],
                steps: tuple[float, ...]) -> tuple[OdeCase, list[float]]:
    """The reduced ODE of a reference run and its RK4 sup-norm error at each step."""
    asm = _assemble(make_family(fid))
    profile = asm.f if which == "f" else asm.g
    case = next(c for c, w in asm.ode_checks if w == which)
    h0 = profile.at(span[0]).d1
    return case, [compare_profile(integrate(case, h0, span, step), profile) for step in steps]


def ode_reference_runs(step: float = 1e-3,
                       tolerance: float | None = None) -> tuple[OdeComparisonRecord, ...]:
    """RK4 trajectories of every reduced ODE against its closed-form profile."""
    tol = tolerance if tolerance is not None else ODE_TOLERANCE
    records = []
    for fid, which, span in _ODE_REFERENCE_RUNS:
        case, [err] = _run_errors(fid, which, span, (step,))
        records.append(OdeComparisonRecord(case.kind.value, fid.value, which, span,
                                           step, err, tol, err <= tol))
    return tuple(records)


def convergence_orders(coarse: float = 0.02) -> tuple[ConvergenceRecord, ...]:
    """Observed RK4 order of each probe run from its errors at step coarse and coarse/2."""
    spans = {(fid, which): span for fid, which, span in _ODE_REFERENCE_RUNS}
    records = []
    for probe in _ORDER_PROBES:
        case, (err, fine) = _run_errors(*probe, spans[probe], (coarse, coarse / 2.0))
        order = math.log2(err / fine) if fine > 0.0 else math.inf
        records.append(ConvergenceRecord(case.kind.value, coarse, err, fine, order))
    return tuple(records)
