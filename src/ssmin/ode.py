"""Reduced ODEs of the classification and their RK4 cross-checks.

Every classified family reduces the minimality PDE to a first-order autonomous
equation h' = phi(h) for h = f' or g'.  Fixed-step classic Runge-Kutta 4
integrates these equations as an oracle independent of the closed forms;
tan-type solutions genuinely blow up in finite time, which the integrator
reports rather than hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUp,
    DomainError,
    DomainMismatch,
    IllConditionedFit,
    InvalidStep,
    UnknownCase,
)
from .jets import Interval, Jet2, Profile
from .sampling import _worse

BLOWUP_THRESHOLD = 1e12


class OdeId(Enum):
    O2_21 = "O2_21"
    O2_33 = "O2_33"
    O2_36 = "O2_36"
    O3_8 = "O3_8"
    O3_23 = "O3_23"
    O3_28 = "O3_28"
    O3_37F = "O3_37f"
    O3_37G = "O3_37g"
    O3_42F = "O3_42f"
    O3_42G = "O3_42g"


@dataclass(frozen=True)
class OdeCase:
    """A reduced equation h' = phi(h) with its named parameters."""

    kind: OdeId
    params: tuple[tuple[str, float], ...]

    @staticmethod
    def of(kind: OdeId, **params: float) -> "OdeCase":
        return OdeCase(kind, tuple(sorted((k, float(v)) for k, v in params.items())))

    def param(self, name: str) -> float:
        for key, value in self.params:
            if key == name:
                return value
        raise UnknownCase(f"{self.kind.value} has no parameter {name!r}")

    def rhs(self) -> Callable[[float], float]:
        k = self.kind
        if k is OdeId.O2_21:
            d = self.param("c3") ** 2 + 1.0
            return lambda h: 2.0 + 2.0 * h * h / d
        if k is OdeId.O2_33:
            c = self.param("c0_tilde")
            d = c * c + 1.0
            return lambda h: -2.0 * c - 2.0 * c * h * h / d
        if k is OdeId.O2_36:
            d = self.param("c0_hat") ** 2 + 1.0
            return lambda h: -2.0 * h ** 3 / d - 2.0 * h
        if k is OdeId.O3_8:
            c = self.param("c")
            d = c * c - 1.0
            if d == 0.0:
                raise UnknownCase("O3_8 requires c^2 != 1")
            return lambda h: 2.0 + 2.0 * h * h / d
        if k is OdeId.O3_23:
            c = self.param("c0_tilde")
            d = c * c - 1.0
            if d == 0.0:
                raise UnknownCase("O3_23 requires c0_tilde^2 != 1")
            return lambda h: 2.0 * c * h * h / d - 2.0 * c
        if k is OdeId.O3_28:
            d = self.param("c0_hat") ** 2 + 1.0
            return lambda h: -2.0 * h ** 3 / d + 2.0 * h
        if k is OdeId.O3_37F:
            c = self.param("c0")
            return lambda h: c * (1.0 - h * h)
        if k is OdeId.O3_37G:
            c = self.param("c0")
            return lambda h: c * (h * h - 1.0)
        if k is OdeId.O3_42F:
            c = self.param("c0_bar")
            return lambda h: c * (1.0 + h * h)
        if k is OdeId.O3_42G:
            c = self.param("c0_bar")
            return lambda h: c * (1.0 - h * h)
        raise UnknownCase(repr(k))


@dataclass(frozen=True)
class Trajectory:
    nodes: tuple[tuple[float, float], ...]
    step: float
    method_order: int = 4

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.nodes)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.nodes)

    @property
    def end_value(self) -> float:
        return self.nodes[-1][1]


def _check_span_step(t_span: tuple[float, float], step: float) -> None:
    t0, t1 = t_span
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidStep(f"step must be positive and finite, got {step!r}")
    if not t1 > t0:
        raise InvalidStep(f"t_span must be increasing, got {t_span!r}")


def _rk4_step(phi: Callable[[float], float], y: float, h: float) -> float:
    k1 = phi(y)
    k2 = phi(y + 0.5 * h * k1)
    k3 = phi(y + 0.5 * h * k2)
    k4 = phi(y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_scalar(phi: Callable[[float], float], y0: float,
                     t_span: tuple[float, float], step: float,
                     label: str = "ode") -> Trajectory:
    """RK4 trajectory of y' = phi(y); aborts with BlowUp past 1e12."""
    _check_span_step(t_span, step)
    t0, t1 = t_span
    n_full = int(math.floor((t1 - t0) / step + 1e-9))
    nodes = [(t0, y0)]
    y = y0
    t = t0
    for i in range(1, n_full + 1):
        y = _rk4_step(phi, y, step)
        t = t0 + i * step
        if not math.isfinite(y) or abs(y) > BLOWUP_THRESHOLD:
            raise BlowUp(f"{label}: |y| exceeded {BLOWUP_THRESHOLD:g} at t={t!r}", t=t)
        nodes.append((t, y))
    tail = t1 - t
    if tail > 1e-12:
        y = _rk4_step(phi, y, tail)
        if not math.isfinite(y) or abs(y) > BLOWUP_THRESHOLD:
            raise BlowUp(f"{label}: |y| exceeded {BLOWUP_THRESHOLD:g} at t={t1!r}", t=t1)
        nodes.append((t1, y))
    return Trajectory(tuple(nodes), step)


def integrate(case: OdeCase, y0: float, t_span: tuple[float, float],
              step: float) -> Trajectory:
    """RK4 trajectory of h' = phi(h) for a named reduced equation."""
    return integrate_scalar(case.rhs(), y0, t_span, step, label=case.kind.value)


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
    intercept = 4.0 / (case.param("c0_hat") ** 2 + 1.0)

    traj = integrate(case, h0, v_span, step)
    ts = np.asarray(traj.times)
    hs = np.asarray(traj.values)
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


def compare_profile(numeric: Trajectory, analytic: Profile) -> float:
    """Sup-norm gap between trajectory h-values and the profile's first derivative."""
    worst = 0.0
    for t, h in numeric.nodes:
        if not analytic.domain.contains(t):
            raise DomainMismatch(
                f"trajectory node t={t!r} outside profile domain "
                f"[{analytic.domain.lo!r}, {analytic.domain.hi!r}]"
            )
        worst = _worse(worst, abs(h - analytic.at(t).d1))
    return worst


def sampled_trajectory(profile: Profile, times: Sequence[float], step: float) -> Trajectory:
    """Trajectory whose nodes copy the profile's own derivative (for controls)."""
    return Trajectory(tuple((t, profile.at(t).d1) for t in times), step)
