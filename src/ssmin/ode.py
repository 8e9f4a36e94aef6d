"""Reduced ODEs of the classification and their RK4 cross-checks.

Every classified family reduces the minimality PDE to a first-order autonomous
equation h' = phi(h) for h = f' or g'.  Fixed-step classic Runge-Kutta 4
integrates these equations as an oracle independent of the closed forms;
tan-type solutions genuinely blow up in finite time, which the integrator
reports rather than hides.
"""

import math
from enum import Enum
from typing import Callable, NamedTuple

from .errors import BlowUp, DomainMismatch, InvalidStep, ParameterConstraintViolation, _row_of
from .jets import Profile

BLOWUP_THRESHOLD = 1e12
# Most RK4 steps one run may take, the tail step included: a bound on its time
# and on the nodes it keeps.
MAX_RK4_STEPS = 100_000


def _nonzero(d: float, message: str) -> float:
    """A denominator c^2 - 1 of a Minkowski equation; ParameterConstraintViolation
    where it vanishes, as where it overflows (`OdeCase.rhs`)."""
    if d == 0.0:
        raise ParameterConstraintViolation(message)
    return d


# Each reduced equation as a factory c -> phi.  A denominator d of c is bound
# once per c, as phi's default argument.
_ODES: dict[str, Callable[[float], Callable[[float], float]]] = {
    "O2_21": lambda c: lambda h, d=c ** 2 + 1.0: 2.0 + 2.0 * h * h / d,
    "O2_33": lambda c: lambda h, d=c * c + 1.0: -2.0 * c - 2.0 * c * h * h / d,
    "O2_36": lambda c: lambda h, d=c ** 2 + 1.0: -2.0 * h ** 3 / d - 2.0 * h,
    "O3_8": lambda c: lambda h, d=_nonzero(c * c - 1.0, "O3_8 requires c^2 != 1"): (
        2.0 + 2.0 * h * h / d),
    "O3_23": lambda c: lambda h, d=_nonzero(c * c - 1.0, "O3_23 requires c0_tilde^2 != 1"): (
        2.0 * c * h * h / d - 2.0 * c),
    "O3_28": lambda c: lambda h, d=c ** 2 + 1.0: -2.0 * h ** 3 / d + 2.0 * h,
    "O3_37f": lambda c: lambda h: c * (1.0 - h * h),
    "O3_37g": lambda c: lambda h: c * (h * h - 1.0),
    "O3_42f": lambda c: lambda h: c * (1.0 + h * h),
    "O3_42g": lambda c: lambda h: c * (1.0 - h * h),
}
OdeId = Enum("OdeId", [(name.upper(), name) for name in _ODES])


class OdeCase(NamedTuple):
    """A reduced equation h' = phi(h) with its one constant c.

    c is the paper's constant of the family the equation comes from: c3 for
    O2_21, c0_tilde for O2_33 and O3_23, c0_hat for O2_36 and O3_28, c (or
    c_hat) for O3_8, c0 for O3_37f and O3_37g, and c0_bar for O3_42f and O3_42g.
    """

    kind: OdeId
    c: float

    def rhs(self) -> Callable[[float], float]:
        factory = _row_of(_ODES, OdeId, self.kind)
        try:
            return factory(self.c)
        except OverflowError:  # c ** 2 of a denominator
            raise ParameterConstraintViolation(
                f"{self.kind.value} denominator overflows at c={self.c!r}") from None


class Trajectory(NamedTuple):
    nodes: tuple[tuple[float, float], ...]


def _check_span_step(t_span: tuple[float, float], step: float) -> tuple[int, float, int]:
    """The step plan (full steps, tail step, all steps) of the span; InvalidStep
    unless the run takes from 1 to MAX_RK4_STEPS steps."""
    t0, t1 = t_span
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidStep(f"step must be positive and finite, got {step!r}")
    if not t1 > t0:
        raise InvalidStep(f"t_span must be increasing, got {t_span!r}")
    if not math.isfinite((t1 - t0) / step):
        raise InvalidStep(f"t_span {t_span!r} is too wide to count in steps of {step!r}")
    n_full = int(math.floor((t1 - t0) / step + 1e-9))
    tail = t1 - (t0 + n_full * step)
    n_steps = n_full + (tail > 1e-12)  # and the tail step
    if n_steps > MAX_RK4_STEPS:
        raise InvalidStep(f"t_span {t_span!r} in steps of {step!r} takes more than "
                          f"{MAX_RK4_STEPS:,} RK4 steps")
    return n_full, tail, n_steps


def _rk4_step(phi: Callable[[float], float], y: float, h: float) -> float:
    k1 = phi(y)
    k2 = phi(y + 0.5 * h * k1)
    k3 = phi(y + 0.5 * h * k2)
    k4 = phi(y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_scalar(phi: Callable[[float], float], y0: float,
                     t_span: tuple[float, float], step: float,
                     label: str = "ode") -> Trajectory:
    """RK4 trajectory of y' = phi(y); aborts with BlowUp past 1e12, or where a
    power such as h ** 3 inside phi overflows first."""
    n_full, tail, n_steps = _check_span_step(t_span, step)
    t0, t1 = t_span
    nodes = [(t0, y0)]
    y = y0
    for i in range(1, n_steps + 1):
        # the last step ends at t1; t0 + n_full*step may round off it
        t = t1 if i == n_steps else t0 + i * step
        try:
            y = _rk4_step(phi, y, step if i <= n_full else tail)
        except OverflowError:
            y = math.inf
        if not math.isfinite(y) or abs(y) > BLOWUP_THRESHOLD:
            raise BlowUp(f"{label}: |y| exceeded {BLOWUP_THRESHOLD:g} at t={t!r}", t=t)
        nodes.append((t, y))
    return Trajectory(tuple(nodes))


def integrate(case: OdeCase, y0: float, t_span: tuple[float, float],
              step: float) -> Trajectory:
    """RK4 trajectory of h' = phi(h) for a named reduced equation."""
    return integrate_scalar(case.rhs(), y0, t_span, step, label=case.kind.value)


def compare_profile(numeric: Trajectory, analytic: Profile) -> float:
    """Sup-norm gap between trajectory h-values and the profile's first derivative.

    Each node is evaluated by inlining `analytic.at(t, value=False)`: it calls
    `fn(t, False)` and tests d1 and d2 only.  A node outside the domain is a
    DomainMismatch, and any other failed test raises the profile's `error_at`.
    """
    (lo, hi), evaluate = analytic.domain, analytic.fn
    isfinite = math.isfinite
    worst = 0.0
    for t, h in numeric.nodes:
        if not lo <= t <= hi:
            raise DomainMismatch(
                f"trajectory node t={t!r} outside profile domain [{lo!r}, {hi!r}]"
            )
        if not isfinite(t):
            raise analytic.error_at(t)
        _, d1, d2 = evaluate(t, False)
        if not (isfinite(d1) and isfinite(d2)):
            raise analytic.error_at(t)
        err = abs(h - d1)
        if err > worst or err != err:  # a running max in which a NaN sample sticks
            worst = err
    return worst
