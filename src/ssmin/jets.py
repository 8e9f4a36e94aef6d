"""Second-order jets and profile functions.

A Jet2 carries (value, first derivative, second derivative) of a scalar
function of one variable and propagates all three through arithmetic and
elementary functions via the Leibniz and chain rules.  A Profile wraps a
jet-valued evaluator together with an explicit domain; evaluation outside the
domain raises, it never returns NaN.  Quadrature-backed profiles obtain their
value from adaptive Simpson integration while both derivatives stay in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureFailure

# Half-width kept clear around singular endpoints of closed-form profiles.
SINGULARITY_GUARD = 1e-6


@dataclass(frozen=True)
class Jet2:
    v: float
    d1: float = 0.0
    d2: float = 0.0

    @staticmethod
    def constant(c: float) -> "Jet2":
        return Jet2(float(c), 0.0, 0.0)

    @staticmethod
    def variable(u: float) -> "Jet2":
        """Seed jet of the independent variable at u."""
        return Jet2(float(u), 1.0, 0.0)

    def __add__(self, other) -> "Jet2":
        o = _lift(other)
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other) -> "Jet2":
        o = _lift(other)
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other) -> "Jet2":
        return _lift(other) - self

    def __mul__(self, other) -> "Jet2":
        o = _lift(other)
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        return self * _reciprocal(_lift(other))

    def __rtruediv__(self, other) -> "Jet2":
        return _lift(other) * _reciprocal(self)

    def is_finite(self) -> bool:
        return math.isfinite(self.v) and math.isfinite(self.d1) and math.isfinite(self.d2)


def _lift(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return Jet2.constant(x)
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def _reciprocal(x: Jet2) -> Jet2:
    if x.v == 0.0:
        raise DomainError("jet division by zero")
    r = 1.0 / x.v
    return Jet2(r, -x.d1 * r * r, (2.0 * x.d1 * x.d1 - x.v * x.d2) * r * r * r)


def _chain(fv: float, f1: float, f2: float, x: Jet2) -> Jet2:
    """Compose the outer derivatives (fv, f1, f2) at x.v with the inner jet."""
    return Jet2(fv, f1 * x.d1, f2 * x.d1 * x.d1 + f1 * x.d2)


def jet_cos(x: Jet2) -> Jet2:
    c = math.cos(x.v)
    return _chain(c, -math.sin(x.v), -c, x)


def jet_tan(x: Jet2) -> Jet2:
    if math.cos(x.v) == 0.0:
        raise DomainError("tan at an odd multiple of pi/2")
    t = math.tan(x.v)
    sec2 = 1.0 + t * t
    return _chain(t, sec2, 2.0 * t * sec2, x)


def jet_exp(x: Jet2) -> Jet2:
    e = math.exp(x.v)
    return _chain(e, e, e, x)


def jet_log(x: Jet2) -> Jet2:
    if x.v <= 0.0:
        raise DomainError(f"log of nonpositive value {x.v!r}")
    r = 1.0 / x.v
    return _chain(math.log(x.v), r, -r * r, x)


def jet_log_abs(x: Jet2) -> Jet2:
    """ln|x| with derivative 1/x; valid on each side of zero separately."""
    if x.v == 0.0:
        raise DomainError("log|x| at zero")
    r = 1.0 / x.v
    return _chain(math.log(abs(x.v)), r, -r * r, x)


def jet_sqrt(x: Jet2) -> Jet2:
    if x.v <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {x.v!r}")
    r = math.sqrt(x.v)
    return _chain(r, 0.5 / r, -0.25 / (r * x.v), x)


def jet_log_abs_cos(x: Jet2) -> Jet2:
    return jet_log_abs(jet_cos(x))


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, u: float, margin: float = 0.0) -> bool:
        return self.lo + margin <= u <= self.hi - margin

    def clipped(self, cap: float) -> "Interval":
        """Finite interval for sampling: infinite ends are cut at +-cap."""
        lo, hi = self.lo, self.hi
        if math.isinf(lo) and math.isinf(hi):
            return Interval(-cap, cap)
        if math.isinf(hi):
            return Interval(lo, max(cap, lo + 2.0 * cap))
        if math.isinf(lo):
            return Interval(min(-cap, hi - 2.0 * cap), hi)
        return self

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


REAL_LINE = Interval(-math.inf, math.inf)


@dataclass(frozen=True)
class Profile:
    """A scalar profile function with jet evaluation on an explicit domain."""

    fn: Callable[[float], Jet2]
    domain: Interval = REAL_LINE
    label: str = "profile"
    quadrature: bool = False  # value comes from adaptive Simpson

    def at(self, u: float) -> Jet2:
        if not (self.domain.contains(u) and math.isfinite(u)):
            raise DomainError(
                f"{self.label}: u={u!r} outside domain [{self.domain.lo!r}, {self.domain.hi!r}]"
            )
        jet = self.fn(u)
        if not jet.is_finite():
            raise DomainError(f"{self.label}: non-finite jet at u={u!r}")
        return jet


def affine_profile(slope: float, intercept: float, domain: Interval = REAL_LINE,
                   label: str = "affine") -> Profile:
    s, b = float(slope), float(intercept)
    return Profile(lambda u: Jet2(s * u + b, s, 0.0), domain, label)


def log_abs_cos_profile(k: float, q: float, a: float, offset: float = 0.0,
                        domain: Interval | None = None,
                        label: str = "k*log|cos|") -> Profile:
    """k * ln|cos(q*u - a)| + offset on one branch of the cosine.

    Without an explicit domain the branch is the component where |q*u - a| < pi/2,
    shrunk by the singularity guard.
    """
    if q == 0.0:
        raise ValueError("q must be nonzero")
    if domain is None:
        e1 = (a - math.pi / 2.0) / q
        e2 = (a + math.pi / 2.0) / q
        domain = Interval(min(e1, e2) + SINGULARITY_GUARD, max(e1, e2) - SINGULARITY_GUARD)

    def fn(u: float) -> Jet2:
        return k * jet_log_abs_cos(q * Jet2.variable(u) - a) + offset

    return Profile(fn, domain, label)


def log_abs_exp_profile(k: float, q: float, coeff_pos: float, coeff_neg: float,
                        offset: float = 0.0, domain: Interval | None = None,
                        label: str = "k*log|exp|") -> Profile:
    """k * ln|coeff_pos*e^(q*u) + coeff_neg*e^(-q*u)| + offset.

    The argument vanishes at most once; without an explicit domain the
    component containing 0 is used (the right component when the zero is at 0).
    """
    if q == 0.0:
        raise ValueError("q must be nonzero")
    if coeff_pos == 0.0 and coeff_neg == 0.0:
        raise ValueError("both coefficients are zero")
    if domain is None:
        domain = REAL_LINE
        if coeff_pos != 0.0 and coeff_neg != 0.0:
            ratio = -coeff_neg / coeff_pos
            if ratio > 0.0:
                u_star = math.log(ratio) / (2.0 * q)
                if u_star < 0.0:
                    domain = Interval(u_star + SINGULARITY_GUARD, math.inf)
                elif u_star > 0.0:
                    domain = Interval(-math.inf, u_star - SINGULARITY_GUARD)
                else:
                    domain = Interval(SINGULARITY_GUARD, math.inf)

    def fn(u: float) -> Jet2:
        x = Jet2.variable(u)
        arg = coeff_pos * jet_exp(q * x) + coeff_neg * jet_exp(-q * x)
        return k * jet_log_abs(arg) + offset

    return Profile(fn, domain, label)


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    max_depth: int = 40


# Panels are always split this many times before the error estimate may
# accept: a smooth integrand sampled at five points can fool the Richardson
# estimate on a wide panel.
_MIN_SPLITS = 4

# Quadrature profiles cache cumulative integrals at nodes this far apart,
# out to _MAX_NODES nodes on each side of the anchor; farther points integrate
# the rest from the last cached node.
_NODE_WIDTH = 1.0 / 32.0
_MAX_NODES = 4096


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of fn over [a, b] by adaptive Simpson with Richardson correction."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(fn, b, a, spec)
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_split(fn, a, fa, b, fb, m, fm, whole, spec.abs_tol,
                          spec.max_depth, _MIN_SPLITS)


def _simpson_split(fn, a, fa, b, fb, m, fm, whole, eps, depth, force):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if force <= 0 and abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"tolerance {eps:g} not reached on [{a!r}, {b!r}] (|delta|={abs(delta):g})"
        )
    return (
        _simpson_split(fn, a, fa, m, fm, lm, flm, left, 0.5 * eps, depth - 1, force - 1)
        + _simpson_split(fn, m, fm, b, fb, rm, frm, right, 0.5 * eps, depth - 1, force - 1)
    )


def profile_quadrature(integrand: Callable[[float], float],
                       integrand_d1: Callable[[float], float],
                       base: float = 0.0,
                       spec: QuadratureSpec = QuadratureSpec(),
                       domain: Interval = REAL_LINE,
                       base_point: float = 0.0,
                       label: str = "quadrature") -> Profile:
    """Profile u -> base + integral of integrand from base_point to u.

    Only the value needs quadrature; d1 is the integrand itself and d2 its
    supplied closed-form derivative.  Integrals from base_point to the nodes
    base_point + k*_NODE_WIDTH are cached as they are first needed, one
    panel at a time, so an evaluation integrates only from the last node
    between base_point and u.  The node is never past u, so the integrand is
    only ever evaluated on [base_point, u], and each panel is integrated on
    its own, so a value does not depend on the order of evaluations.
    """
    if not domain.contains(base_point):
        raise DomainError(f"{label}: base point {base_point!r} outside domain")
    # cumulative[side][k]: integral from base_point to base_point + side*k*_NODE_WIDTH
    cumulative = {1.0: [0.0], -1.0: [0.0]}

    def fn(u: float) -> Jet2:
        d1 = integrand(u)
        d2 = integrand_d1(u)
        k = int((u - base_point) / _NODE_WIDTH)
        side = -1.0 if k < 0 else 1.0
        k = min(abs(k), _MAX_NODES)
        node = base_point + side * k * _NODE_WIDTH
        if k and side * (node - u) > 0.0:  # rounding put the node past u
            k -= 1
            node = base_point + side * k * _NODE_WIDTH
        sums = cumulative[side]
        while len(sums) <= k:
            n = len(sums)
            lo = base_point + side * (n - 1) * _NODE_WIDTH
            hi = base_point + side * n * _NODE_WIDTH
            sums.append(sums[-1] + adaptive_simpson(integrand, lo, hi, spec))
        value = base + sums[k] + adaptive_simpson(integrand, node, u, spec)
        return Jet2(value, d1, d2)

    return Profile(fn, domain, label, quadrature=True)
