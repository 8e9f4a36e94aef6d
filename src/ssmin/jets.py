"""Second-order jets and profile functions.

A Jet2 records (value, first derivative, second derivative) of a scalar
function of one variable at a point.  It is a named tuple, which is cheap to
build and immutable, and so compares equal to a plain tuple of its values, as
every record of the package does.  A Profile wraps one evaluator, fn(u, value),
that returns the jet as a plain (v, d1, d2) tuple, together with an explicit
domain.  With value false the evaluator skips the value and returns NaN in its
place; the minimality checks read only d1 and d2, so they never compute a
value.  `Profile.at` tests the domain and the jet's finiteness and is the one
place that builds a Jet2; outside the domain it raises.  Check loops call the
evaluator and unpack the tuple, so no Jet2 is built per sample.

Closed-form profiles are scalar kernels.  Each performs the floating-point
operations of its forward-mode jet composition (Leibniz and chain rules
through k * ln|.| + offset) in the same order, leaving out only terms that
add +-0, so its values equal the composition's up to the sign of a zero.  The
test suite keeps that jet arithmetic as the oracle and checks the equality
exactly.  The one departure is the log|exp| kernel's d2 where the
composition's r*r underflows: there it squares r*a1 instead.

Quadrature-backed profiles obtain their value from adaptive Simpson
integration while both derivatives stay in closed form, so an evaluation
without the value runs no quadrature, as it runs no closed form's logarithm.
Before its error estimate may accept, adaptive Simpson splits a panel until
each piece is at most one node width of the profiles' integral cache wide:
once at least, four times at most.  A five-point estimate can be fooled on a
wide panel, so panels wider than eight node widths keep all four splits; the
cache's node panels, and the pieces from a node to u, are split once.
"""

import math
import sys
from typing import Callable, NamedTuple

from .errors import DomainError, QuadratureFailure

# Half-width kept clear around singular endpoints of closed-form profiles.
SINGULARITY_GUARD = 1e-6

_MIN_NORMAL = sys.float_info.min


class Jet2(NamedTuple):
    v: float
    d1: float = 0.0
    d2: float = 0.0


class _IntervalFields(NamedTuple):
    lo: float
    hi: float


class Interval(_IntervalFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)

    def contains(self, u: float) -> bool:
        return self.lo <= u <= self.hi

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


REAL_LINE = Interval(-math.inf, math.inf)


def beside(pole: float, right: bool) -> Interval:
    """The half-line right of pole, or left where `right` is false, SINGULARITY_GUARD clear."""
    if right:
        return Interval(pole + SINGULARITY_GUARD, math.inf)
    return Interval(-math.inf, pole - SINGULARITY_GUARD)


class Profile(NamedTuple):
    """A scalar profile function with jet evaluation on an explicit domain.

    `fn(u, value=True)` returns the jet at u as a plain (v, d1, d2) tuple and
    tests nothing but what its own arithmetic needs; with value false it
    skips the value and returns NaN in its place, so no logarithm and no
    quadrature runs.  `at` adds the domain and finiteness tests and wraps the
    tuple in a Jet2.  `quadrature` says whether the value comes from adaptive
    Simpson.
    """

    fn: Callable[[float, bool], tuple[float, float, float]]
    domain: Interval = REAL_LINE
    label: str = "profile"
    quadrature: bool = False

    def at(self, u: float, value: bool = True) -> Jet2:
        """The jet at u; with value=False only d1 and d2 are promised and tested."""
        if not (self.domain.contains(u) and math.isfinite(u)):
            raise self.error_at(u)
        v, d1, d2 = self.fn(u, value)
        if not (math.isfinite(d1) and math.isfinite(d2) and (not value or math.isfinite(v))):
            raise self.error_at(u)
        return Jet2(v, d1, d2)

    def error_at(self, u: float) -> DomainError:
        """The error `at` raises at u: u outside the domain, else a non-finite jet.

        A loop that inlines `at(u, value=False)` reads `domain` and `fn`, tests
        `lo <= u <= hi` and `isfinite(u)` before it calls `fn(u, False)` and
        the finiteness of d1 and d2 after, and raises this where a test fails,
        so the message has one source and a failed evaluation is not repeated.
        """
        if not (self.domain.contains(u) and math.isfinite(u)):
            return DomainError(
                f"{self.label}: u={u!r} outside domain [{self.domain.lo!r}, {self.domain.hi!r}]"
            )
        return DomainError(f"{self.label}: non-finite jet at u={u!r}")


def affine_profile(slope: float, intercept: float) -> Profile:
    s, b = float(slope), float(intercept)
    return Profile(lambda u, value=True: (s * u + b if value else math.nan, s, 0.0),
                   REAL_LINE, "affine")


def log_abs_cos_profile(k: float, q: float, a: float, offset: float = 0.0) -> Profile:
    """k * ln|cos(q*u - a)| + offset on the branch of the cosine where |q*u - a| < pi/2,
    shrunk by the singularity guard."""
    if q == 0.0:
        raise ValueError("q must be nonzero")
    e1 = (a - math.pi / 2.0) / q
    e2 = (a + math.pi / 2.0) / q
    domain = Interval(min(e1, e2) + SINGULARITY_GUARD, max(e1, e2) - SINGULARITY_GUARD)

    k, q, a, offset = float(k), float(q), float(a), float(offset)

    def fn(u: float, value: bool = True) -> tuple[float, float, float]:
        # The jet of c = cos(x), x = q*u - a, is (c, c1, c2); that of ln|c|
        # is (ln|c|, r*c1, -r*r*c1*c1 + r*c2) with r = 1/c.
        x = u * q - a
        c = math.cos(x)
        if c == 0.0:
            raise DomainError("log|x| at zero")
        c1 = -math.sin(x) * q
        r = 1.0 / c
        return (math.log(abs(c)) * k + offset if value else math.nan, r * c1 * k,
                ((-r * r) * c1 * c1 + r * (-c * q * q)) * k)

    return Profile(fn, domain, "k*log|cos|")


def log_abs_exp_profile(k: float, q: float, coeff_pos: float, coeff_neg: float,
                        offset: float = 0.0, domain: Interval | None = None) -> Profile:
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
                domain = beside(u_star, u_star <= 0.0)

    k, q, cp, cn, offset = float(k), float(q), float(coeff_pos), float(coeff_neg), float(offset)
    nq = -q

    def fn(u: float, value: bool = True) -> tuple[float, float, float]:
        # The argument's jet is (av, a1, a2); that of ln|av| is
        # (ln|av|, r*a1, -r*r*a1*a1 + r*a2) with r = 1/av.
        try:
            ep, em = math.exp(u * q), math.exp(u * nq)
        except OverflowError:
            raise DomainError(f"e^(+-q*u) overflows at u={u!r}") from None
        ep1, em1 = ep * q, em * nq
        if max(abs(ep1), abs(em1)) >= 2.0 ** 1023:
            # jet arithmetic for c*e^(+-q*u) forms 2*d1*0, which is NaN once 2*d1 overflows
            raise DomainError(f"q*e^(+-q*u) overflows at u={u!r}")
        av = ep * cp + em * cn
        if av == 0.0:
            raise DomainError("log|x| at zero")
        a1 = ep1 * cp + em1 * cn
        a2 = ep1 * q * cp + em1 * nq * cn
        r = 1.0 / av
        rr = r * r
        if rr < _MIN_NORMAL:
            # -r*r underflows (|q*u| beyond about 355); r*a1 stays in range
            d2 = -((r * a1) * (r * a1)) + r * a2
        else:
            d2 = (-rr) * a1 * a1 + r * a2
        return (math.log(abs(av)) * k + offset if value else math.nan, r * a1 * k, d2 * k)

    return Profile(fn, domain, "k*log|exp|")


# Adaptive Simpson's absolute tolerance and recursion depth: tight enough that
# finite-difference oracles on profile values stay well below their tolerances.
QUAD_ABS_TOL = 1e-12
QUAD_MAX_DEPTH = 40

# Before the error estimate may accept, a panel is split until each piece is
# at most _NODE_WIDTH wide: once at least, and at most this many times.  A
# smooth integrand sampled at five points can fool the Richardson estimate on
# a wide panel, so panels wider than 8 node widths keep all four splits (65
# points); a node panel of the quadrature cache is split once (9 points).
_MIN_SPLITS = 4

# Quadrature profiles cache cumulative integrals at nodes this far apart,
# out to _MAX_NODES nodes on each side of the anchor; farther points integrate
# the rest from the last cached node.
_NODE_WIDTH = 1.0 / 32.0
_MAX_NODES = 4096


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float) -> float:
    """Integral of fn over [a, b] by adaptive Simpson with Richardson correction."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(fn, b, a)
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    force, width = 1, 0.5 * (b - a)
    while width > _NODE_WIDTH and force < _MIN_SPLITS:
        force += 1
        width *= 0.5
    return _simpson_split(fn, a, fa, b, fb, m, fm, whole, QUAD_ABS_TOL, QUAD_MAX_DEPTH, force)


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
                       domain: Interval = REAL_LINE,
                       base_point: float = 0.0) -> Profile:
    """Profile u -> base + integral of integrand from base_point to u.

    Only the value needs quadrature; d1 is the integrand itself and d2 its
    supplied closed-form derivative, and `fn(u, False)` evaluates just those
    two.  Integrals from base_point to the nodes
    base_point + k*_NODE_WIDTH are cached as they are first needed, one
    panel at a time, so an evaluation integrates only from the last node
    between base_point and u.  The node is never past u, so the integrand is
    only ever evaluated on [base_point, u], and each panel is integrated on
    its own, so a value does not depend on the order of evaluations.
    """
    if not domain.contains(base_point):
        raise DomainError(f"quadrature: base point {base_point!r} outside domain")
    # cumulative[side][k]: integral from base_point to base_point + side*k*_NODE_WIDTH
    cumulative = {1.0: [0.0], -1.0: [0.0]}

    def fn(u: float, value: bool = True) -> tuple[float, float, float]:
        d1 = integrand(u)
        d2 = integrand_d1(u)
        if not value:
            return (math.nan, d1, d2)
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
            sums.append(sums[-1] + adaptive_simpson(integrand, lo, hi))
        return (base + sums[k] + adaptive_simpson(integrand, node, u), d1, d2)

    return Profile(fn, domain, "quadrature", quadrature=True)
