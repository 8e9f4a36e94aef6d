"""Jet arithmetic (the test oracle), elementary functions, profiles, and quadrature."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ssmin import catalog
from ssmin.cli import _grid, main
from ssmin.errors import DomainError, QuadratureFailure
from ssmin.jets import (
    _MAX_NODES,
    _MIN_SPLITS,
    _NODE_WIDTH,
    QUAD_ABS_TOL,
    QUAD_MAX_DEPTH,
    Interval,
    Jet2,
    REAL_LINE,
    SINGULARITY_GUARD,
    _simpson_split,
    adaptive_simpson,
    affine_profile,
    log_abs_cos_profile,
    log_abs_exp_profile,
    profile_quadrature,
)
from oracles import Jet, jet_exp, jet_log_abs

finite = st.floats(-5.0, 5.0, allow_nan=False)
jets = st.builds(Jet, finite, finite, finite)


def central_d1(fn, u, h=1e-5):
    return (fn(u + h) - fn(u - h)) / (2.0 * h)


def central_d2(fn, u, h=1e-5):
    return (fn(u + h) - 2.0 * fn(u) + fn(u - h)) / (h * h)


def test_jet2_record_contract():
    jet = Jet2(1.5, -2.0, 0.25)
    for name in ("v", "d1", "d2"):
        with pytest.raises(AttributeError):
            setattr(jet, name, 0.0)
    assert repr(jet) == "Jet2(v=1.5, d1=-2.0, d2=0.25)"
    assert (jet.v, jet.d1, jet.d2) == (1.5, -2.0, 0.25)
    assert Jet2(3.0) == Jet2(3.0, 0.0, 0.0) and Jet2(3.0).d1 == Jet2(3.0).d2 == 0.0
    # a named tuple: equal to the plain tuple of its values, and so hashable alike
    assert jet == (1.5, -2.0, 0.25) and hash(jet) == hash((1.5, -2.0, 0.25))
    assert Jet(*jet).is_finite()
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(3):
            values = [1.0, 2.0, 3.0]
            values[slot] = bad
            assert not Jet(*values).is_finite()


def test_elementary_examples():
    assert jet_exp(Jet(0, 1, 0)) == Jet(1, 1, 1)


def test_elementary_domain_errors():
    with pytest.raises(DomainError):
        jet_log_abs(Jet(0.0, 1, 0))


@given(jets, jets)
def test_addition_and_product_commute(a, b):
    assert a + b == b + a
    p, q = a * b, b * a
    assert (p.v, p.d1) == (q.v, q.d1)
    # the second derivative sums three products; order differs by an ulp
    assert abs(p.d2 - q.d2) <= 1e-12 * (1.0 + abs(p.d2))


@given(jets, jets, jets)
def test_associativity_to_rounding(a, b, c):
    s1, s2 = (a + b) + c, a + (b + c)
    for x, y in ((s1.v, s2.v), (s1.d1, s2.d1), (s1.d2, s2.d2)):
        assert abs(x - y) <= 1e-12 * (1.0 + abs(x))
    p1, p2 = (a * b) * c, a * (b * c)
    for x, y in ((p1.v, p2.v), (p1.d1, p2.d1), (p1.d2, p2.d2)):
        assert abs(x - y) <= 1e-10 * (1.0 + abs(x))


@given(jets, jets)
def test_product_second_derivative_leibniz(a, b):
    prod = a * b
    assert prod.d2 == a.d2 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d2


def test_closed_profile_examples():
    # -(k/2) ln|cos(q u - a)| with k=1, q=2, a=0: jet (0, 0, 2) at u = 0
    p = log_abs_cos_profile(-0.5, 2.0, 0.0)
    jet = p.at(0.0)
    assert abs(jet.v) <= 1e-15 and abs(jet.d1) <= 1e-15
    assert abs(jet.d2 - 2.0) <= 1e-12
    fd1 = central_d1(lambda u: p.at(u).v, 0.0)
    fd2 = central_d2(lambda u: p.at(u).v, 0.0)
    assert abs(jet.d1 - fd1) <= 1e-8 and abs(jet.d2 - fd2) <= 1e-5

    p = affine_profile(3.0, 1.0)
    assert p.at(2.0) == Jet2(7.0, 3.0, 0.0)

    # (1/c) ln|e^(cu) - chat e^(-cu)| with c=1, chat=-1: (ln 2, 0, 1) at u = 0
    p = log_abs_exp_profile(1.0, 1.0, 1.0, 1.0)
    jet = p.at(0.0)
    assert abs(jet.v - math.log(2.0)) <= 1e-15
    assert abs(jet.d1) <= 1e-15 and abs(jet.d2 - 1.0) <= 1e-12
    assert abs(jet.d1 - central_d1(lambda u: p.at(u).v, 0.0)) <= 1e-8
    assert abs(jet.d2 - central_d2(lambda u: p.at(u).v, 0.0)) <= 1e-5


def test_profile_domain_is_enforced():
    p = log_abs_cos_profile(-0.5, 2.0, 0.0)
    # branch is |2u| < pi/2 shrunk by the guard
    assert p.domain.lo == pytest.approx(-math.pi / 4, abs=1e-5)
    with pytest.raises(DomainError):
        p.at(math.pi / 4)
    with pytest.raises(DomainError):
        p.at(100.0)


def test_log_abs_exp_domain_components():
    # coefficients of one sign: no singularity
    assert log_abs_exp_profile(1.0, 1.0, 1.0, 1.0).domain == REAL_LINE
    # zero of the argument at u* = ln(2)/2 > 0: left component keeps 0
    p = log_abs_exp_profile(1.0, 1.0, 1.0, -2.0)
    assert p.domain.hi == pytest.approx(math.log(2.0) / 2.0, abs=1e-5)
    assert p.domain.contains(0.0)
    # zero at u* = -ln(2)/2 < 0: right component keeps 0
    p = log_abs_exp_profile(1.0, 1.0, 2.0, -1.0)
    assert p.domain.lo == pytest.approx(-math.log(2.0) / 2.0, abs=1e-5)
    assert p.domain.contains(0.0)
    # zero at u* = 0: the right component, kept the guard clear of it
    assert log_abs_exp_profile(1.0, 1.0, 1.0, -1.0).domain == Interval(SINGULARITY_GUARD, math.inf)


def test_quadrature_on_polynomials():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(20):
        coeffs = rng.uniform(-3, 3, 6)

        def poly(x):
            return sum(c * x ** k for k, c in enumerate(coeffs))

        def antiderivative(x):
            return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

        a, b = sorted(rng.uniform(-1.3, 2.1, 2))
        got = adaptive_simpson(poly, a, b)
        assert abs(got - (antiderivative(b) - antiderivative(a))) <= 1e-10


def _counted(fn):
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    return counted, calls


def test_quadrature_cos_example():
    cos, calls = _counted(math.cos)
    assert adaptive_simpson(cos, 0.0, math.pi / 2.0) == 1.0 and len(calls) == 501


def test_forced_splits_follow_the_panel_width():
    # a constant is accepted as soon as the forced splits allow: after one, or
    # after as many as leave each piece a node width wide, at most _MIN_SPLITS
    for width, points in ((_NODE_WIDTH, 9), (2 * _NODE_WIDTH, 9), (4 * _NODE_WIDTH, 17),
                          (8 * _NODE_WIDTH, 33), (8.5 * _NODE_WIDTH, 65), (100.0, 65)):
        const, calls = _counted(lambda x: 2.0)
        assert abs(adaptive_simpson(const, 0.0, width) - 2.0 * width) <= 1e-12
        assert len(calls) == points, width


def _four_split_simpson(fn, a, b):
    """adaptive_simpson with _MIN_SPLITS forced splits whatever the panel's width."""
    if b < a:
        return -_four_split_simpson(fn, b, a)
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_split(fn, a, fa, b, fb, m, fm, whole, QUAD_ABS_TOL, QUAD_MAX_DEPTH,
                          _MIN_SPLITS)


def test_panels_wider_than_eight_node_widths_keep_four_forced_splits():
    rng = random.Random(19)
    for _ in range(40):
        a = rng.uniform(-3.0, 3.0)
        b = a + rng.choice((-1.0, 1.0)) * rng.uniform(8.001 * _NODE_WIDTH, 6.0)
        for integrand in (math.cos, lambda x: math.exp(-x * x) * math.sin(4.0 * x)):
            fn, calls = _counted(integrand)
            ref_fn, ref_calls = _counted(integrand)
            assert adaptive_simpson(fn, a, b) == _four_split_simpson(ref_fn, a, b)
            assert calls == ref_calls


def test_quadrature_depth_exhaustion():
    step_fn = lambda x: 1.0 if x < 0.3 else 0.0
    with pytest.raises(QuadratureFailure):
        adaptive_simpson(step_fn, 0.0, 1.0)


def test_profile_quadrature_examples():
    p = profile_quadrature(lambda x: 3.0, lambda x: 0.0)
    jet = p.at(2.0)
    assert abs(jet.v - 6.0) <= 1e-10
    assert jet.d1 == 3.0 and jet.d2 == 0.0

    # radicand hits zero at the base point: evaluation errors, never NaN
    def integrand(x):
        r = math.exp(4.0 * x) - 1.0
        if r <= 0.0:
            raise DomainError("radicand nonpositive")
        return 1.0 / math.sqrt(r)

    p = profile_quadrature(integrand, lambda x: 0.0, base_point=0.5,
                           domain=Interval(1e-9, math.inf))
    with pytest.raises(DomainError):
        p.at(0.0)

    p = profile_quadrature(math.cos, lambda x: -math.sin(x))
    assert abs(p.at(math.pi / 2.0).v - 1.0) <= 1e-10
    # an infinite end of the domain is not a point of it
    with pytest.raises(DomainError):
        p.at(math.inf)


def test_quadrature_against_scipy_oracle():
    from scipy.integrate import quad

    integrands = [
        (lambda x: 1.0 / math.sqrt(2.0 * math.exp(4.0 * x) - 0.5), (-0.1, 1.4)),
        (lambda x: math.sqrt(0.75) * (1.0 - math.exp(-4.0 * x / math.sqrt(0.75)))
         / (1.0 + math.exp(-4.0 * x / math.sqrt(0.75))), (-1.5, 1.5)),
        (lambda x: math.exp(-x * x) * math.cos(3.0 * x), (0.0, 2.5)),
    ]
    for fn, (a, b) in integrands:
        reference, ref_err = quad(fn, a, b, epsabs=1e-13, epsrel=1e-13)
        got = adaptive_simpson(fn, a, b)
        assert abs(got - reference) <= 1e-10 + 10.0 * ref_err


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(-1.0, 1.0))
def test_quadrature_profile_derivatives_are_closed_form(scale, shift):
    p = profile_quadrature(lambda x: math.sin(scale * x + shift),
                           lambda x: scale * math.cos(scale * x + shift))
    u = 0.7
    jet = p.at(u)
    assert jet.d1 == math.sin(scale * u + shift)
    assert jet.d2 == scale * math.cos(scale * u + shift)
    exact = (math.cos(shift) - math.cos(scale * u + shift)) / scale
    assert abs(jet.v - exact) <= 1e-9


def test_quadrature_slopes_skip_the_value():
    calls = []

    def integrand(x):
        calls.append(x)
        return math.cos(x)

    p = profile_quadrature(integrand, lambda x: -math.sin(x))
    jet = p.at(1.3, value=False)
    assert math.isnan(jet.v) and (jet.d1, jet.d2) == (math.cos(1.3), -math.sin(1.3))
    assert calls == [1.3]  # the integrand at u itself; no quadrature ran
    full = p.at(1.3)
    assert (full.d1, full.d2) == (jet.d1, jet.d2) and abs(full.v - math.sin(1.3)) <= 1e-10
    # the negative control adds eps*u^2 on both paths
    perturbed = catalog.perturb_profile(p, 0.5)
    slopes, full = perturbed.at(1.3, value=False), perturbed.at(1.3)
    assert math.isnan(slopes.v) and (slopes.d1, slopes.d2) == (full.d1, full.d2)
    assert (full.d1, full.d2) == (math.cos(1.3) + 1.3, -math.sin(1.3) + 1.0)
    # the domain check and the finiteness of d1 and d2 still hold
    p = profile_quadrature(lambda x: math.inf if x > 1.0 else 1.0, lambda x: 0.0,
                           domain=Interval(-5.0, 5.0))
    with pytest.raises(DomainError):
        p.at(2.0, value=False)
    with pytest.raises(DomainError):
        p.at(6.0, value=False)
    assert p.at(0.5, value=False).d1 == 1.0


def _catalog_quadratures():
    """(profile, integrand, anchor, box) of every quadrature profile of the
    catalog's default settings; the profiles are fresh, never evaluated."""
    made = {}

    def recording(integrand, integrand_d1, **kwargs):
        profile = profile_quadrature(integrand, integrand_d1, **kwargs)
        made[profile.fn] = (integrand, kwargs["base_point"])
        return profile

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "profile_quadrature", recording)
        for fam in catalog.all_default_settings():
            built = catalog._assemble(fam)
            box_u, box_v = built.domain.sampling_box()
            surface = built.surface
            for profile, box in ((surface.f, box_u), (surface.g, box_v)):
                if profile.quadrature:
                    out.append((profile, *made[profile.fn], box))
    return out


def _cache_points(anchor, box):
    """Box points on both sides of the anchor, the anchor and nodes, in the box."""
    nodes = [anchor + k * _NODE_WIDTH for k in range(-200, 201)]
    spread = [box.lo + (box.hi - box.lo) * i / 16.0 for i in range(17)]
    on_nodes = [x for x in nodes if box.lo <= x <= box.hi][::7]
    return sorted({x for x in spread + on_nodes + [anchor] if box.lo <= x <= box.hi})


def test_catalog_quadrature_profiles_match_one_shot_simpson():
    profiles = _catalog_quadratures()
    assert {p.label.split(".")[0] for p, *_ in profiles} == {
        "F2_39", "F3_12", "F3_14", "F3_27", "F3_30"}
    sides = set()
    for profile, integrand, anchor, box in profiles:
        base = profile.at(anchor).v
        for u in _cache_points(anchor, box):
            one_shot = base + adaptive_simpson(integrand, anchor, u)
            assert abs(profile.at(u).v - one_shot) <= 1e-12, (profile.label, u)
            sides.add((u > anchor) - (u < anchor))
    assert sides == {-1, 0, 1}


def test_quadrature_cache_is_order_independent():
    rng = random.Random(11)
    orders = [lambda xs: xs, lambda xs: xs[::-1], lambda xs: rng.sample(xs, len(xs))]
    results = []
    for order in orders:
        jets = {}
        for index, (profile, _, anchor, box) in enumerate(_catalog_quadratures()):
            for u in order(_cache_points(anchor, box)):
                jets[index, u] = profile.at(u)
        results.append(jets)
    assert results[0] == results[1] == results[2]


def test_quadrature_cache_stops_at_max_nodes():
    # past the last cached node the rest is one adaptive Simpson call, so a far
    # point costs about _MAX_NODES panels, not one panel per node width
    calls = []

    def integrand(x):
        calls.append(x)
        return 1.0

    far = 10.0 * _MAX_NODES * _NODE_WIDTH
    p = profile_quadrature(integrand, lambda x: 0.0)
    assert abs(p.at(far).v - far) <= 1e-9
    assert abs(p.at(-far).v + far) <= 1e-9
    assert len(calls) < 2 * 20 * _MAX_NODES  # two sides, < 20 evaluations a panel
    assert min(calls) == -far and max(calls) == far


def test_catalog_quadratures_match_quadpack_on_the_mesh_grid():
    # an oracle independent of adaptive Simpson: QUADPACK over each interval of
    # the 64-line grid that mesh evaluates, summed exactly.  The worst error
    # reads about 4e-15; with no forced split on node panels it reads 4e-14
    from scipy.integrate import IntegrationWarning, quad

    profiles = _catalog_quadratures()
    assert len(profiles) == 10
    for profile, _, _, box in profiles:
        grid = _grid("u", box, 64)
        pieces = [0.0]
        with warnings.catch_warnings():
            # QUADPACK reports roundoff at a 1e-15 tolerance; the bound below decides
            warnings.simplefilter("ignore", IntegrationWarning)
            for lo, hi in zip(grid, grid[1:]):
                pieces.append(quad(lambda x: profile.at(x, value=False).d1, lo, hi,
                                   epsabs=1e-15, epsrel=1e-15)[0])
        base = profile.at(grid[0]).v
        for i, u in enumerate(grid):
            reference = math.fsum(pieces[:i + 1])
            assert abs(profile.at(u).v - base - reference) <= 1e-14, (profile.label, u)


def test_mesh_of_a_quadrature_family_stays_within_its_integrand_budget(capsys, monkeypatch):
    # how often adaptive_simpson runs does not depend on its forced splits, so
    # count the integrand: 4,527 calls with node panels split once, 18,123 with
    # them split four times
    calls = []

    def counting(integrand, integrand_d1, **kwargs):
        counted, made = _counted(integrand)
        calls.append(made)
        return profile_quadrature(counted, integrand_d1, **kwargs)

    monkeypatch.setattr(catalog, "profile_quadrature", counting)
    assert main(["mesh", "--family", "F2_39", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 64 * 64
    total = sum(map(len, calls))
    assert 0 < total <= 5000, total
