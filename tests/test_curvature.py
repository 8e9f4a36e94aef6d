"""Second fundamental form and mean curvature, checked against the printed
per-case covariant-derivative tables; the scalar kernels, checked against the
frame chain and the jet arithmetic they replace."""

import functools
import inspect
import math
import sys

import mpmath
import pytest

from ssmin.ambient import (
    AmbientSpace,
    ConnectionKind,
    Signature,
    Vec3,
    metric_inner,
)
from ssmin import catalog, jets
from ssmin.catalog import FamilyId, build, make_family
from ssmin.curvature import _curvature_kernel
from ssmin.errors import DomainError
from ssmin.jets import Jet2, affine_profile
from ssmin.sampling import SplitMix64
from ssmin.surface import TranslationSurface, TranslationType, frame_from_jets

from oracles import (Jet, covariant_derivative, first_fundamental_from_jets, log_abs_cos_jet,
                     log_abs_exp_jet, mean_curvature_from_jets)

E = Signature.EUCLIDEAN
L = Signature.LORENTZIAN
LC = ConnectionKind.LEVI_CIVITA
SSM = ConnectionKind.SEMI_SYMMETRIC_METRIC
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
TYPES = (TranslationType.I, TranslationType.II, TranslationType.III)

ZERO_JET = Jet2(0.0, 0.0, 0.0)


def _plane(sig=E):
    return TranslationSurface(TranslationType.I, affine_profile(0, 0),
                              affine_profile(0, 0), AmbientSpace(sig, SSM))


def _at(surface, kind, u, v):
    return mean_curvature_from_jets(surface.ttype, surface.space, kind,
                                    surface.f.at(u), surface.g.at(v))


def test_plane_sigma_metric_connection():
    sm = _at(_plane(), SSM, 0.1, 0.2).sigma
    assert (sm.s11, sm.s12, sm.s21, sm.s22) == (-1.0, 0.0, 0.0, -1.0)


def test_plane_mean_curvatures():
    rep = _at(_plane(), SSM, 0.0, 0.0)
    assert rep.numerator == -2.0
    assert rep.H == -1.0
    rep = _at(_plane(), SSNM, 0.0, 0.0)
    assert rep.H == 0.0


def test_scherk_profile_pair_is_minimal_for_non_metric():
    surface = build(make_family(FamilyId.F2_51, c=1.0)).surface
    rep = _at(surface, SSNM, 0.2, 0.3)
    assert abs(rep.numerator) <= 1e-10


def test_non_metric_type_i_mixed_sigma_vanishes():
    rng = SplitMix64(5)
    for _ in range(100):
        fj = Jet2(0.0, rng.uniform(-2, 2), rng.uniform(-3, 3))
        gj = Jet2(0.0, rng.uniform(-2, 2), rng.uniform(-3, 3))
        sm = mean_curvature_from_jets(TranslationType.I, AmbientSpace(E, SSNM), SSNM,
                                      fj, gj).sigma
        assert abs(sm.s12) <= 1e-15 and abs(sm.s21) <= 1e-15


# Printed covariant-derivative tables for the surface frames, as functions of
# the profile jets.  Rows: nabla_Fu Fu, nabla_Fu Fv, nabla_Fv Fu, nabla_Fv Fv.
def _t_e_m_i(f1, f2, g1, g2):
    return (Vec3(f1, 0, f2 - 1), Vec3(g1, 0, 0), Vec3(0, f1, 0), Vec3(0, g1, g2 - 1))


def _t_e_m_ii(f1, f2, g1, g2):
    return (Vec3(0, f2, -(f1 * f1 + 1)), Vec3(1, f1, -f1 * g1),
            Vec3(0, 0, -f1 * g1), Vec3(0, g1 + g2, -g1 * g1))


def _t_e_m_iii(f1, f2, g1, g2):
    return (Vec3(f2, 0, -(f1 * f1 + 1)), Vec3(f1, 1, -f1 * g1),
            Vec3(0, 0, -f1 * g1), Vec3(g1 + g2, 0, -g1 * g1))


def _t_e_nm_i(f1, f2, g1, g2):
    return (Vec3(f1, 0, f2 + f1 * f1), Vec3(g1, 0, f1 * g1),
            Vec3(0, f1, f1 * g1), Vec3(0, g1, g1 * g1 + g2))


def _t_l_m_i(f1, f2, g1, g2):
    return (Vec3(-f1, 0, f2 - 1), Vec3(-g1, 0, 0), Vec3(0, -f1, 0),
            Vec3(0, -g1, g2 - 1))


def _t_l_m_ii(f1, f2, g1, g2):
    return (Vec3(0, f2, -(f1 * f1 + 1)), Vec3(-1, -f1, -f1 * g1),
            Vec3(0, 0, -f1 * g1), Vec3(0, -g1 + g2, -g1 * g1))


def _t_l_nm_i(f1, f2, g1, g2):
    return (Vec3(-f1, 0, f2 - f1 * f1), Vec3(-g1, 0, -f1 * g1),
            Vec3(0, -f1, -f1 * g1), Vec3(0, -g1, -g1 * g1 + g2))


def _t_l_nm_ii(f1, f2, g1, g2):
    return (Vec3(0, f2, 0), Vec3(-1, -f1, 0), Vec3(0, 0, 0),
            Vec3(0, -g1 + g2, -1))


SURFACE_TABLES = [
    (TranslationType.I, E, SSM, _t_e_m_i),
    (TranslationType.II, E, SSM, _t_e_m_ii),
    (TranslationType.III, E, SSM, _t_e_m_iii),
    (TranslationType.I, E, SSNM, _t_e_nm_i),
    (TranslationType.I, L, SSM, _t_l_m_i),
    (TranslationType.II, L, SSM, _t_l_m_ii),
    (TranslationType.I, L, SSNM, _t_l_nm_i),
    (TranslationType.II, L, SSNM, _t_l_nm_ii),
]


@pytest.mark.parametrize("ttype,sig,kind,table", SURFACE_TABLES,
                         ids=lambda x: getattr(x, "value", getattr(x, "__name__", str(x))))
def test_printed_surface_connection_tables(ttype, sig, kind, table):
    rng = SplitMix64(31)
    space = AmbientSpace(sig, kind)
    for _ in range(100):
        if sig is E:
            f1, g1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        elif ttype is TranslationType.I:
            f1, g1 = rng.uniform(-0.7, 0.7), rng.uniform(-0.55, 0.55)
        else:
            f1 = rng.uniform(-1, 1)
            g1 = math.copysign(math.sqrt(1.0 + f1 * f1) + rng.uniform(0.05, 1.5),
                               rng.uniform(-1, 1))
        f2, g2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        fr = frame_from_jets(ttype, space, Jet2(0, f1, f2), Jet2(0, g1, g2))
        got = (
            covariant_derivative(space, fr.Fu, fr.Fu, fr.dFu_du),
            covariant_derivative(space, fr.Fu, fr.Fv, fr.dFv_du),
            covariant_derivative(space, fr.Fv, fr.Fu, fr.dFu_dv),
            covariant_derivative(space, fr.Fv, fr.Fv, fr.dFv_dv),
        )
        for got_vec, want_vec in zip(got, table(f1, f2, g1, g2)):
            diff = got_vec - want_vec
            assert max(abs(diff.c1), abs(diff.c2), abs(diff.c3)) <= 1e-12


def _admissible_sample(rng, sig, ttype):
    while True:
        if sig is E:
            f1, g1 = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
            return f1, g1
        if ttype is TranslationType.I:
            f1, g1 = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
            if 1.0 - f1 * f1 - g1 * g1 >= 1e-3:
                return f1, g1
        else:
            f1, g1 = rng.uniform(-1.5, 1.5), rng.uniform(-2.6, 2.6)
            if g1 * g1 - f1 * f1 - 1.0 >= 1e-3:
                return f1, g1


def test_sigma_symmetry_and_non_metric_equals_levi_civita():
    rng = SplitMix64(99)
    combos = [(t, s, k) for t in TYPES for s in (E, L) for k in (LC, SSM, SSNM)]
    for i in range(1000):
        ttype, sig, kind = combos[i % len(combos)]
        space = AmbientSpace(sig, kind)
        f1, g1 = _admissible_sample(rng, sig, ttype)
        fj = Jet2(0, f1, rng.uniform(-3, 3))
        gj = Jet2(0, g1, rng.uniform(-3, 3))
        sm = mean_curvature_from_jets(ttype, space, kind, fj, gj).sigma
        assert abs(sm.s12 - sm.s21) <= 1e-12
        s_lc = mean_curvature_from_jets(ttype, space, LC, fj, gj).sigma
        s_nm = mean_curvature_from_jets(ttype, space, SSNM, fj, gj).sigma
        for a, b in ((s_lc.s11, s_nm.s11), (s_lc.s12, s_nm.s12),
                     (s_lc.s21, s_nm.s21), (s_lc.s22, s_nm.s22)):
            assert abs(a - b) <= 1e-12


def test_euclidean_metric_offset_identity():
    # H_metric - H_levi_civita = -<X3, N> pointwise
    rng = SplitMix64(123)
    space = AmbientSpace(E, SSM)
    for i in range(1000):
        ttype = TYPES[i % 3]
        fj = Jet2(0, rng.uniform(-2.5, 2.5), rng.uniform(-3, 3))
        gj = Jet2(0, rng.uniform(-2.5, 2.5), rng.uniform(-3, 3))
        h_metric = mean_curvature_from_jets(ttype, space, SSM, fj, gj).H
        h_flat = mean_curvature_from_jets(ttype, space, LC, fj, gj).H
        fr = frame_from_jets(ttype, space, fj, gj)
        offset = -metric_inner(E, Vec3(0, 0, 1), fr.N)
        assert abs((h_metric - h_flat) - offset) <= 1e-10


@pytest.mark.parametrize("ttype", TYPES, ids=lambda t: t.value)
@pytest.mark.parametrize("sig", (E, L), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", (LC, SSM, SSNM), ids=lambda k: k.value)
def test_scalar_kernel_equals_frame_oracle_exactly(ttype, sig, kind):
    # The kernel must reproduce the frame / covariant-derivative / inner-product
    # chain bit for bit; == (not approx) is what keeps reports byte-identical.
    rng = SplitMix64(4242)
    space = AmbientSpace(sig, kind)
    for _ in range(400):
        f1, g1 = _admissible_sample(rng, sig, ttype)
        fj = Jet2(0.0, f1, rng.uniform(-3, 3))
        gj = Jet2(0.0, g1, rng.uniform(-3, 3))
        fr = frame_from_jets(ttype, space, fj, gj)
        s11, s12, s21, s22 = (
            metric_inner(sig, covariant_derivative(space, x, w, dw), fr.N)
            for x, w, dw in ((fr.Fu, fr.Fu, fr.dFu_du), (fr.Fu, fr.Fv, fr.dFv_du),
                             (fr.Fv, fr.Fu, fr.dFu_dv), (fr.Fv, fr.Fv, fr.dFv_dv))
        )
        e_, f_, g_ = (metric_inner(sig, fr.Fu, fr.Fu), metric_inner(sig, fr.Fu, fr.Fv),
                      metric_inner(sig, fr.Fv, fr.Fv))
        det = first_fundamental_from_jets(ttype, space, fj, gj).det
        numerator = g_ * s11 - f_ * s12 - f_ * s21 + e_ * s22
        got = _curvature_kernel(ttype, sig, kind, fj.d1, fj.d2, gj.d1, gj.d2)
        assert got == (e_, f_, g_, det, fr.normalizer, s11, s12, s21, s22, numerator)
        rep = mean_curvature_from_jets(ttype, space, kind, fj, gj)
        assert (rep.sigma.s11, rep.sigma.s12, rep.sigma.s21, rep.sigma.s22) == got[5:9]
        assert (rep.first.E, rep.first.F, rep.first.G, rep.first.det) == got[:4]
        assert (rep.numerator, rep.normalizer) == (numerator, fr.normalizer)
        assert rep.H == numerator / (2.0 * det)


# Closed-form profile makers, their jet-arithmetic oracles and the oracle's arguments.
_CLOSED_FORMS = (
    (jets.log_abs_cos_profile, log_abs_cos_jet, ("k", "q", "a", "offset")),
    (jets.log_abs_exp_profile, log_abs_exp_jet, ("k", "q", "coeff_pos", "coeff_neg", "offset")),
)


def _catalog_closed_forms():
    """(profile, oracle) of every closed-form profile of the catalog's default and
    second settings; oracle(u) evaluates the same function by jet arithmetic."""
    made = {}

    def recording(make, oracle, names):
        signature = inspect.signature(make)

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            profile = make(*args, **kwargs)
            made[profile.fn] = functools.partial(oracle, *(bound.arguments[n] for n in names))
            return profile
        return record

    out = []
    with pytest.MonkeyPatch.context() as mp:
        for make, oracle, names in _CLOSED_FORMS:
            mp.setattr(catalog, make.__name__, recording(make, oracle, names))
        for fam in catalog.all_default_settings():
            surface = catalog._assemble(fam).surface
            out += [(p, made[p.fn]) for p in (surface.f, surface.g) if p.fn in made]
    return out


def _probe_points(domain, rng, n=200):
    """Seeded points across the domain, within 1e-3 of each finite end (a pole
    sits 1e-6 past it), and far out along each infinite end, where e^(q*u)
    overflows."""
    box = domain.clipped(catalog.SAMPLING_CAP)
    points = [rng.uniform(box.lo, box.hi) for _ in range(n)]
    for end, inward in ((domain.lo, 1.0), (domain.hi, -1.0)):
        if math.isfinite(end):
            points += [end + inward * 1e-3 * rng.uniform(0.0, 1.0) for _ in range(n // 4)]
            points.append(end)
        else:
            points += [-inward * 10.0 ** e for e in range(1, 7)]
    return points


def _outcome(evaluate, u):
    """(v, d1, d2) at u, or the type of error raised.  Overflow and a non-finite
    jet count as DomainError, as `Profile.at` reports them."""
    try:
        jet = Jet(*evaluate(u))
    except OverflowError:
        return DomainError
    except Exception as exc:  # noqa: BLE001  the type is the outcome
        return type(exc)
    return (jet.v, jet.d1, jet.d2) if jet.is_finite() else DomainError


def _underflow_d2(oracle, u):
    """Where the log|exp| oracle's -r*r underflows (r = 1/a), the 50-digit value
    of d2 = k*(a2/a - (a1/a)^2) and a bound on the kernel's rounding error in
    that difference; None everywhere else."""
    if oracle.func is not log_abs_exp_jet:
        return None
    k, q, cp, cn, _ = oracle.args
    try:
        av = cp * math.exp(q * u) + cn * math.exp(-q * u)
    except OverflowError:
        return None
    if av == 0.0 or (1.0 / av) * (1.0 / av) >= sys.float_info.min:
        return None
    with mpmath.workdps(50):
        q = mpmath.mpf(q)
        ep, em = mpmath.exp(q * u), mpmath.exp(-q * u)
        a = cp * ep + cn * em
        a1, a2 = q * (cp * ep - cn * em), q * q * a
        s1, s2 = a1 / a, a2 / a
        return float(k * (s2 - s1 * s1)), float(1e-14 * abs(k) * (s1 * s1 + abs(s2)))


def _assert_kernel_matches_oracle(profile, oracle, u, context) -> bool:
    """The kernel's outcome at u equals the jet oracle's, except d2 where the
    oracle's -r*r underflows: there it must match the mpmath value.  Returns
    whether u was such a probe."""
    got, expected = _outcome(profile.fn, u), _outcome(oracle, u)
    exact = _underflow_d2(oracle, u)
    if exact is None or isinstance(expected, type):
        assert got == expected, context
        return False
    d2, bound = exact
    assert not isinstance(got, type) and got[:2] == expected[:2], context
    assert abs(got[2] - d2) <= bound, (context, got[2], d2)
    return True


def test_closed_form_kernels_equal_jet_oracle_exactly():
    # == (not approx): the kernels repeat the jet composition's operations in order
    rng = SplitMix64(2718)
    profiles = _catalog_closed_forms()
    assert {p.label.split(".")[0] for p, _ in profiles} == {
        "F2_23", "F2_24", "F2_35", "F2_51", "F3_10", "F3_13", "F3_25", "F3_38", "F3_43"}
    kinds = set()
    underflows = 0
    for profile, oracle in profiles:
        for u in _probe_points(profile.domain, rng):
            underflows += _assert_kernel_matches_oracle(profile, oracle, u, (profile.label, u))
            expected = _outcome(oracle, u)
            kinds.add(expected if isinstance(expected, type) else tuple)
    assert kinds == {tuple, DomainError}
    assert underflows > 0


def _signed(rng, lo, hi):
    """A log-uniform magnitude in [lo, hi] with a random sign."""
    magnitude = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return magnitude if rng.uniform() < 0.5 else -magnitude


def test_closed_form_kernels_equal_jet_oracle_on_random_parameters():
    rng = SplitMix64(1414)
    underflows = 0
    for _ in range(300):
        k, q = _signed(rng, 1e-3, 1e3), _signed(rng, 1e-2, 1e3)
        a, offset = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        cp, cn = _signed(rng, 1e-3, 1e3), _signed(rng, 1e-3, 1e3)
        cases = ((jets.log_abs_cos_profile(k, q, a, offset),
                  functools.partial(log_abs_cos_jet, k, q, a, offset)),
                 (jets.log_abs_exp_profile(k, q, cp, cn, offset),
                  functools.partial(log_abs_exp_jet, k, q, cp, cn, offset)))
        # |q*u| near 709.8, where e^(q*u) or q*e^(q*u) overflows
        edge = [side * rng.uniform(709.0, 710.0) / abs(q) for side in (-1.0, 1.0)]
        for profile, oracle in cases:
            for u in _probe_points(profile.domain, rng, n=20) + edge:
                underflows += _assert_kernel_matches_oracle(profile, oracle, u,
                                                            (k, q, a, cp, cn, u))
    assert underflows > 0
