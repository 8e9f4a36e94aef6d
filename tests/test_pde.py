"""Closed-form residuals, the residual/numerator equivalence, and separation fits."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy

from ssmin import curvature, pde
from ssmin.ambient import AmbientSpace, ConnectionKind, Signature
from ssmin.catalog import FamilyId, build, make_family
from ssmin.errors import IllConditionedFit, UnknownCase
from ssmin.jets import Jet2, affine_profile
from ssmin.pde import CaseId, _CASES, equivalence_sweep, residual
from ssmin.sampling import SplitMix64
from ssmin.surface import TranslationType, frame_from_jets

from oracles import (integrate_profile_scalar, mean_curvature_from_jets,
                     reference_equivalence_sweep, separation_check)

ZERO_JET = Jet2(0.0, 0.0, 0.0)


def test_residual_examples():
    assert residual(CaseId.E_M_I, ZERO_JET, ZERO_JET) == -2.0
    assert residual(CaseId.E_NM_ALL, Jet2(0, 1.3, 0), Jet2(0, -0.4, 0)) == 0.0
    # tanh-profile pair: f''/(1-f'^2) = 1 pairs with -g''/(1-g'^2) = 1
    u, v = 0.4, -0.9
    fj = Jet2(0, math.tanh(u), 1.0 / math.cosh(u) ** 2)
    gj = Jet2(0, -math.tanh(v), -1.0 / math.cosh(v) ** 2)
    assert abs(residual(CaseId.L_NM_I, fj, gj)) <= 1e-15


def test_l_m_ii_iii_constant_profiles():
    # with f' = p, g' = q constant the residual reduces to 2q(q^2 - p^2 - 1)
    for p, q in [(1.0, math.sqrt(2.0)), (0.5, -math.sqrt(1.25)), (2.0, math.sqrt(5.0))]:
        r = residual(CaseId.L_M_II_III, Jet2(0, p, 0), Jet2(0, q, 0))
        assert abs(r) <= 1e-12
        assert abs(r - 2.0 * q * (q * q - p * p - 1.0)) <= 1e-12
    # q^2 - p^2 - 2 = 0 does NOT solve the equation: the residual is 2q
    p, q = 1.0, math.sqrt(3.0)
    r = residual(CaseId.L_M_II_III, Jet2(0, p, 0), Jet2(0, q, 0))
    assert abs(r - 2.0 * q) <= 1e-12


def test_equivalence_factor_examples():
    space = AmbientSpace(Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_METRIC)
    fr = frame_from_jets(TranslationType.I, space, ZERO_JET, ZERO_JET)
    lam = _CASES["E_M_I"].signs[fr.ttype] * fr.normalizer
    assert lam == 1.0
    rep = mean_curvature_from_jets(TranslationType.I, space, space.connection,
                                   ZERO_JET, ZERO_JET)
    assert lam * rep.numerator == residual(CaseId.E_M_I, ZERO_JET, ZERO_JET) == -2.0

    nm = AmbientSpace(Signature.EUCLIDEAN, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC)
    fj, gj = Jet2(0, 1, 2), Jet2(0, 1, -2)
    rep = mean_curvature_from_jets(TranslationType.I, nm, nm.connection, fj, gj)
    assert abs(residual(CaseId.E_NM_ALL, fj, gj)) <= 1e-15
    assert abs(rep.numerator) <= 1e-15


@pytest.mark.parametrize("case", list(CaseId), ids=lambda c: c.value)
def test_equivalence_sweep_all_cases(case):
    rec = equivalence_sweep(case, 400, 2718)
    assert rec.max_rel_deviation <= 1e-10
    if case.value.startswith("L"):
        assert 0.0 < rec.acceptance_rate < 1.0
    else:
        assert rec.acceptance_rate == 1.0


@pytest.mark.parametrize("seed", [0, 7, 2718])
def test_non_metric_sweeps_are_exact(seed):
    # without a metric term, sign * lc and the product-cleared residual run the
    # same float operations (up to exact negations and commuted sums)
    for case in (CaseId.E_NM_ALL, CaseId.L_NM_I, CaseId.L_NM_II_III):
        assert equivalence_sweep(case, 2000, seed).max_rel_deviation == 0.0, case


@pytest.mark.parametrize("n_samples", [1, 2, 7, 301])
@pytest.mark.parametrize("seed", [0, 2718, 2**64 - 1])
def test_flat_sweep_equals_per_sample_reference(seed, n_samples):
    # same draws, same gate, same arithmetic: the whole record is equal
    for case in CaseId:
        assert (equivalence_sweep(case, n_samples, seed)
                == reference_equivalence_sweep(case, n_samples, seed))


def test_residual_unknown_case():
    with pytest.raises(UnknownCase):
        residual("E_M_I", ZERO_JET, ZERO_JET)


def test_equivalence_sweep_unknown_case():
    # a case id's value is not the id
    with pytest.raises(UnknownCase):
        equivalence_sweep("E_M_I", 5, 0)


def test_nan_residual_fails_the_sweep(monkeypatch):
    case = CaseId.L_M_II_III
    calls = itertools.count(1)
    row = pde._CASES[case.value]

    def nan_on_fifth(*args):
        value = row.residual(*args)
        return math.nan if next(calls) == 5 else value
    assert equivalence_sweep(case, 20, 7).verdict
    monkeypatch.setitem(pde._CASES, case.value, row._replace(residual=nan_on_fifth))
    record = equivalence_sweep(case, 20, 7)
    assert math.isnan(record.max_rel_deviation)
    assert record.verdict is False


@pytest.mark.parametrize("key", [(CaseId(name), ttype) for name, row in _CASES.items()
                                 for ttype in row.signs],
                         ids=lambda k: f"{k[0].value}-{k[1].name}")
def test_flipped_sign_fails_the_sweep(monkeypatch, key):
    case, ttype = key
    assert equivalence_sweep(case, 20, 7).verdict
    row = _CASES[case.value]
    monkeypatch.setitem(pde._CASES, case.value,
                        row._replace(signs={**row.signs, ttype: -row.signs[ttype]}))
    record = equivalence_sweep(case, 20, 7)
    assert record.max_rel_deviation > 1e-3
    assert record.verdict is False
    assert equivalence_sweep(case, 300, 3).verdict is False


_METRIC_CASES = [case for case in CaseId
                 if _CASES[case.value].connection is ConnectionKind.SEMI_SYMMETRIC_METRIC]


def _metric_term_scaled(scale):
    """The kernel with its metric term multiplied by `scale`: the metric lc less
    the non-metric one at the same point is that term."""
    kernel = pde._curvature_kernel

    def scaled(ttype, sig, kind, f1, f2, g1, g2):
        lc, det = kernel(ttype, sig, kind, f1, f2, g1, g2)
        if kind is not ConnectionKind.SEMI_SYMMETRIC_METRIC:
            return lc, det
        plain = kernel(ttype, sig, ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, f1, f2, g1, g2)[0]
        return plain + scale * (lc - plain), det
    return scaled


def _residuals_scaled(monkeypatch, factor):
    for name, row in _CASES.items():
        res = row.residual
        monkeypatch.setitem(pde._CASES, name, row._replace(
            residual=lambda f1, f2, g1, g2, res=res: factor * res(f1, f2, g1, g2)))


# Negative controls: the kernel now has the residual table's shape (Levi-Civita
# numerator plus one metric term), so a mistake both shared could pass the
# sweep.  Each broken variant must fail every case it touches at 300 samples,
# and a residual off by a relative 1e-9 (the sweep's detection floor, against
# its tolerance of 1e-10) must fail every case.
@pytest.mark.parametrize("control, affected", [
    (lambda mp: mp.setattr(pde, "_curvature_kernel", _metric_term_scaled(-1.0)), _METRIC_CASES),
    (lambda mp: mp.setattr(pde, "_curvature_kernel", _metric_term_scaled(0.5)), _METRIC_CASES),
    (lambda mp: _residuals_scaled(mp, 1.0 + 1e-9), list(CaseId)),
], ids=["metric-term-sign", "metric-term-factor-1", "residual-1e-9"])
@pytest.mark.parametrize("seed", [3, 2718])
def test_negative_controls_fail_every_affected_sweep(monkeypatch, control, affected, seed):
    assert all(equivalence_sweep(case, 300, seed).verdict for case in CaseId)
    control(monkeypatch)
    for case in CaseId:
        assert equivalence_sweep(case, 300, seed).verdict is (case not in affected), case


def _dyadic_grid(sig: Signature, ttype: TranslationType) -> list[tuple[float, ...]]:
    """48 points (f', f'', g', g'') inside the regular region of (sig, ttype):
    three values of f', four of g', and f'', g'' in {-1, 1}."""
    if sig is Signature.EUCLIDEAN:
        f1s, g1s = (-1.0, 0.0, 1.0), (-1.5, -0.5, 0.5, 1.5)
    elif ttype is TranslationType.I:
        f1s, g1s = (-0.5, 0.0, 0.5), (-0.5, -0.25, 0.25, 0.5)
    else:
        f1s, g1s = (-0.5, 0.0, 0.5), (-3.0, -2.0, 2.0, 3.0)
    return list(itertools.product(f1s, (-1.0, 1.0), g1s, (-1.0, 1.0)))


def _exact_at(poly: sympy.Poly, point) -> Fraction:
    """The polynomial's value at the point, in rational arithmetic."""
    return sum(Fraction(int(c.p), int(c.q)) * math.prod(map(pow, map(Fraction, point), powers))
               for powers, c in poly.terms())


def test_lc_is_the_residual_exactly_on_a_dyadic_grid():
    # sign * lc = residual is a polynomial identity.  Each residual has degree
    # at most 2 in f', 1 in f'', 3 in g' and 1 in g'' (test_symbolic.py), below
    # the grid's 3, 2, 4 and 2 values, so a difference that vanishes on the
    # grid vanishes everywhere (N. Alon, "Combinatorial Nullstellensatz",
    # 1999, Lemma 2.1).  The inputs have few significant bits, so every float
    # operation is exact, as the rational values confirm, and == decides.
    symbols = sympy.symbols("f1 f2 g1 g2")
    values = []  # (case, sign * lc, residual, the residual's rational value)
    for name, (sig, kind, signs, res_fn) in _CASES.items():
        poly = sympy.Poly(sympy.nsimplify(res_fn(*symbols)), *symbols)
        for ttype, sign in signs.items():
            for point in _dyadic_grid(sig, ttype):
                lc = sign * curvature._curvature_kernel(ttype, sig, kind, *point)[0]
                values.append((CaseId(name), lc, res_fn(*point), _exact_at(poly, point)))
    assert len(values) == 12 * 48
    assert all(Fraction(lc) == Fraction(res) == exact for _, lc, res, exact in values)

    def failing(scale: float) -> set[CaseId]:
        return {case for case, lc, res, _ in values if lc != res * scale}
    assert failing(1.0) == set()
    assert failing(1.0 + 2.0 ** -52) == set(CaseId)  # the negative control


def test_type_ii_iii_residual_coincidence():
    # the same jets seen through a Type II or Type III frame certify the same
    # closed-form residual once the signed equivalence factor is applied
    rng = SplitMix64(314)
    for case in (CaseId.E_M_II_III, CaseId.E_NM_ALL, CaseId.L_M_II_III,
                 CaseId.L_NM_II_III):
        sig = Signature.EUCLIDEAN if case.value.startswith("E") else Signature.LORENTZIAN
        kind = (ConnectionKind.SEMI_SYMMETRIC_METRIC if "_M_" in case.value
                else ConnectionKind.SEMI_SYMMETRIC_NON_METRIC)
        space = AmbientSpace(sig, kind)
        for _ in range(200):
            if sig is Signature.EUCLIDEAN:
                f1, g1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            else:
                f1 = rng.uniform(-1.2, 1.2)
                g1 = math.copysign(math.sqrt(1.0 + f1 * f1) + rng.uniform(0.05, 1.5),
                                   rng.uniform(-1, 1))
            fj = Jet2(0, f1, rng.uniform(-3, 3))
            gj = Jet2(0, g1, rng.uniform(-3, 3))
            values = []
            for ttype in (TranslationType.II, TranslationType.III):
                fr = frame_from_jets(ttype, space, fj, gj)
                rep = mean_curvature_from_jets(ttype, space, kind, fj, gj)
                values.append(_CASES[case.value].signs[ttype] * fr.normalizer
                              * rep.numerator)
            res = residual(case, fj, gj)
            assert abs(values[0] - values[1]) <= 1e-10 * (1.0 + abs(res))
            assert abs(values[0] - res) <= 1e-10 * (1.0 + abs(res))


def test_case4_contradiction_witnesses():
    rng = SplitMix64(8)
    for _ in range(500):
        f1, g1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        assert residual(CaseId.E_M_I, Jet2(0, f1, 0), Jet2(0, g1, 0)) <= -2.0
    for _ in range(500):
        while True:
            f1, g1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if 1.0 - f1 * f1 - g1 * g1 > 1e-6:
                break
        r = residual(CaseId.L_M_I, Jet2(0, f1, 0), Jet2(0, g1, 0))
        assert abs(r - 2.0 * (1.0 - f1 * f1 - g1 * g1)) <= 1e-14
        assert r > 0.0


def test_separation_check_scherk_profile():
    # f'' = 2 f'^2 + 2 corresponds to (c0, c1) = (4, 2)
    f = build(make_family(FamilyId.F2_23, c3=0.0)).surface.f
    g = affine_profile(0.0, 0.0)
    u_samples = [0.05 * k for k in range(1, 11)]
    fit = separation_check(CaseId.E_M_I, f, g, u_samples, [0.1, 0.2, 0.3])
    assert abs(fit.c0 - 4.0) <= 1e-10
    assert abs(fit.c1 - 2.0) <= 1e-10
    assert abs(fit.c2) <= 1e-10
    assert fit.deviation <= 1e-10


def test_separation_check_affine_is_ill_conditioned():
    f = affine_profile(2.0, 1.0)
    g = affine_profile(0.0, 0.0)
    with pytest.raises(IllConditionedFit):
        separation_check(CaseId.E_M_I, f, g, [0.1, 0.2, 0.3], [0.1, 0.2])


def test_separation_check_rk4_oracle():
    # g'' = -2 g'^2 + 3 sampled from an RK4 trajectory: (c0, c2) = (4, 3),
    # sharing c0 with the Scherk-side f'' = 2 f'^2 + 2.
    f = build(make_family(FamilyId.F2_23, c3=0.0)).surface.f
    g = integrate_profile_scalar(lambda h: -2.0 * h * h + 3.0, 0.0, 0.2,
                                 (0.0, 1.0), 1e-3)
    u_samples = [0.05 * k for k in range(1, 11)]
    v_samples = [0.1 * k for k in range(1, 10)]
    fit = separation_check(CaseId.E_M_I, f, g, u_samples, v_samples)
    assert abs(fit.c0 - 4.0) <= 1e-8
    assert abs(fit.c1 - 2.0) <= 1e-8
    assert abs(fit.c2 - 3.0) <= 1e-8


def test_separation_two_constant_cases():
    # F2_35 profile solves f'' = -(2c/(c^2+1)) f'^2 - 2c; with c = 1 the
    # separated fit gives c0 = -2, c1 = -2 and no c2
    f = build(make_family(FamilyId.F2_35, c0_tilde=1.0)).surface.f
    g = affine_profile(1.0, 0.0)
    fit = separation_check(CaseId.E_M_II_III, f, g, [0.05 * k for k in range(1, 11)], [])
    assert fit.c2 is None
    assert abs(fit.c0 + 2.0) <= 1e-9
    assert abs(fit.c1 + 2.0) <= 1e-9
    with pytest.raises(UnknownCase):
        separation_check(CaseId.E_NM_ALL, f, g, [0.1, 0.2, 0.3], [])
