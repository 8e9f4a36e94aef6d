"""Solution-family construction, constraints, domains, and verification."""

import itertools
import math

import pytest

from ssmin import catalog, curvature
from ssmin.catalog import (
    Branch,
    FamilyId,
    THEOREM_SUITES,
    _assemble,
    all_default_settings,
    build,
    default_settings,
    family_tolerance,
    make_family,
    verify_auto,
    verify_family,
    verify_residual,
)
from ssmin.errors import DomainError, EmptyDomain, ParameterConstraintViolation
from ssmin.cli import _record, _sweeps
from ssmin.pde import CaseId, equivalence_sweep, residual
from ssmin.sampling import _worse
from ssmin.surface import TranslationType


def test_scherk_type_build_example():
    built = build(make_family(FamilyId.F2_23, c3=0.0, a=0.0, c5=0.0))
    assert built.surface.ttype is TranslationType.I
    assert built.case is CaseId.E_M_I
    # admissible box sits strictly inside (-pi/4, pi/4)
    assert -math.pi / 4 < built.domain.u.lo < built.domain.u.hi < math.pi / 4
    # the profile is z = -(1/2) ln|cos 2u| near u = 0
    jet = built.surface.f.at(0.3)
    assert abs(jet.v + 0.5 * math.log(abs(math.cos(0.6)))) <= 1e-14
    assert abs(jet.d1 - math.tan(0.6)) <= 1e-14


def test_plane_family_residual_identically_zero():
    built = build(make_family(FamilyId.F2_40, c0_prime=1.0, b_prime=0.0))
    for u, v in [(0.0, 0.0), (2.0, -3.0), (-5.0, 7.0)]:
        fj, gj = built.surface.f.at(u), built.surface.g.at(v)
        assert residual(built.case, fj, gj) == 0.0


def test_tanh_family_build_example():
    built = build(make_family(FamilyId.F3_38, c0=1.0, c_hat=-1.0, c_hat1=-1.0, a=0.0))
    f = built.surface.f
    assert abs(f.at(0.0).v - math.log(2.0)) <= 1e-14
    for u in (-0.4, 0.0, 0.55):
        jet = f.at(u)
        assert abs(jet.d1 - math.tanh(u)) <= 1e-14
        assert abs(jet.d2 / (1.0 - jet.d1 ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("fid,params", [
    (FamilyId.F2_35, {"c0_tilde": 0.0}),
    (FamilyId.F2_39, {"a_hat": -1.0}),
    (FamilyId.F2_51, {"c": 0.0}),
    (FamilyId.F3_10, {"c": 0.5}),
    (FamilyId.F3_12, {"c": 1.5}),
    (FamilyId.F3_12, {"c_tilde": 0.0}),
    (FamilyId.F3_25, {"c0_tilde": 1.5}),
    (FamilyId.F3_27, {"c0_tilde": 0.5}),
    (FamilyId.F3_27, {"c1": 0.0}),
    (FamilyId.F3_30, {"a_hat": 0.0}),
    (FamilyId.F3_31, {"c1_prime": 1.0}),
    (FamilyId.F3_38, {"c0": 0.0}),
    (FamilyId.F3_43, {"c0_bar": 0.0}),
    (FamilyId.F3_43, {"c3": 0.0}),
])
def test_parameter_constraints(fid, params):
    with pytest.raises(ParameterConstraintViolation):
        build(make_family(fid, **params))


def test_unknown_parameter_name():
    with pytest.raises(ParameterConstraintViolation):
        make_family(FamilyId.F2_23, nonsense=1.0)


@pytest.mark.parametrize("fid,params", [
    (FamilyId.F3_10, {}),
    (FamilyId.F3_13, {}),
    (FamilyId.F3_25, {}),
    (FamilyId.F3_31, {"c1_prime": 0.0}),
    (FamilyId.F3_38, {"c_hat": 1.0}),
    (FamilyId.F3_38, {"c_hat1": 2.0}),
    (FamilyId.F3_12, {"c_tilde": 1.0}),
    (FamilyId.F3_14, {"c_tilde1": 0.5}),
    (FamilyId.F3_27, {"c1": 1.0}),
    (FamilyId.F3_30, {"a_hat": 0.3}),
    (FamilyId.F3_36, {"c1": 1.0, "c2": 1.0}),
    (FamilyId.F3_41, {"c1": 0.0, "c2": 0.5}),
    (FamilyId.F3_43, {"c3": -1.0}),
])
def test_empty_spacelike_domains(fid, params):
    with pytest.raises(EmptyDomain):
        build(make_family(fid, **params))
    # the PDE residual still vanishes on the formula's own domain
    report = verify_residual(make_family(fid, **params), 100, 3)
    assert report.mode == "residual-only"
    assert report.max_abs_residual <= report.tolerance
    assert report.empty_reason


def test_verify_family_scherk():
    report = verify_family(make_family(FamilyId.F2_51, c=1.0), 200, 7)
    assert report.max_abs_numerator <= 1e-9
    assert report.verdict


def test_verify_family_quadrature():
    report = verify_family(
        make_family(FamilyId.F2_39, branch=Branch.PLUS, c0_hat=1.0, a_hat=2.0),
        100, 11,
    )
    assert report.max_abs_numerator <= 1e-7
    assert report.verdict


def test_verify_family_is_deterministic():
    fam = make_family(FamilyId.F3_43)
    a = verify_family(fam, 64, 99)
    b = verify_family(fam, 64, 99)
    assert a.max_abs_numerator == b.max_abs_numerator
    assert a.max_abs_residual == b.max_abs_residual


def test_f3_31_zero_slope_branch_solves_exactly():
    report = verify_residual(make_family(FamilyId.F3_31, c0_prime=1.0, c1_prime=0.0), 200, 5)
    assert report.max_abs_residual == 0.0


def test_f3_31_printed_constant_branch_is_not_minimal():
    # the stated alternative root c1'^2 - c0'^2 - 2 = 0 yields a spacelike
    # plane whose residual is 2*c1', not zero; the verifier exposes it
    fam = make_family(FamilyId.F3_31, c0_prime=1.0, c1_prime=math.sqrt(3.0))
    built = build(fam)  # spacelike: g'^2 - f'^2 - 1 = 1
    report = verify_family(fam, 100, 13)
    assert not report.verdict
    assert report.max_abs_residual == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_perturbation_controls_every_family():
    for fam in all_default_settings():
        report = verify_residual(fam, 200, 21, perturb=0.01)
        assert report.max_abs_residual > 1e-3, fam.family_id
        assert not report.verdict


MIRROR_PAIRS = [
    (make_family(FamilyId.F2_23, c3=0.7, a=0.2, c5=0.0),
     make_family(FamilyId.F2_24, c3_bar=0.7, a1=0.2, c6=0.0)),
    (make_family(FamilyId.F3_10, c=1.5, a=0.2, b_bar=0.0),
     make_family(FamilyId.F3_13, c_hat=1.5, a1=0.2, b_bar1=0.0)),
    (make_family(FamilyId.F3_12, c=0.5, c_tilde=-1.0, b_tilde=0.0),
     make_family(FamilyId.F3_14, c_hat=0.5, c_tilde1=-1.0, b_tilde=0.0)),
]


def test_swapped_profile_roles_match():
    # the v-profile family mirrors the u-profile family under argument swap;
    # profiles come from _assemble since F3_10/F3_13 have no spacelike domain
    for fam, mirror in MIRROR_PAIRS:
        uv, vu = _assemble(fam), _assemble(mirror)
        assert uv.case is vu.case
        for s, t in [(0.1, -0.4), (0.3, 0.8), (0.0, 0.0)]:
            assert uv.f.at(s) == vu.g.at(s) and uv.g.at(t) == vu.f.at(t)
            r_uv = residual(uv.case, uv.f.at(s), uv.g.at(t))
            r_vu = residual(vu.case, vu.f.at(t), vu.g.at(s))
            assert r_uv == pytest.approx(r_vu, abs=1e-13)
        assert [(c, "g" if w == "f" else "f") for c, w in uv.ode_checks] == list(vu.ode_checks)
        if uv.admissible is None:
            assert vu.admissible is None
        else:
            assert (uv.admissible.u, uv.admissible.v) == (vu.admissible.v, vu.admissible.u)


def test_f3_43_negative_orientation_parameter():
    # c0_bar < 0 flips the singular side of the log-exp profile; the
    # admissible box must follow it
    fam = make_family(FamilyId.F3_43, c0_bar=-0.5, c3=2.0, c4=0.1, b=0.0)
    built = build(fam)
    v_star = 0.5 * math.log(2.0) / -0.5
    assert built.domain.v.hi == pytest.approx(v_star - 1e-3, abs=1e-12)
    report = verify_family(fam, 150, 5)
    assert report.verdict


def test_default_settings_cover_all_families():
    for fid in FamilyId:
        settings = default_settings(fid)
        assert len(settings) >= 2
        for fam in settings:
            assert fam.family_id is fid
    covered = {fid for fids in THEOREM_SUITES.values() for fid in fids}
    assert covered == set(FamilyId)


def test_branch_settings_present():
    branches = {fam.branch for fam in default_settings(FamilyId.F2_39)}
    assert branches == {Branch.PLUS, Branch.MINUS}
    branches = {fam.branch for fam in default_settings(FamilyId.F3_30)}
    assert branches == {Branch.PLUS, Branch.MINUS}


def test_family_tolerances():
    assert family_tolerance(make_family(FamilyId.F2_39)) == 1e-6
    assert family_tolerance(make_family(FamilyId.F2_23)) == 1e-8


def test_quadrature_base_point_gap():
    # a_hat small enough pushes the radicand zero past v = 0; the quadrature
    # base moves inside the domain and evaluation at 0 errors cleanly
    fam = make_family(FamilyId.F2_39, c0_hat=0.0, a_hat=1.0)
    built = build(fam)
    with pytest.raises(DomainError):
        built.surface.g.at(0.0)
    v = built.domain.v.lo + 0.5
    jet = built.surface.g.at(v)
    assert jet.d1 == pytest.approx(1.0 / math.sqrt(math.exp(4.0 * v) - 1.0), rel=1e-12)


def test_all_defaults_verify_within_tolerance():
    for fam in all_default_settings():
        report = verify_auto(fam, 120, 1234)
        assert report.verdict, (fam.family_id, report)


def _nan_at(fn, index, pick=lambda value: math.nan):
    """`fn` with its result passed through `pick` on call number `index`."""
    calls = itertools.count()

    def patched(*args):
        value = fn(*args)
        return pick(value) if next(calls) == index else value
    return patched


def _nan_numerator(kernel_result):
    return kernel_result[:-1] + (math.nan,)


def test_worse_matches_max_and_keeps_nan():
    for a, b in ((0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (0.0, -0.0), (-0.0, 0.0),
                 (1.0, math.inf)):
        got = _worse(a, b)
        assert got == max(a, b)
        assert math.copysign(1.0, got) == math.copysign(1.0, max(a, b))
    assert math.isnan(_worse(0.0, math.nan))
    assert math.isnan(_worse(math.nan, 1.0))


def test_nan_residual_sample_fails_the_record(monkeypatch):
    fam = make_family(FamilyId.F2_51, c=1.0)
    assert verify_family(fam, 20, 7).verdict and verify_residual(fam, 20, 7).verdict
    for check in (verify_family, verify_residual):
        monkeypatch.setattr(catalog, "residual", _nan_at(residual, 5))
        report = check(fam, 20, 7)
        assert math.isnan(report.max_abs_residual)
        assert report.verdict is False


def test_nan_numerator_sample_fails_the_record(monkeypatch):
    fam = make_family(FamilyId.F2_51, c=1.0)
    kernel = curvature._curvature_kernel
    monkeypatch.setattr(curvature, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    report = verify_family(fam, 20, 7)
    assert math.isnan(report.max_abs_numerator)
    assert report.verdict is False

    monkeypatch.setattr(curvature, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    assert math.isnan(equivalence_sweep(CaseId.E_NM_ALL, 20, 7).max_rel_deviation)
    monkeypatch.setattr(curvature, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    [record] = [_record(r) for r in _sweeps([CaseId.E_NM_ALL], 20, 7, 1e-10)]
    assert record["verdict"] == "fail"
