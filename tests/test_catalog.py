"""Solution-family construction, constraints, domains, and verification."""

import dis
import itertools
import math
import re
from pathlib import Path

import pytest

from ssmin import catalog, curvature, pde
from ssmin.ambient import Signature
from ssmin.catalog import (
    Branch,
    FamilyId,
    SolutionFamily,
    _assemble,
    all_default_settings,
    build,
    default_settings,
    make_family,
    verify_auto,
)
from ssmin.errors import (DomainError, DomainMismatch, EmptyDomain,
                          ParameterConstraintViolation, UnknownCase, VerifierError)
from ssmin.cli import _record, _sweeps, main
from ssmin.jets import Interval, Jet2, Profile, affine_profile
from ssmin.ode import Trajectory, compare_profile, integrate
from ssmin.pde import CaseId, equivalence_sweep, residual
from ssmin.sampling import SplitMix64
from ssmin.surface import TranslationType

import oracles
from oracles import _worse, reference_compare_profile, reference_verify_auto


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
    # one check, whether the family comes from make_family or is built directly
    message = r"F2_23 has no parameter 'x' \(expected \['a', 'c3', 'c5'\]\)"
    with pytest.raises(ParameterConstraintViolation, match=message):
        make_family(FamilyId.F2_23, x=1.0)
    with pytest.raises(ParameterConstraintViolation, match=message):
        SolutionFamily(FamilyId.F2_23, (("x", 1.0),))
    assert SolutionFamily(FamilyId.F2_23, (("c3", 1),)) == make_family(FamilyId.F2_23, c3=1.0)


def _assert_box_inside_both_domains(built):
    for profile, box in zip((built.surface.f, built.surface.g), built.domain.sampling_box()):
        assert profile.domain.lo <= box.lo < box.hi <= profile.domain.hi, profile.label


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
    # the builder's box lies inside both profiles' own domains
    built = _assemble(make_family(fid, **params))
    _assert_box_inside_both_domains(built)
    # the PDE residual still vanishes on the formula's own domain
    report = verify_auto(make_family(fid, **params), 100, 3)
    assert report.mode == "residual-only"
    assert report.max_abs_residual <= report.tolerance
    assert report.empty_reason


@pytest.mark.parametrize("fid,params", [
    (FamilyId.F3_10, {"c": 1.0000001}),
    (FamilyId.F3_10, {"c": 1.0 + 1e-12}),
    (FamilyId.F3_13, {"c_hat": -1.0000001}),
    (FamilyId.F3_25, {"c0_tilde": 0.999999999}),
    (FamilyId.F3_12, {"c": 0.9999999999, "c_tilde": 1.0}),
    (FamilyId.F3_14, {"c_hat": 0.9999999999, "c_tilde1": 1.0}),
    (FamilyId.F3_27, {"c0_tilde": 1.0000001, "c1": 5.0}),
    (FamilyId.F3_30, {"a_hat": 1e307}),
    # boxes reaching 2 in u put |q*u| past where e^(+-q*u) overflows
    (FamilyId.F3_38, {"c0": 1e5, "c_hat1": 3.0}),
    (FamilyId.F3_43, {"c0_bar": 1e5, "c3": -1.0}),
])
def test_residual_only_boxes_at_the_edges_of_parameter_space(fid, params):
    # poles closer than the edge margin, slopes near their asymptote, a radicand
    # term near overflow: each closed-form box stays in its profile's domain
    # and off every overflow, and the record passes
    fam = make_family(fid, **params)
    built = _assemble(fam)
    _assert_box_inside_both_domains(built)
    report = verify_auto(fam, 200, 1)
    assert report.mode == "residual-only"
    assert report.verdict, report


@pytest.mark.parametrize("fid,params,asymptotes", [
    (FamilyId.F3_38, {"c0": 316.0, "c_hat": 1.0, "c_hat1": 1.0}, (1.0, 1.0)),
    (FamilyId.F3_38, {"c0": -0.01, "c_hat": 2.0}, (1.0, None)),
    (FamilyId.F3_12, {"c_tilde": 1.0}, (math.sqrt(0.75), None)),
    (FamilyId.F3_27, {"c0_tilde": 316.0, "c1": 1.0}, (math.sqrt(316.0 ** 2 - 1.0), None)),
    # domains with a finite upper end, so the box ends below it
    (FamilyId.F3_12, {"c_tilde": 2.0}, (math.sqrt(0.75), None)),
    (FamilyId.F3_27, {"c1": 0.5}, (math.sqrt(1.5 ** 2 - 1.0), None)),
])
def test_coth_boxes_bound_slope_and_curvature(fid, params, asymptotes):
    # the residual's terms grow as slope^2 * |d2|, and d2 carries the rate of the
    # exponent: on a coth-type box |d1| <= s + SLOPE_CAP and |d2| <= SLOPE_CAP^2
    fam = make_family(fid, **params)
    built = _assemble(fam)
    _assert_box_inside_both_domains(built)
    cap = catalog.SLOPE_CAP
    for profile, box, s in zip((built.surface.f, built.surface.g),
                               built.domain.sampling_box(), asymptotes):
        if s is None:
            continue
        for k in range(9):
            jet = profile.at(box.lo + (box.hi - box.lo) * k / 8.0, value=False)
            assert s < abs(jet.d1) <= (s + cap) * (1.0 + 1e-12), (profile.label, k)
            assert abs(jet.d2) <= cap * cap * (1.0 + 1e-9), (profile.label, k)
    # with two coth slopes at rate 316, the slope bound alone left residuals at
    # 0.9 of the tolerance
    report = verify_auto(fam, 200, 1)
    assert report.max_abs_residual <= 0.05 * report.tolerance


def test_every_sampling_box_lies_inside_both_profile_domains():
    # the two default settings of every family, the settings at which F2_39's
    # and F3_30's radicand domains once started inside their boxes (`ssmin mesh
    # --family F2_39 --c0-hat 2100` and `--family F3_30 --c0-hat 3000 --a-hat
    # -0.3` sampled outside them), and seeded draws with each parameter
    # +-10^U(-6, 6), on either branch
    settings = [*all_default_settings(), make_family(FamilyId.F2_39, c0_hat=2100.0),
                make_family(FamilyId.F3_30, c0_hat=3000.0, a_hat=-0.3)]
    rng, families = SplitMix64(1), list(FamilyId)
    for _ in range(2000):
        fid = families[int(rng.uniform() * len(families))]
        params = {name: (1.0 if rng.uniform() < 0.5 else -1.0) * 10.0 ** rng.uniform(-6.0, 6.0)
                  for name in catalog._DEFAULTS[fid.value]}
        minus = fid in catalog.BRANCHED_FAMILIES and rng.uniform() < 0.5
        settings.append(make_family(fid, Branch.MINUS if minus else Branch.PLUS, **params))
    checked = 0
    for fam in settings:
        try:
            built = _assemble(fam)
        except ParameterConstraintViolation:
            continue
        checked += 1
        for profile, box in zip((built.surface.f, built.surface.g),
                                built.domain.sampling_box()):
            # box.lo + (box.hi - box.lo) bounds the largest draw of verify_auto
            assert profile.domain.lo <= box.lo, fam
            assert box.lo + (box.hi - box.lo) <= profile.domain.hi, fam
    assert checked > 1000


@pytest.mark.parametrize("floor", [catalog.SPACELIKE_FLOOR, 4e-4, 2.5e-5])
def test_spacelike_floor_holds_at_the_box_corners(monkeypatch, floor):
    """EG - F^2 >= SPACELIKE_FLOOR, to rounding, at the 4 corners of the
    sampling box of every spacelike Lorentzian default setting, at the floor
    and with the floor moved: each box that keeps the floor reads it when
    built.  Corners are samples, not a proof over the whole box."""
    monkeypatch.setattr(catalog, "SPACELIKE_FLOOR", floor)
    checked = 0
    for fam in all_default_settings():
        built = _assemble(fam)
        surface, (box_u, box_v) = built.surface, built.domain.sampling_box()
        space = surface.space
        if built.empty_reason is not None or space.signature is not Signature.LORENTZIAN:
            continue
        checked += 1
        dets = []
        for u, v in itertools.product((box_u.lo, box_u.hi), (box_v.lo, box_v.hi)):
            _, f1, f2 = surface.f.at(u, value=False)
            _, g1, g2 = surface.g.at(v, value=False)
            dets.append(curvature._curvature_kernel(surface.ttype, space.signature,
                                                    space.connection, f1, f2, g1, g2)[1])
        assert min(dets) >= floor * (1.0 - 1e-10), (fam, min(dets) / floor)
    assert checked == 16


@pytest.mark.parametrize("c", [2000.0, 4000.0])
def test_cos_box_of_a_branch_narrower_than_the_margin(c):
    # the branch |c*u| < pi/2 is narrower than 2*EDGE_MARGIN, so the box keeps
    # the middle half of the guarded branch, inside the profile's domain
    fam = make_family(FamilyId.F2_51, c=c)
    built = build(fam)
    half = 0.5 * (math.pi / 2.0 - c * catalog.SINGULARITY_GUARD) / c
    for profile, box in zip((built.surface.f, built.surface.g), built.domain.sampling_box()):
        assert profile.domain.lo < box.lo < box.hi < profile.domain.hi
        assert box.lo == pytest.approx(-half, rel=1e-12)
        assert box.hi == pytest.approx(half, rel=1e-12)
    assert verify_auto(fam, 200, 1).verdict


def test_unbranched_family_rejects_the_minus_branch():
    with pytest.raises(ParameterConstraintViolation, match=r"F2_23 has no \+- branch"):
        make_family(FamilyId.F2_23, branch="minus")
    with pytest.raises(ParameterConstraintViolation, match="F3_43"):
        SolutionFamily(FamilyId.F3_43, (), Branch.MINUS)
    assert make_family(FamilyId.F2_39, branch="minus").branch is Branch.MINUS


def test_verify_all_makes_no_profile_at_call(monkeypatch, capsys):
    # the check loop inlines the tests of `at`, and every box is closed form
    calls = []
    at = Profile.at

    def counting(self, u, value=True):
        calls.append((self.label, u))
        return at(self, u, value)

    monkeypatch.setattr(Profile, "at", counting)
    assert main(["verify", "--all", "--seed", "3"]) == 0
    assert calls == []
    # the patch is live: a direct call is counted
    _assemble(make_family(FamilyId.F3_10)).surface.f.at(0.0)
    assert len(calls) == 1


def test_verify_family_scherk():
    report = verify_auto(make_family(FamilyId.F2_51, c=1.0), 200, 7)
    assert report.mode == "full"
    assert report.max_abs_numerator <= 1e-9
    assert report.verdict


def test_verify_family_quadrature():
    report = verify_auto(
        make_family(FamilyId.F2_39, branch=Branch.PLUS, c0_hat=1.0, a_hat=2.0),
        100, 11,
    )
    assert report.mode == "full"
    assert report.max_abs_numerator <= 1e-7
    assert report.verdict


def test_verify_family_is_deterministic():
    fam = make_family(FamilyId.F3_43)
    a = verify_auto(fam, 64, 99)
    b = verify_auto(fam, 64, 99)
    assert a.mode == "full"
    assert a.max_abs_numerator == b.max_abs_numerator
    assert a.max_abs_residual == b.max_abs_residual


def test_f3_31_zero_slope_branch_solves_exactly():
    report = verify_auto(make_family(FamilyId.F3_31, c0_prime=1.0, c1_prime=0.0), 200, 5)
    assert report.mode == "residual-only"
    assert report.max_abs_residual == 0.0


def test_f3_31_printed_constant_branch_is_not_minimal():
    # the stated alternative root c1'^2 - c0'^2 - 2 = 0 yields a spacelike
    # plane whose residual is 2*c1', not zero; the verifier exposes it
    fam = make_family(FamilyId.F3_31, c0_prime=1.0, c1_prime=math.sqrt(3.0))
    built = build(fam)  # spacelike: g'^2 - f'^2 - 1 = 1
    report = verify_auto(fam, 100, 13)
    assert report.mode == "full"
    assert not report.verdict
    assert report.max_abs_residual == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


def test_perturbation_controls_every_family():
    for fam in all_default_settings():
        report = verify_auto(fam, 200, 21, perturb=0.01)
        assert report.mode == "residual-only"
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
        uf, ug, vf, vg = uv.surface.f, uv.surface.g, vu.surface.f, vu.surface.g
        for s, t in [(0.1, -0.4), (0.3, 0.8), (0.0, 0.0)]:
            assert uf.at(s) == vg.at(s) and ug.at(t) == vf.at(t)
            r_uv = residual(uv.case, uf.at(s), ug.at(t))
            r_vu = residual(vu.case, vf.at(t), vg.at(s))
            assert r_uv == pytest.approx(r_vu, abs=1e-13)
        assert [(c, "g" if w == "f" else "f") for c, w in uv.ode_checks] == list(vu.ode_checks)
        assert (uv.empty_reason is None) is (vu.empty_reason is None)
        assert (uv.domain.u, uv.domain.v) == (vu.domain.v, vu.domain.u)


def test_f3_43_negative_orientation_parameter():
    # c0_bar < 0 flips the singular side of the log-exp profile; the
    # admissible box must follow it
    fam = make_family(FamilyId.F3_43, c0_bar=-0.5, c3=2.0, c4=0.1, b=0.0)
    built = build(fam)
    v_star = 0.5 * math.log(2.0) / -0.5
    assert built.domain.v.hi == pytest.approx(v_star - 1e-3, abs=1e-12)
    report = verify_auto(fam, 150, 5)
    assert report.mode == "full"
    assert report.verdict


def test_steep_cos_branch_box_stays_in_the_domain():
    # f' = tan(400u) has its poles at |u| = pi/800 = 0.0039; the builder's box
    # keeps the edge margin from both, where |f'| = tan(pi/2 - 0.4) < SLOPE_CAP
    fam = make_family(FamilyId.F3_43, c0_bar=400.0, c3=-1.0)
    built = _assemble(fam)
    f, box = built.surface.f, built.domain.sampling_box()[0]
    assert f.domain.lo < box.lo < 0.0 < box.hi < f.domain.hi
    assert box.hi == pytest.approx(math.pi / 800.0 - catalog.EDGE_MARGIN, rel=1e-12)
    assert box.hi - box.lo > 0.004
    assert all(abs(f.at(u).d1) <= catalog.SLOPE_CAP for u in (box.lo, box.hi))
    # g = ln(e^(400v) + e^(-400v))/400 is sampled where |400v| <= 3, far from
    # |400v| > ~355, where the kernel's r*r = (1/(e^(400v) + ...))^2 underflows
    assert built.domain.v == Interval(-3.0 / 400.0, 3.0 / 400.0)
    report = verify_auto(fam, 50, 3)
    assert report.mode == "residual-only"
    assert report.verdict


def test_tiny_a_hat_radicand_crosses_the_exp_overflow():
    # e^(4v) overflows past v = 177.45, where a_hat*e^(4v) = e^(4v + ln a_hat) is
    # about e^19; the slopes then scale as e^(-2v), so dv = 0.02 gives e^(-0.04)
    g = build(make_family(FamilyId.F2_39, a_hat=1e-300)).surface.g
    below, above = g.at(177.44, value=False), g.at(177.46, value=False)
    assert above.d1 / below.d1 == pytest.approx(math.exp(-0.04), rel=1e-8)
    assert above.d2 / below.d2 == pytest.approx(math.exp(-0.04), rel=1e-8)
    # past v = 350 the product itself overflows
    with pytest.raises(DomainError, match="radicand overflows"):
        g.at(400.0, value=False)


def test_default_settings_cover_all_families():
    for fid in FamilyId:
        settings = default_settings(fid)
        assert len(settings) >= 2
        for fam in settings:
            assert fam.family_id is fid


def test_every_family_type_is_one_its_case_spans():
    for name, row in catalog._FAMILIES.items():
        assert row.ttype in pde._CASES[row.case.value].signs, name


def test_unknown_family_id():
    # a family id's value is not the id
    with pytest.raises(UnknownCase):
        make_family("F2_23")
    with pytest.raises(UnknownCase):
        default_settings("F2_23")


def test_branch_settings_present():
    branches = {fam.branch for fam in default_settings(FamilyId.F2_39)}
    assert branches == {Branch.PLUS, Branch.MINUS}
    branches = {fam.branch for fam in default_settings(FamilyId.F3_30)}
    assert branches == {Branch.PLUS, Branch.MINUS}


# Each family's parameters, in order, with their defaults: the table the
# builders' signatures replaced.
_PINNED_DEFAULTS = {
    "F2_23": [("c3", 0.0), ("a", 0.0), ("c5", 0.0)],
    "F2_24": [("c3_bar", 0.0), ("a1", 0.0), ("c6", 0.0)],
    "F2_35": [("c0_tilde", 1.0), ("a_tilde", 0.0), ("b_tilde", 0.0)],
    "F2_39": [("c0_hat", 1.0), ("a_hat", 2.0), ("b_hat", 0.0)],
    "F2_40": [("c0_prime", 1.0), ("b_prime", 0.0)],
    "F2_50": [("c0", 1.0), ("c1", 2.0), ("c2", 0.0)],
    "F2_51": [("c", 1.0), ("c3", 0.0), ("c4", 0.0), ("c5", 0.0)],
    "F3_10": [("c", 1.5), ("a", 0.0), ("b_bar", 0.0)],
    "F3_12": [("c", 0.5), ("c_tilde", -1.0), ("b_tilde", 0.0)],
    "F3_13": [("c_hat", 1.5), ("a1", 0.0), ("b_bar1", 0.0)],
    "F3_14": [("c_hat", 0.5), ("c_tilde1", -1.0), ("b_tilde", 0.0)],
    "F3_25": [("c0_tilde", 0.5), ("a_tilde", 0.0), ("b_tilde", 0.0)],
    "F3_27": [("c0_tilde", 1.5), ("c1", -1.0), ("b_bar1", 0.0)],
    "F3_30": [("c0_hat", 1.0), ("a_hat", -0.3), ("b_hat", 0.0)],
    "F3_31": [("c0_prime", 1.0), ("c1_prime", 0.0), ("b_prime", 0.0)],
    "F3_36": [("c1", 0.3), ("c2", 0.4), ("c3", 0.0)],
    "F3_38": [("c0", 1.0), ("c_hat", -1.0), ("c_hat1", -1.0), ("a", 0.0)],
    "F3_41": [("c1", 0.5), ("c2", 2.0), ("c3", 0.0)],
    "F3_43": [("c0_bar", 1.0), ("c3", 1.0), ("c4", 0.0), ("b", 0.0)],
}


def test_family_parameters_are_pinned():
    got = {fid: list(defaults.items()) for fid, defaults in catalog._DEFAULTS.items()}
    assert got == _PINNED_DEFAULTS
    assert all(type(value) is float for pairs in got.values() for _, value in pairs)
    assert catalog.BRANCHED_FAMILIES == {FamilyId.F2_39, FamilyId.F3_30}


def test_every_builder_parameter_has_a_float_default():
    # _DEFAULTS zips the positional names with the defaults, which would
    # misalign if a parameter had none
    for fid, row in catalog._FAMILIES.items():
        builder = row.builder
        code = builder.__code__
        names = code.co_varnames[:code.co_argcount]
        defaults = builder.__defaults__ or ()
        assert names and len(defaults) == len(names), fid
        assert all(type(value) is float for value in defaults), fid
        # the one keyword-only parameter is the branch sign, without a default
        keyword_only = code.co_varnames[code.co_argcount:][:code.co_kwonlyargcount]
        assert keyword_only in ((), ("sign",)) and builder.__kwdefaults__ is None, fid


def test_readme_family_table_matches_the_catalog():
    # each row of README's "Solution families" table names its family's
    # parameters in order (constraint text aside) and marks exactly the
    # branched families with "branch"
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Solution families\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `F"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[-1]
    assert list(rows) == [fid.value for fid in FamilyId]
    for fid in FamilyId:
        parts = [part.strip() for part in rows[fid.value].split(",")]
        branched = parts[-1] == "branch"
        names = [re.search(r"[A-Za-z_]\w*", part.strip("`")).group()
                 for part in (parts[:-1] if branched else parts)]
        assert names == list(catalog._DEFAULTS[fid.value]), fid
        assert branched is (fid in catalog.BRANCHED_FAMILIES), fid


def test_family_tolerances():
    assert _assemble(make_family(FamilyId.F2_39)).tolerance == 1e-6
    assert _assemble(make_family(FamilyId.F2_23)).tolerance == 1e-8


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


@pytest.mark.parametrize("check", [
    lambda n: verify_auto(make_family(FamilyId.F2_23), n, 1),
    lambda n: verify_auto(make_family(FamilyId.F3_10), n, 1),
    lambda n: equivalence_sweep(CaseId.E_M_I, n, 1),
], ids=["full", "residual-only", "equivalence"])
@pytest.mark.parametrize("n_samples", [0, -1])
def test_no_verdict_without_samples(check, n_samples):
    with pytest.raises(VerifierError, match="n_samples must be >= 1"):
        check(n_samples)


def _nan_at(fn, index, pick=lambda value: math.nan):
    """`fn` with its result passed through `pick` on call number `index`."""
    calls = itertools.count()

    def patched(*args):
        value = fn(*args)
        return pick(value) if next(calls) == index else value
    return patched


def _nan_numerator(kernel_result):
    return math.nan, kernel_result[1]  # (lc, det)


def test_worse_matches_max_and_keeps_nan():
    for a, b in ((0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (0.0, -0.0), (-0.0, 0.0),
                 (1.0, math.inf)):
        got = _worse(a, b)
        assert got == max(a, b)
        assert math.copysign(1.0, got) == math.copysign(1.0, max(a, b))
    assert math.isnan(_worse(0.0, math.nan))
    assert math.isnan(_worse(math.nan, 1.0))


def test_nan_residual_sample_fails_the_record(monkeypatch):
    # both modes of the sampling loop: full on F2_51, residual-only on the
    # never-spacelike F3_10
    for fam, mode in ((make_family(FamilyId.F2_51, c=1.0), "full"),
                      (make_family(FamilyId.F3_10), "residual-only")):
        report = verify_auto(fam, 20, 7)
        assert report.verdict and report.mode == mode
        # the check reads the case's residual from the table once per record
        case = _assemble(fam).case.value
        row = pde._CASES[case]
        with monkeypatch.context() as mp:
            mp.setitem(pde._CASES, case, row._replace(residual=_nan_at(row.residual, 5)))
            report = verify_auto(fam, 20, 7)
        assert math.isnan(report.max_abs_residual)
        assert report.verdict is False
        with monkeypatch.context() as mp:
            mp.delitem(pde._CASES, case)
            with pytest.raises(UnknownCase):
                verify_auto(fam, 20, 7)


def test_nan_numerator_sample_fails_the_record(monkeypatch):
    # the checks call the kernel by the name each module imports
    fam = make_family(FamilyId.F2_51, c=1.0)
    kernel = curvature._curvature_kernel
    monkeypatch.setattr(catalog, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    report = verify_auto(fam, 20, 7)
    assert math.isnan(report.max_abs_numerator)
    assert report.verdict is False

    monkeypatch.setattr(pde, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    assert math.isnan(equivalence_sweep(CaseId.E_NM_ALL, 20, 7).max_rel_deviation)
    monkeypatch.setattr(pde, "_curvature_kernel", _nan_at(kernel, 5, _nan_numerator))
    [record] = [_record(sweep()) for sweep in _sweeps([CaseId.E_NM_ALL], 20, 7, 1e-10)]
    assert record["verdict"] == "fail"


def test_flat_check_equals_its_per_sample_oracle():
    # same draws, same evaluations, same arithmetic: the whole report is equal
    for fam in all_default_settings():
        for perturb in (0.0, 0.01):
            for seed in (0, 2718, 2**64 - 1):
                for n_samples in (1, 7, 200):
                    assert (verify_auto(fam, n_samples, seed, perturb=perturb)
                            == reference_verify_auto(fam, n_samples, seed, perturb=perturb))


def _same(got, expected):
    """Equal floats, or both NaN."""
    return got == expected or (math.isnan(got) and math.isnan(expected))


def test_evaluators_return_plain_tuples_that_at_wraps():
    # the check loops unpack `fn(u, False)` directly: a plain (v, d1, d2)
    # tuple, equal field by field to the Jet2 that `at` builds around it, whose
    # value is NaN and whose slopes are those of `fn(u)` bit for bit
    profiles = []
    for fam in all_default_settings():
        built = _assemble(fam)
        boxes = built.domain.sampling_box()
        profiles += [(built.surface.f, boxes[0]), (built.surface.g, boxes[1])]
    # a perturbed quadrature profile passes the flag through
    built = _assemble(make_family(FamilyId.F3_12))
    assert built.surface.f.quadrature
    profiles.append((catalog.perturb_profile(built.surface.f, 0.01),
                     built.domain.sampling_box()[0]))
    assert len(profiles) == 2 * 38 + 1
    rng = SplitMix64(4242)
    for profile, box in profiles:
        for u in [rng.uniform(box.lo, box.hi) for _ in range(8)]:
            whole, slopes = profile.fn(u), profile.fn(u, False)
            for raw, jet in ((whole, profile.at(u)), (slopes, profile.at(u, value=False))):
                assert type(raw) is tuple and type(jet) is Jet2, (profile.label, u)
                v, d1, d2 = raw
                assert _same(v, jet.v) and d1 == jet.d1 and d2 == jet.d2, (profile.label, u)
            assert math.isnan(slopes[0]) and not math.isnan(whole[0]), (profile.label, u)
            assert repr(slopes[1:]) == repr(whole[1:]), (profile.label, u)


def _faulty_d1(jet):
    v, _, d2 = jet
    return (v, math.inf, d2)


def _nan_value(jet):
    _, d1, d2 = jet
    return (math.nan, d1, d2)


def _patched(profile, fault, box):
    """`profile` whose evaluator passes its sixth (v, d1, d2) tuple through
    `fault`, or where fault is None, `profile` on only the lower half of the
    box it is sampled on."""
    if fault is None:
        return profile._replace(domain=Interval(box.lo, 0.5 * (box.lo + box.hi)))
    return profile._replace(fn=_nan_at(profile.fn, 5, fault))


def _patch_assembly(monkeypatch, which, fault):
    """Make every check assemble its family with profile `which` patched."""
    assemble = catalog._assemble

    def patched(fam):
        # a fresh patched profile per assembly, so each check counts its own calls
        built = assemble(fam)
        box = built.domain.sampling_box()["fg".index(which)]
        profile = _patched(getattr(built.surface, which), fault, box)
        return built._replace(surface=built.surface._replace(**{which: profile}))

    monkeypatch.setattr(catalog, "_assemble", patched)
    monkeypatch.setattr(oracles, "_assemble", patched)


def _raised(check, *args):
    with pytest.raises(VerifierError) as info:
        check(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("family,which,fault,message", [
    # F3_12 has a quadrature f and a closed-form g, F2_39 the reverse
    (FamilyId.F3_12, "f", _faulty_d1, "non-finite jet"),
    (FamilyId.F3_12, "g", _faulty_d1, "non-finite jet"),
    (FamilyId.F2_39, "f", _faulty_d1, "non-finite jet"),
    (FamilyId.F2_39, "g", _faulty_d1, "non-finite jet"),
    (FamilyId.F3_12, "f", None, "outside domain"),
    (FamilyId.F2_39, "g", None, "outside domain"),
])
def test_flat_check_raises_as_its_oracle(monkeypatch, family, which, fault, message):
    _patch_assembly(monkeypatch, which, fault)
    fam = make_family(family)
    raised = _raised(verify_auto, fam, 20, 7)
    assert raised == _raised(reference_verify_auto, fam, 20, 7)
    assert raised[0] is DomainError and f"{family.value}.{which}: " in raised[1]
    assert message in raised[1]


@pytest.mark.parametrize("c0", [1e300, -1e300])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_a_box_too_narrow_to_fold_draws_as_its_oracle(c0, seed):
    # the u and v boxes are 1.7e-300 wide: 2**-53 folded into either width rounds
    fam = make_family(FamilyId.F3_38, c0=c0)
    raised = _raised(verify_auto, fam, 20, seed)
    assert raised == _raised(reference_verify_auto, fam, 20, seed)
    assert raised[0] is DomainError and raised[1].startswith("F3_38.f: non-finite jet at u=")


def _reference_run(fid, which, span):
    """The profile and reduced ODE of an RK4 reference run, and the ODE's h0."""
    built = build(make_family(fid))
    profile = getattr(built.surface, which)
    case = next(c for c, w in built.ode_checks if w == which)
    return profile, case, profile.at(span[0], value=False).d1


def test_flat_comparison_equals_its_per_node_oracle():
    for fid, which, span in catalog._ODE_REFERENCE_RUNS:
        profile, case, h0 = _reference_run(fid, which, span)
        for step in (1e-3, 1e-2):
            trajectory = integrate(case, h0, span, step)
            assert (compare_profile(trajectory, profile)
                    == reference_compare_profile(trajectory, profile))
    # a NaN gap sticks, as `_worse` folds it
    trajectory = Trajectory(((0.0, 0.5), (0.1, math.nan), (0.2, 0.5)))
    profile = affine_profile(2.0, 1.0)
    assert math.isnan(compare_profile(trajectory, profile))
    assert math.isnan(reference_compare_profile(trajectory, profile))


@pytest.mark.parametrize("family,which,fault,error,message", [
    # F3_12.f and F2_39.g are quadrature profiles, F2_23.f and F3_38.g closed forms
    (FamilyId.F3_12, "f", _faulty_d1, DomainError, "non-finite jet"),
    (FamilyId.F2_23, "f", _faulty_d1, DomainError, "non-finite jet"),
    (FamilyId.F2_39, "g", _faulty_d1, DomainError, "non-finite jet"),
    (FamilyId.F3_38, "g", _faulty_d1, DomainError, "non-finite jet"),
    (FamilyId.F2_23, "f", None, DomainMismatch, "outside profile domain"),
    (FamilyId.F3_43, "g", None, DomainMismatch, "outside profile domain"),
])
def test_flat_comparison_raises_as_its_oracle(family, which, fault, error, message):
    span = next(s for fid, w, s in catalog._ODE_REFERENCE_RUNS if (fid, w) == (family, which))
    profile, case, h0 = _reference_run(family, which, span)
    trajectory = integrate(case, h0, span, 1e-2)
    # a fresh patched profile per comparison, so each counts its own calls
    raised = _raised(compare_profile, trajectory, _patched(profile, fault, Interval(*span)))
    assert raised == _raised(reference_compare_profile, trajectory,
                             _patched(profile, fault, Interval(*span)))
    assert raised[0] is error and message in raised[1]


def _check_value_tested(profile, u):
    """`profile` patched with `_nan_value` passes five `at(u)` calls and fails
    the sixth, where its value turns NaN: `at` tests the value it was asked for."""
    patched = _patched(profile, _nan_value, None)
    for _ in range(5):
        patched.at(u)
    with pytest.raises(DomainError, match="non-finite jet"):
        patched.at(u)


@pytest.mark.parametrize("family,which", [(FamilyId.F2_39, "f"), (FamilyId.F3_12, "g")])
def test_flat_check_reads_no_value(monkeypatch, family, which):
    # a closed form's NaN value with finite slopes leaves the report as it was,
    # bit for bit, while `at` with the value still refuses it
    fam = make_family(family)
    built = build(fam)
    profile = getattr(built.surface, which)
    assert not profile.quadrature
    _check_value_tested(profile, built.domain.sampling_box()["fg".index(which)].lo)
    expected = repr(verify_auto(fam, 20, 7))
    _patch_assembly(monkeypatch, which, _nan_value)
    assert repr(verify_auto(fam, 20, 7)) == repr(reference_verify_auto(fam, 20, 7)) == expected


@pytest.mark.parametrize("family,which", [(FamilyId.F2_23, "f"), (FamilyId.F3_38, "g")])
def test_flat_comparison_reads_no_value(family, which):
    span = next(s for fid, w, s in catalog._ODE_REFERENCE_RUNS if (fid, w) == (family, which))
    profile, case, h0 = _reference_run(family, which, span)
    assert not profile.quadrature
    _check_value_tested(profile, span[0])
    trajectory = integrate(case, h0, span, 1e-2)
    expected = repr(compare_profile(trajectory, profile))
    for compare in (compare_profile, reference_compare_profile):
        # a fresh patched profile per comparison, so each counts its own calls
        assert repr(compare(trajectory, _patched(profile, _nan_value, None))) == expected


def _loaded(fn, *opnames) -> set[str]:
    return {ins.argval for ins in dis.get_instructions(fn) if ins.opname in opnames}


def test_hot_paths_skip_enum_and_method_lookups():
    """The sampling hot paths read neither enum attributes nor `uniform`: the
    equivalence sweep and the family check both draw from `words`.

    On Python 3.11 each enum attribute lookup such as `Signature.EUCLIDEAN`
    costs about 150 ns, against about 15 ns for a module global, and the
    kernel runs once per sample; a `uniform` call runs a Python frame per draw,
    where a word from `words` runs none.  The sweep's spans are constants, so
    it folds 2**-53 into them; the family check's come from the family's
    parameters, so it multiplies each word by 2**-53 first.
    """
    assert not _loaded(curvature._curvature_kernel, "LOAD_GLOBAL") & {
        "Signature", "ConnectionKind", "TranslationType"}
    for fn in (pde.equivalence_sweep, verify_auto):
        attrs = _loaded(fn, "LOAD_ATTR", "LOAD_METHOD")
        assert "words" in attrs and not attrs & {"uniform", "unit", "draws"}
