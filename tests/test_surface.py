"""Surface frames, first fundamental form, and the Type II/III duality."""

import math
from fractions import Fraction

import pytest

from ssmin.ambient import AmbientSpace, ConnectionKind, Signature, Vec3, metric_inner
from ssmin.curvature import _curvature_kernel
from ssmin.errors import DegenerateSurface
from ssmin.jets import Jet2, affine_profile
from ssmin.sampling import SplitMix64
from ssmin.surface import (
    TranslationSurface,
    TranslationType,
    frame_from_jets,
    immersion,
)

from oracles import first_fundamental_from_jets, mean_curvature_from_jets

E = Signature.EUCLIDEAN
L = Signature.LORENTZIAN
SSM = ConnectionKind.SEMI_SYMMETRIC_METRIC
TYPES = (TranslationType.I, TranslationType.II, TranslationType.III)

ZERO_JET = Jet2(0.0, 0.0, 0.0)


def _space(sig):
    return AmbientSpace(sig, SSM)


def test_flat_plane_frame_euclidean():
    surface = TranslationSurface(TranslationType.I, affine_profile(0, 0),
                                 affine_profile(0, 0), _space(E))
    fr = frame_from_jets(surface.ttype, surface.space, surface.f.at(0.3), surface.g.at(-0.7))
    assert fr.Fu == Vec3(1, 0, 0) and fr.Fv == Vec3(0, 1, 0)
    assert fr.N == Vec3(0, 0, 1)
    assert fr.normalizer == 1.0
    height = surface.f.at(0.3).v + surface.g.at(-0.7).v
    assert immersion(surface.ttype, 0.3, -0.7, height) == (0.3, -0.7, 0.0)


@pytest.mark.parametrize("ttype,slots", [
    (TranslationType.I, "uvh"), (TranslationType.II, "uhv"), (TranslationType.III, "huv"),
])
def test_immersion_places_the_height_in_its_type_slot(ttype, slots):
    point = {"u": 0.25, "v": -1.5, "h": 3.0}
    assert immersion(ttype, point["u"], point["v"], point["h"]) == tuple(point[s] for s in slots)
    # mesh output passes whole columns of text through the same slot order
    columns = {"u": ["0.25", "0.25"], "v": ["-1.5", "2"], "h": ["3", "-4"]}
    assert (immersion(ttype, columns["u"], columns["v"], columns["h"])
            == tuple(columns[s] for s in slots))
    # the u and v steps of the placed point are the frame's tangents
    f, g = affine_profile(2.0, 0.5), affine_profile(-3.0, 1.0)

    def placed(u, v):
        return Vec3(*immersion(ttype, u, v, f.at(u).v + g.at(v).v))

    fr = frame_from_jets(ttype, _space(E), f.at(0.0), g.at(0.0))
    assert placed(1.0, 0.0) - placed(0.0, 0.0) == fr.Fu
    assert placed(0.0, 1.0) - placed(0.0, 0.0) == fr.Fv


def test_flat_plane_frame_lorentzian():
    fr = frame_from_jets(TranslationType.I, _space(L), ZERO_JET, ZERO_JET)
    assert fr.N == Vec3(0, 0, -1)
    assert fr.normalizer == 1.0


def test_type_ii_lorentzian_normalizer():
    fr = frame_from_jets(TranslationType.II, _space(L), ZERO_JET, Jet2(0, 2, 0))
    assert fr.normalizer ** 2 == pytest.approx(3.0, abs=1e-14)
    first = first_fundamental_from_jets(TranslationType.II, _space(L), ZERO_JET,
                                        Jet2(0, 2, 0))
    assert (first.E, first.F, first.G) == (1.0, 0.0, 3.0)
    assert first.det == pytest.approx(3.0, abs=1e-14)


def test_type_ii_lorentzian_null_point_rejected():
    with pytest.raises(DegenerateSurface):
        frame_from_jets(TranslationType.II, _space(L), ZERO_JET, Jet2(0, 1, 0))


def test_degeneracy_margin():
    # slightly positive but below the safety margin still raises
    g1 = math.sqrt(1.0 + 1e-12)
    with pytest.raises(DegenerateSurface):
        frame_from_jets(TranslationType.II, _space(L), ZERO_JET, Jet2(0, g1, 0))


def test_first_fundamental_examples():
    first = first_fundamental_from_jets(TranslationType.I, _space(E),
                                        Jet2(0, 1, 0), Jet2(0, 2, 0))
    assert (first.E, first.F, first.G) == (2.0, 2.0, 5.0)
    first = first_fundamental_from_jets(TranslationType.I, _space(L),
                                        Jet2(0, 0.5, 0), ZERO_JET)
    assert (first.E, first.F, first.G) == (0.75, 0.0, 1.0)
    for ttype in TYPES:
        first = first_fundamental_from_jets(ttype, _space(E), ZERO_JET, ZERO_JET)
        assert (first.E, first.F, first.G) == (1.0, 0.0, 1.0)


def _printed_first_fundamental(ttype, sig, f1, g1):
    if sig is E:
        return 1.0 + f1 * f1, f1 * g1, 1.0 + g1 * g1
    if ttype is TranslationType.I:
        return 1.0 - f1 * f1, -f1 * g1, 1.0 - g1 * g1
    return 1.0 + f1 * f1, f1 * g1, g1 * g1 - 1.0


def _sample_jets(rng, sig, ttype):
    while True:
        if sig is E:
            f1, g1 = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
            break
        if ttype is TranslationType.I:
            f1, g1 = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
            if 1.0 - f1 * f1 - g1 * g1 >= 1e-3:
                break
        else:
            f1, g1 = rng.uniform(-1.5, 1.5), rng.uniform(-2.6, 2.6)
            if g1 * g1 - f1 * f1 - 1.0 >= 1e-3:
                break
    return Jet2(rng.uniform(-1, 1), f1, rng.uniform(-3, 3)), Jet2(
        rng.uniform(-1, 1), g1, rng.uniform(-3, 3))


def test_frame_matches_printed_formulas_and_normal_invariants():
    rng = SplitMix64(2024)
    for i in range(1000):
        sig = E if i % 2 == 0 else L
        ttype = TYPES[i % 3]
        fj, gj = _sample_jets(rng, sig, ttype)
        space = _space(sig)
        first = first_fundamental_from_jets(ttype, space, fj, gj)
        pe, pf, pg = _printed_first_fundamental(ttype, sig, fj.d1, gj.d1)
        assert abs(first.E - pe) <= 1e-12
        assert abs(first.F - pf) <= 1e-12
        assert abs(first.G - pg) <= 1e-12

        fr = frame_from_jets(ttype, space, fj, gj)
        assert abs(metric_inner(sig, fr.N, fr.Fu)) <= 1e-12
        assert abs(metric_inner(sig, fr.N, fr.Fv)) <= 1e-12
        unit = metric_inner(sig, fr.N, fr.N)
        assert abs(unit - (1.0 if sig is E else -1.0)) <= 1e-12
        assert fr.dFu_dv == fr.dFv_du


def _swap12(v: Vec3) -> Vec3:
    return Vec3(v.c2, v.c1, v.c3)


def test_type_ii_iii_duality():
    # swapping the first two ambient coordinates maps Type II frames to
    # Type III frames; E, F, G agree, and the fixed printed orientations make
    # the normals (hence the second fundamental forms) opposite.
    rng = SplitMix64(77)
    for i in range(300):
        sig = E if i % 2 == 0 else L
        fj, gj = _sample_jets(rng, sig, TranslationType.II)
        space = _space(sig)
        fr2 = frame_from_jets(TranslationType.II, space, fj, gj)
        fr3 = frame_from_jets(TranslationType.III, space, fj, gj)
        assert _swap12(fr2.Fu) == fr3.Fu
        assert _swap12(fr2.Fv) == fr3.Fv
        assert _swap12(fr2.N) == -fr3.N
        f2 = first_fundamental_from_jets(TranslationType.II, space, fj, gj)
        f3 = first_fundamental_from_jets(TranslationType.III, space, fj, gj)
        assert (f2.E, f2.F, f2.G) == (f3.E, f3.F, f3.G)
        for kind in ConnectionKind:
            s2 = mean_curvature_from_jets(TranslationType.II, space, kind, fj, gj).sigma
            s3 = mean_curvature_from_jets(TranslationType.III, space, kind, fj, gj).sigma
            assert abs(s2.s11 + s3.s11) <= 1e-12
            assert abs(s2.s12 + s3.s12) <= 1e-12
            assert abs(s2.s21 + s3.s21) <= 1e-12
            assert abs(s2.s22 + s3.s22) <= 1e-12


def test_nan_determinant_is_degenerate():
    # A NaN slope gives a NaN EG - F^2, which compares False with any margin; f'^2
    # overflows at f' = 1e200, so EG - F^2 = 1 + (inf + inf) = inf, which is no
    # determinant either.
    space = _space(E)
    for slope, det, text in ((math.nan, "nan", "nan"), (1e200, "inf", r"1e\+200")):
        jet = Jet2(0.0, slope, 0.0)
        with pytest.raises(DegenerateSurface,
                           match=rf"degenerate: EG - F\^2 = {det} at f'={text}"):
            frame_from_jets(TranslationType.I, space, jet, jet)
        with pytest.raises(DegenerateSurface):
            first_fundamental_from_jets(TranslationType.I, space, jet, jet)
        with pytest.raises(DegenerateSurface, match=rf"EG - F\^2 = {det} "):
            mean_curvature_from_jets(TranslationType.I, space, SSM, jet, jet)


@pytest.mark.parametrize("ttype,sig,f1,g1", [
    (TranslationType.II, L, 3000.0, 3000.0001672136445),
    (TranslationType.III, L, -3000.0, 3000.0001672136445),
    (TranslationType.I, L, 0.6, 0.7999999),
    (TranslationType.I, E, 1e7, -1e7),
])
def test_det_does_not_cancel_at_large_slopes(ttype, sig, f1, g1):
    # the exact EG - F^2 is 1 + e (f'^2 + g'^2) for Type I and g'^2 + e (1 + f'^2)
    # otherwise; E*G - F*F lost all of it at the first setting (it read -0.015625)
    e = 1 if sig is E else -1
    f, g = Fraction(f1), Fraction(g1)
    exact = 1 + e * (f * f + g * g) if ttype is TranslationType.I else g * g + e * (1 + f * f)
    space = _space(sig)
    first = first_fundamental_from_jets(ttype, space, Jet2(0.0, f1, 0.0), Jet2(0.0, g1, 0.0))
    assert abs(Fraction(first.det) - exact) <= 1e-15 * abs(f * f + g * g + 1)
    assert _curvature_kernel(ttype, sig, SSM, f1, 0.0, g1, 0.0)[3] == first.det
