"""Metamorphic relations between builds of the same family.

A family check cannot tell a right builder from one that is wrong in a
consistent way; a relation between two builds of one family needs no oracle
of the true region.  Three relations are checked at both default settings:

- a height constant adds to a profile's value only, so it changes no box, no
  empty reason and no `verify_auto` field but `params`, bit for bit;
- a mirror family is its original with f and g swapped, so its u and v boxes
  are the original's v and u boxes, bit for bit;
- a phase parameter translates a log|cos| profile, so it moves both ends of
  that profile's box by one amount, to within 2 ulps, and the slope at the
  moved midpoint is the slope at the old one.

Bit for bit is checked on repr, which round-trips every float and tells -0.0
from 0.0.  (T. Y. Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Comput. Surv. 51(1), 2018.)
"""

import math

import pytest

from ssmin.catalog import FamilyId, _DEFAULTS, _assemble, default_settings, verify_auto

# family -> its height constant
_HEIGHTS = {
    "F2_23": "c5", "F2_24": "c6", "F2_35": "b_tilde", "F2_39": "b_hat", "F2_40": "b_prime",
    "F2_50": "c2", "F2_51": "c5", "F3_10": "b_bar", "F3_12": "b_tilde", "F3_13": "b_bar1",
    "F3_14": "b_tilde", "F3_25": "b_tilde", "F3_27": "b_bar1", "F3_30": "b_hat",
    "F3_31": "b_prime", "F3_36": "c3", "F3_38": "a", "F3_41": "c3", "F3_43": "b",
}
# mirror family -> the family it mirrors; their parameters correspond in order
_MIRRORS = {"F2_24": "F2_23", "F3_13": "F3_10", "F3_14": "F3_12"}
# (family, phase parameter, the axis of the log|cos| profile it translates)
_PHASES = [("F2_23", "a", "u"), ("F2_35", "a_tilde", "u"), ("F3_25", "a_tilde", "u"),
           ("F3_10", "a", "u"), ("F2_51", "c3", "u"), ("F2_51", "c4", "v"),
           ("F3_43", "c4", "u")]
_SHIFTS = (0.25, -0.7, 1.3)


def _with(fam, **params):
    return fam._replace(params=tuple({**dict(fam.params), **params}.items()))


def _axis(fam, axis):
    """The box and the profile of one axis of a family's build."""
    built = _assemble(fam)
    if axis == "u":
        return built.domain.u, built.surface.f
    return built.domain.v, built.surface.g


def test_every_family_has_its_relations_listed():
    assert set(_HEIGHTS) == {fid.value for fid in FamilyId}
    assert all(name in _DEFAULTS[fid] for fid, name in _HEIGHTS.items())
    assert all(name in _DEFAULTS[fid] for fid, name, _ in _PHASES)


@pytest.mark.parametrize("fid", list(_HEIGHTS))
def test_height_constant_changes_no_box_and_no_check_value(fid):
    name = _HEIGHTS[fid]
    for fam in default_settings(FamilyId(fid)):
        built = _assemble(fam)
        report = verify_auto(fam, 40, 5)._replace(params=None)
        for height in (-3.25, 7.5):
            moved = _with(fam, **{name: height})
            other = _assemble(moved)
            assert repr((other.domain, other.empty_reason)) == repr(
                (built.domain, built.empty_reason)), (fam, height)
            assert repr(verify_auto(moved, 40, 5)._replace(params=None)) == repr(report)


@pytest.mark.parametrize("mirror", list(_MIRRORS))
def test_mirror_family_has_its_originals_boxes_swapped(mirror):
    original = _MIRRORS[mirror]
    pairs = []  # (mirror setting, original setting) with corresponding parameter values
    for fid, other in ((mirror, original), (original, mirror)):
        for fam in default_settings(FamilyId(fid)):
            values = dict(fam.params)  # sorted by name; _DEFAULTS keeps the builder's order
            twin = _with(default_settings(FamilyId(other))[0],
                         **{b: values[a] for a, b in zip(_DEFAULTS[fid], _DEFAULTS[other])})
            pairs.append((fam, twin) if fid == mirror else (twin, fam))
    for fam, twin in pairs:
        mirrored, built = _assemble(fam).domain, _assemble(twin).domain
        assert repr((mirrored.u, mirrored.v)) == repr((built.v, built.u)), (fam, twin)


@pytest.mark.parametrize("fid, name, axis", _PHASES, ids=str)
def test_phase_translates_the_log_cos_box(fid, name, axis):
    for fam in default_settings(FamilyId(fid)):
        box, profile = _axis(fam, axis)
        for shift in _SHIFTS:
            other, moved_profile = _axis(_with(fam, **{name: dict(fam.params)[name] + shift}),
                                         axis)
            ulp = math.ulp(max(map(abs, (*box, *other))))
            lo_shift, hi_shift = other.lo - box.lo, other.hi - box.hi
            assert abs(lo_shift - hi_shift) <= 2 * ulp, (fam, shift)
            assert abs((other.hi - other.lo) - (box.hi - box.lo)) <= 2 * ulp, (fam, shift)
            # the box moved with the profile: equal slopes at corresponding midpoints
            mid = 0.5 * (box.lo + box.hi)
            assert moved_profile.at(mid + lo_shift).d1 == pytest.approx(
                profile.at(mid).d1, rel=1e-9, abs=1e-12), (fam, shift)
