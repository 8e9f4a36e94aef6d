"""Detection floors: how small an error each family check still sees.

A setting's floor is the smallest eps on the ladder 1e-1 ... 1e-12 at which its
check fails, or raises, with f perturbed by eps*u^2 (`--perturb`).  Each setting
is checked as `verify --all --seed 42` checks it: 200 samples on child stream i
of seed 42.  A change to the family checks may lower a floor, not raise one.
"""

from ssmin.catalog import FamilyId, all_default_settings, verify_auto
from ssmin.errors import VerifierError
from ssmin.sampling import child_seed

LADDER = [10.0 ** -k for k in range(1, 13)]

# Each family's floors, for its two default settings in `default_settings` order.
FLOORS = {
    "F2_23": (1e-9, 1e-10), "F2_24": (1e-10, 1e-11), "F2_35": (1e-10, 1e-10),
    "F2_39": (1e-8, 1e-8), "F2_40": (1e-8, 1e-8), "F2_50": (1e-8, 1e-8),
    "F2_51": (1e-11, 1e-11), "F3_10": (1e-10, 1e-10), "F3_12": (1e-7, 1e-7),
    "F3_13": (1e-11, 1e-12), "F3_14": (1e-7, 1e-6), "F3_25": (1e-9, 1e-9),
    "F3_27": (1e-7, 1e-7), "F3_30": (1e-9, 1e-8), "F3_31": (1e-8, 1e-8),
    "F3_36": (1e-8, 1e-8), "F3_38": (1e-8, 1e-8), "F3_41": (1e-8, 1e-8),
    "F3_43": (1e-12, 1e-12),
}


def _fails(fam, seed: int, eps: float) -> bool:
    try:
        return not verify_auto(fam, 200, seed, perturb=eps).verdict
    except VerifierError:
        return True


def _floor(fam, seed: int) -> float:
    """The smallest eps on the ladder that the check sees; inf if it sees none."""
    return min((eps for eps in LADDER if _fails(fam, seed, eps)), default=float("inf"))


def test_no_family_check_floor_rises():
    assert list(FLOORS) == [fid.value for fid in FamilyId]
    pinned = [pin for pins in FLOORS.values() for pin in pins]
    assert set(pinned) <= set(LADDER)
    risen = [(fam.family_id.value, i % 2, floor, pin)
             for i, (fam, pin) in enumerate(zip(all_default_settings(), pinned, strict=True))
             if (floor := _floor(fam, child_seed(42, i))) > pin]
    assert risen == [], "(family, setting, floor, pinned floor) that rose"
