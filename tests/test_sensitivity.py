"""Detection floors: how small an error each family check and RK4 run still sees.

A floor is the smallest eps on the ladder 1e-1 ... 1e-12 at which a check
fails, or raises, with its input perturbed by eps.  A family setting's f is
perturbed by eps*u^2 (`--perturb`), and the setting is checked as `verify --all
--seed 42` checks it: 200 samples on child stream i of seed 42.  An RK4
reference run's phi is scaled by 1 + eps, and the run is made as
`ode-compare` makes it, at step 1e-3.  A change to a check may lower a floor,
not raise one.
"""

from functools import partial

from ssmin.catalog import FamilyId, all_default_settings, ode_reference_tasks, verify_auto
from ssmin.errors import VerifierError
from ssmin.ode import OdeCase
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


# Each RK4 reference run's floor, in `ode_reference_tasks` order.
RK4_FLOORS = (1e-6, 1e-6, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5)

_RHS = OdeCase.rhs


def _perturbed_check(fam, seed: int, eps: float):
    return verify_auto(fam, 200, seed, perturb=eps)


def _scaled_run(monkeypatch, index: int, eps: float):
    """RK4 reference run `index` with each reduced ODE's phi scaled by 1 + eps."""
    def rhs(case):
        phi = _RHS(case)
        return lambda h: phi(h) * (1.0 + eps)
    monkeypatch.setattr(OdeCase, "rhs", rhs)
    return ode_reference_tasks()[index]()


def _fails(check) -> bool:
    try:
        return not check().verdict
    except VerifierError:
        return True


def _floor(check_at) -> float:
    """The smallest eps on the ladder at which the check `check_at(eps)` fails;
    inf if it fails at none."""
    return min((eps for eps in LADDER if _fails(partial(check_at, eps))),
               default=float("inf"))


def test_no_family_check_floor_rises():
    assert list(FLOORS) == [fid.value for fid in FamilyId]
    pinned = [pin for pins in FLOORS.values() for pin in pins]
    assert set(pinned) <= set(LADDER)
    risen = [(fam.family_id.value, i % 2, floor, pin)
             for i, (fam, pin) in enumerate(zip(all_default_settings(), pinned, strict=True))
             if (floor := _floor(partial(_perturbed_check, fam, child_seed(42, i)))) > pin]
    assert risen == [], "(family, setting, floor, pinned floor) that rose"


def test_no_rk4_run_floor_rises(monkeypatch):
    assert set(RK4_FLOORS) <= set(LADDER)
    floors = [_floor(partial(_scaled_run, monkeypatch, index))
              for index in range(len(ode_reference_tasks()))]
    risen = [(index, floor, pin) for index, (floor, pin) in
             enumerate(zip(floors, RK4_FLOORS, strict=True)) if floor > pin]
    assert risen == [], "(run, floor, pinned floor) that rose"
