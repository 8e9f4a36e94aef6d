"""RK4 integration of the reduced equations and cross-checks against closed forms."""

import math

import pytest

from ssmin.catalog import (
    SHORTEST_ODE_STEP,
    FamilyId,
    all_default_settings,
    build,
    make_family,
    ode_reference_tasks,
)
from ssmin.errors import (BlowUp, DomainMismatch, IllConditionedFit, InvalidStep,
                          ParameterConstraintViolation, UnknownCase)
from ssmin.jets import Interval, affine_profile
from ssmin.ode import (MAX_RK4_STEPS, OdeCase, OdeId, Trajectory, compare_profile, integrate,
                       integrate_scalar)

from oracles import ode_pointwise_max, substitution_check

TAN_CASE = OdeCase(OdeId.O2_21, 0.0)
TANH_CASE = OdeCase(OdeId.O3_37F, 1.0)


def test_integrate_tan_example():
    traj = integrate(TAN_CASE, 0.0, (0.0, 0.6), 1e-4)
    assert abs(traj.nodes[-1][1] - math.tan(1.2)) <= 1e-8
    times = [t for t, _ in traj.nodes]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))


def test_integrate_tanh_example():
    traj = integrate(TANH_CASE, 0.0, (0.0, 1.0), 1e-4)
    assert abs(traj.nodes[-1][1] - math.tanh(1.0)) <= 1e-8


@pytest.mark.parametrize("t_span,n_nodes", [
    ((0.0, 0.6), 7), ((0.3, 1.5), 13), ((0.0, 0.7), 8),  # t0 + n*0.1 rounds past t1
    ((0.3, 32.7), 325),  # and short of it, too close for a tail step
    ((0.0, 0.65), 8),  # a tail step ends at t1
])
def test_last_node_is_the_span_end(t_span, n_nodes):
    t0, t1 = t_span
    times = [t for t, _ in integrate_scalar(lambda y: 1.0, 0.0, t_span, 0.1).nodes]
    assert len(times) == n_nodes
    # every node but the last at t0 + i*step, the last at t1 itself
    assert times[:-1] == [t0 + i * 0.1 for i in range(n_nodes - 1)]
    assert times[-1] == t1


def test_equilibrium_is_constant():
    traj = integrate(TANH_CASE, 1.0, (0.0, 2.0), 1e-3)
    assert all(y == 1.0 for _, y in traj.nodes)


def test_blowup_past_the_pole():
    with pytest.raises(BlowUp) as err:
        integrate(TAN_CASE, 0.0, (0.0, 0.9), 1e-4)
    # tan(2u) blows up at u = pi/4
    assert err.value.t == pytest.approx(math.pi / 4.0, abs=1e-2)


@pytest.mark.parametrize("kind", [OdeId.O3_28, OdeId.O2_36])
@pytest.mark.parametrize("y0,t_span,t", [
    (1e5, (0.0, 1.0), 0.01),  # h ** 3 overflows in the first full step
    (1e6, (0.0, 0.005), 0.005),  # and in a tail step, the span being shorter than one step
])
def test_blowup_where_a_cube_overflows(kind, y0, t_span, t):
    # the power raises OverflowError before y can pass the threshold
    with pytest.raises(BlowUp) as err:
        integrate(OdeCase(kind, 1.0), y0, t_span, 0.01)
    assert err.value.t == t


@pytest.mark.parametrize("phi", [lambda y: y * y * y * y, lambda y: y ** 4],
                         ids=["product-to-inf", "power-overflow-error"])
def test_blowup_in_the_tail_step(phi):
    # the full step to t = 1 leaves y near 1e8; in the tail step to 1.25 the
    # product overflows to inf and the power raises OverflowError
    with pytest.raises(BlowUp) as err:
        integrate_scalar(phi, 1.0, (0.0, 1.25), 1.0)
    assert err.value.t == 1.25


@pytest.mark.parametrize("kind", [OdeId.O2_21, OdeId.O2_36, OdeId.O3_28])
def test_overflowing_denominator_violates_the_constraints(kind):
    # the denominator c ** 2 + 1 raises OverflowError at c = 1e200
    with pytest.raises(ParameterConstraintViolation, match=r"overflows at c=1e\+200$"):
        OdeCase(kind, 1e200).rhs()


def test_invalid_step():
    with pytest.raises(InvalidStep):
        integrate(TAN_CASE, 0.0, (0.0, 1.0), 0.0)
    with pytest.raises(InvalidStep):
        integrate(TAN_CASE, 0.0, (1.0, 0.0), 1e-3)
    # the width, or the number of steps in it, overflows: no step count exists
    for t_span, step in (((-1e308, 1e308), 1.0), ((0.0, 1e308), 0.5)):
        with pytest.raises(InvalidStep, match="too wide to count"):
            integrate(TAN_CASE, 0.0, t_span, step)
    # more steps than the cap: the run would keep a node a step until memory ran out
    with pytest.raises(InvalidStep, match="more than 100,000 RK4 steps"):
        integrate(OdeCase(OdeId.O3_37F, 0.0), 0.0, (0.0, 1.0), 1e-300)
    with pytest.raises(InvalidStep, match="more than 100,000 RK4 steps"):
        integrate(TANH_CASE, 0.0, (0.0, 1.0), 0.99999e-5)
    # the longest reference span at the shortest step the CLI takes runs at the cap
    assert MAX_RK4_STEPS == 100_000
    traj = integrate(TANH_CASE, 0.0, (0.3, 1.5), SHORTEST_ODE_STEP)
    assert len(traj.nodes) == MAX_RK4_STEPS + 1


def test_unknown_ode_and_vanishing_denominator():
    # an ODE id's value is not the id
    with pytest.raises(UnknownCase):
        OdeCase("O2_21", 0.0).rhs()
    for kind in (OdeId.O3_8, OdeId.O3_23):
        with pytest.raises(ParameterConstraintViolation, match=r"\^2 != 1"):
            OdeCase(kind, -1.0).rhs()


def test_substitution_check_examples():
    dev = substitution_check(OdeCase(OdeId.O2_36, 1.0), 1.0, (0.0, 0.5))
    assert dev <= 1e-6
    dev = substitution_check(OdeCase(OdeId.O3_28, 0.0), 0.5, (0.0, 1.0))
    assert dev <= 1e-6
    # a span that is not a step multiple must not corrupt the stencil
    dev = substitution_check(OdeCase(OdeId.O2_36, 1.0), 1.0, (0.0, 0.47777))
    assert dev <= 1e-6
    # equilibrium of O3_28 at h = 1 keeps W constant: the fit is meaningless
    with pytest.raises(IllConditionedFit):
        substitution_check(OdeCase(OdeId.O3_28, 0.0), 1.0, (0.0, 1.0))
    with pytest.raises(Exception):
        substitution_check(TAN_CASE, 1.0, (0.0, 1.0))


def test_compare_profile_matched_pair():
    f = build(make_family(FamilyId.F2_23, c3=0.0)).surface.f
    traj = integrate(TAN_CASE, f.at(0.0).d1, (0.0, 0.6), 1e-4)
    assert compare_profile(traj, f) <= 1e-7


def test_compare_profile_identical_is_zero():
    f = build(make_family(FamilyId.F2_23)).surface.f
    times = [0.05 * k for k in range(13)]
    traj = Trajectory(tuple((t, f.at(t).d1) for t in times))
    assert compare_profile(traj, f) == 0.0


def test_compare_profile_shifted_control():
    base = build(make_family(FamilyId.F2_23, a=0.0)).surface.f
    shifted = build(make_family(FamilyId.F2_23, a=0.1)).surface.f
    times = [0.05 * k for k in range(13)]
    traj = Trajectory(tuple((t, base.at(t).d1) for t in times))
    assert compare_profile(traj, shifted) > 1e-2


def test_compare_profile_domain_mismatch():
    profile = affine_profile(1.0, 0.0)._replace(domain=Interval(0.0, 0.5))
    traj = integrate(TANH_CASE, 0.0, (0.0, 0.7), 0.01)
    with pytest.raises(DomainMismatch):
        compare_profile(traj, profile)


@pytest.mark.parametrize("case,fid,span", [
    (TAN_CASE, FamilyId.F2_23, (0.0, 0.6)),
    (TANH_CASE, FamilyId.F3_38, (0.0, 1.0)),
], ids=["O2_21", "O3_37f"])
def test_order_four_convergence(case, fid, span):
    f = build(make_family(fid)).surface.f
    h0 = f.at(span[0]).d1
    errors = []
    for step in (0.02, 0.01, 0.005):
        traj = integrate(case, h0, span, step)
        errors.append(compare_profile(traj, f))
    # halving the step cuts the sup-norm gap at least 8x until the float floor
    assert errors[0] / errors[1] >= 8.0 or errors[1] < 1e-11
    assert errors[1] / errors[2] >= 8.0 or errors[2] < 1e-11


def test_every_catalog_profile_satisfies_its_reduced_ode():
    for fam in all_default_settings():
        assert ode_pointwise_max(fam, 200, 17) <= 1e-9, fam.family_id


def test_reference_runs_match_closed_forms():
    for run in ode_reference_tasks(step=1e-3):
        rec = run()
        assert rec.max_abs_error <= 1e-6, rec
