"""Ambient metric and connection tests, including the full frame tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ssmin.ambient import AmbientSpace, ConnectionKind, Signature, Vec3, ZERO, metric_inner

from oracles import BASIS, X1, X2, X3, covariant_derivative, torsion

E = Signature.EUCLIDEAN
L = Signature.LORENTZIAN
LC = ConnectionKind.LEVI_CIVITA
SSM = ConnectionKind.SEMI_SYMMETRIC_METRIC
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC

coords = st.floats(-10.0, 10.0, allow_nan=False)
vectors = st.builds(Vec3, coords, coords, coords)


def test_metric_inner_examples():
    assert metric_inner(E, X1, X1) == 1.0
    assert metric_inner(L, X3, X3) == -1.0
    assert metric_inner(L, Vec3(1, 1, 1), Vec3(1, 1, 1)) == 1.0


def test_covariant_derivative_examples():
    assert covariant_derivative(AmbientSpace(E, SSM), X1, X1, ZERO) == Vec3(0, 0, -1)
    assert covariant_derivative(AmbientSpace(L, SSM), X1, X3, ZERO) == Vec3(-1, 0, 0)
    assert covariant_derivative(AmbientSpace(E, SSNM), X3, X3, ZERO) == Vec3(0, 0, 1)
    d = Vec3(0.3, -0.7, 2.0)
    for sig in (E, L):
        assert covariant_derivative(AmbientSpace(sig, LC), X2, X1, d) == d


# The four 9-entry frame-derivative tables, keyed by (i, j) for nabla_{X_i} X_j.
_M = Vec3(0, 0, -1)

EUCLIDEAN_METRIC_TABLE = {
    (1, 1): _M, (1, 2): ZERO, (1, 3): X1,
    (2, 1): ZERO, (2, 2): _M, (2, 3): X2,
    (3, 1): ZERO, (3, 2): ZERO, (3, 3): ZERO,
}
EUCLIDEAN_NON_METRIC_TABLE = {
    (1, 1): ZERO, (1, 2): ZERO, (1, 3): X1,
    (2, 1): ZERO, (2, 2): ZERO, (2, 3): X2,
    (3, 1): ZERO, (3, 2): ZERO, (3, 3): X3,
}
LORENTZIAN_METRIC_TABLE = {
    (1, 1): _M, (1, 2): ZERO, (1, 3): -X1,
    (2, 1): ZERO, (2, 2): _M, (2, 3): -X2,
    (3, 1): ZERO, (3, 2): ZERO, (3, 3): ZERO,
}
LORENTZIAN_NON_METRIC_TABLE = {
    (1, 1): ZERO, (1, 2): ZERO, (1, 3): -X1,
    (2, 1): ZERO, (2, 2): ZERO, (2, 3): -X2,
    (3, 1): ZERO, (3, 2): ZERO, (3, 3): -X3,
}

ALL_TABLES = [
    (AmbientSpace(E, SSM), EUCLIDEAN_METRIC_TABLE),
    (AmbientSpace(E, SSNM), EUCLIDEAN_NON_METRIC_TABLE),
    (AmbientSpace(L, SSM), LORENTZIAN_METRIC_TABLE),
    (AmbientSpace(L, SSNM), LORENTZIAN_NON_METRIC_TABLE),
]


@pytest.mark.parametrize("space,table", ALL_TABLES,
                         ids=["E-metric", "E-nonmetric", "L-metric", "L-nonmetric"])
def test_frame_tables_exact(space, table):
    # tolerance zero: every entry must reproduce bit-exactly
    for (i, j), expected in table.items():
        got = covariant_derivative(space, BASIS[i - 1], BASIS[j - 1], ZERO)
        assert got == expected, f"nabla_{{X{i}}} X{j} = {got}, expected {expected}"


@given(vectors, vectors, vectors, st.sampled_from([E, L]))
def test_metric_connection_is_metric_compatible(x, w, v, sig):
    space = AmbientSpace(sig, SSM)
    corr_w = covariant_derivative(space, x, w, ZERO)
    corr_v = covariant_derivative(space, x, v, ZERO)
    lhs = metric_inner(sig, corr_w, v) + metric_inner(sig, w, corr_v)
    scale = 1.0 + abs(metric_inner(sig, w, v)) + abs(metric_inner(sig, x, x))
    assert abs(lhs) <= 1e-12 * scale


def test_non_metric_compatibility_failure_witness():
    space = AmbientSpace(E, SSNM)
    corr = covariant_derivative(space, X3, X3, ZERO)
    value = 2.0 * metric_inner(E, corr, X3)
    assert value == 2.0


def test_torsion_examples():
    assert torsion(AmbientSpace(E, SSM), X1, X3) == X1
    v = Vec3(0.4, -1.2, 0.9)
    for kind in (SSM, SSNM):
        assert torsion(AmbientSpace(E, kind), v, v) == ZERO
    assert torsion(AmbientSpace(L, LC), X1, X3) == ZERO


def test_torsion_matches_covariant_derivative_difference():
    rng = np.random.default_rng(4)
    for sig in (E, L):
        for kind in (SSM, SSNM, LC):
            space = AmbientSpace(sig, kind)
            for _ in range(50):
                x = Vec3(*rng.uniform(-2, 2, 3))
                y = Vec3(*rng.uniform(-2, 2, 3))
                direct = torsion(space, x, y)
                via_nabla = covariant_derivative(space, x, y, ZERO) - covariant_derivative(
                    space, y, x, ZERO
                )
                diff = direct - via_nabla
                assert max(abs(diff.c1), abs(diff.c2), abs(diff.c3)) <= 1e-12


@given(vectors, vectors, st.sampled_from([E, L]), st.sampled_from([SSM, SSNM]))
def test_torsion_antisymmetric(x, y, sig, kind):
    space = AmbientSpace(sig, kind)
    t_xy = torsion(space, x, y)
    t_yx = torsion(space, y, x)
    s = t_xy + t_yx
    assert max(abs(s.c1), abs(s.c2), abs(s.c3)) <= 1e-9 * (1.0 + abs(t_xy.c1) + abs(t_xy.c2) + abs(t_xy.c3))


def test_torsion_lies_in_span_of_arguments():
    rng = np.random.default_rng(11)
    for sig in (E, L):
        for kind in (SSM, SSNM):
            space = AmbientSpace(sig, kind)
            for _ in range(200):
                x = Vec3(*rng.uniform(-2, 2, 3))
                y = Vec3(*rng.uniform(-2, 2, 3))
                t = torsion(space, x, y)
                det = np.linalg.det(np.array([
                    [x.c1, x.c2, x.c3],
                    [y.c1, y.c2, y.c3],
                    [t.c1, t.c2, t.c3],
                ]))
                assert abs(det) <= 1e-12 * max(1.0, abs(det) + 100.0)
