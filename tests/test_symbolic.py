"""Symbolic certificates of the kernel: its det against the Gram matrix of the
tangents, its lc against the paper's sigma form, and the case table's
sign * lc = residual, as identities.

The production kernel `curvature._curvature_kernel` runs on sympy symbols, with
the regularity margin replaced by -oo, which every symbolic det clears, so the
proof covers the code that runs and not a transcription of it.  det must equal
EG - F^2 of the paper's tangents for each surface type and signature;
sign * lc = residual alone cannot see det.  Each of the 12 (case, surface
type) pairs must reduce to zero exactly, which also certifies the table's
signs and its product-cleared non-metric residuals.  Each residual's degree in
each variable is pinned, as it sizes test_pde.py's exact grid.  For each of
the 18 (type, signature, connection) triples the kernel's lc must equal the
normalizer times the numerator that `oracles.sigma_kernel` builds from all
four sigma_ij with their torsion terms: that is H~ = H for the non-metric kind
and H~ = H - <X3, N> for the metric kind.
"""

import types

import pytest
import sympy

import oracles
from ssmin import curvature
from ssmin.ambient import ConnectionKind, Signature
from ssmin.pde import CaseId, _CASES
from ssmin.surface import TranslationType

_PAIRS = [(CaseId(name), ttype) for name, row in _CASES.items() for ttype in row.signs]


def _symbolic(monkeypatch):
    """Run the kernel and the sigma form on sympy symbols: a margin of -oo that
    every symbolic det clears, and sympy's sqrt for the sigma form's normalizer.
    Returns the symbols f1, f2, g1, g2."""
    for module in (curvature, oracles):
        monkeypatch.setattr(module, "DEGENERACY_MARGIN", -sympy.oo)
    monkeypatch.setattr(oracles, "math", types.SimpleNamespace(sqrt=sympy.sqrt))
    return sympy.symbols("f1 f2 g1 g2", real=True)


@pytest.mark.parametrize("sig", list(Signature), ids=lambda s: s.value)
@pytest.mark.parametrize("ttype", list(TranslationType), ids=lambda t: t.value)
def test_first_fundamental_form_is_the_gram_matrix_of_the_tangents(monkeypatch, sig, ttype):
    f1, f2, g1, g2 = _symbolic(monkeypatch)
    # the coordinate tangents (E_u, E_v) of each type, as the paper writes them
    fu, fv = {
        TranslationType.I: ((1, 0, f1), (0, 1, g1)),
        TranslationType.II: ((1, f1, 0), (0, g1, 1)),
        TranslationType.III: ((f1, 1, 0), (g1, 0, 1)),
    }[ttype]
    metric = sympy.diag(1, 1, 1 if sig is Signature.EUCLIDEAN else -1)
    gram_e, gram_f, gram_g = ((sympy.Matrix(a).T * metric * sympy.Matrix(b))[0]
                              for a, b in ((fu, fu), (fu, fv), (fv, fv)))
    for kind in ConnectionKind:
        det = curvature._curvature_kernel(ttype, sig, kind, f1, f2, g1, g2)[1]
        # every float in the code is a small integer, so nsimplify makes the
        # arithmetic exact
        gap = det - (gram_e * gram_g - gram_f ** 2)
        assert sympy.simplify(sympy.nsimplify(gap)) == 0, (kind, gap)


@pytest.mark.parametrize("case, ttype", _PAIRS, ids=lambda x: x.value)
def test_signed_normalizer_times_numerator_is_the_residual(monkeypatch, case, ttype):
    f1, f2, g1, g2 = _symbolic(monkeypatch)
    sig, kind, signs, residual = _CASES[case.value]
    lc = curvature._curvature_kernel(ttype, sig, kind, f1, f2, g1, g2)[0]
    # lc is the normalizer times the numerator; every float in the code is a
    # small integer, so nsimplify makes the arithmetic exact
    gap = sympy.nsimplify(signs[ttype] * lc - residual(f1, f2, g1, g2))
    assert sympy.simplify(gap) == 0


@pytest.mark.parametrize("case", list(CaseId), ids=lambda c: c.value)
def test_each_residual_has_the_degrees_that_size_the_exact_grid(case):
    # test_pde.py's dyadic grid takes 3 values of f', 2 of f'', 4 of g' and 2 of
    # g'': one more than each degree allows (Alon, Combinatorial Nullstellensatz,
    # Lemma 2.1).  sign * lc has the same degrees, as the identity above shows.
    f1, f2, g1, g2 = symbols = sympy.symbols("f1 f2 g1 g2", real=True)
    poly = sympy.Poly(sympy.nsimplify(_CASES[case.value].residual(*symbols)), *symbols)
    assert (poly.degree(f1), poly.degree(f2), poly.degree(g2)) == (2, 1, 1)
    assert poly.degree(g1) <= 3


@pytest.mark.parametrize("kind", list(ConnectionKind), ids=lambda k: k.value)
@pytest.mark.parametrize("sig", list(Signature), ids=lambda s: s.value)
@pytest.mark.parametrize("ttype", list(TranslationType), ids=lambda t: t.value)
def test_numerator_is_the_sigma_form_numerator(monkeypatch, ttype, sig, kind):
    # the torsion terms of sigma are tangent and cancel; only the metric kind's
    # -<X, Y> <X3, N> survives, so the two forms agree as rational functions
    f1, f2, g1, g2 = _symbolic(monkeypatch)
    lc, det = curvature._curvature_kernel(ttype, sig, kind, f1, f2, g1, g2)
    want = oracles.sigma_kernel(ttype, sig, kind, f1, f2, g1, g2)
    assert det == want[3]
    # want[4] is the normalizer and want[-1] the numerator
    assert sympy.simplify(sympy.nsimplify(lc - want[4] * want[-1])) == 0
