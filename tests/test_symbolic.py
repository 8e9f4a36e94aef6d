"""Symbolic certificates of the kernel: the first fundamental form, and the case
table's lambda * numerator = residual, as identities.

The production kernel `curvature._curvature_kernel` runs on sympy symbols, with
`math.sqrt` replaced by `sympy.sqrt` and the regularity margin by -oo, which
every symbolic det clears, so the proof covers the code that runs and not a
transcription of it.  E, F, G
and det must equal the Gram entries of the paper's tangents for each surface
type and signature; lambda * numerator alone cannot see det.  Each of the 12
(case, surface type) pairs must reduce to zero exactly, which also certifies
the table's signs and its product-cleared non-metric residuals.
"""

import types

import pytest
import sympy

from ssmin import curvature
from ssmin.ambient import ConnectionKind, Signature
from ssmin.pde import CaseId, _CASES
from ssmin.surface import TranslationType

_PAIRS = [(CaseId(name), ttype) for name, row in _CASES.items() for ttype in row.signs]


@pytest.mark.parametrize("sig", list(Signature), ids=lambda s: s.value)
@pytest.mark.parametrize("ttype", list(TranslationType), ids=lambda t: t.value)
def test_first_fundamental_form_is_the_gram_matrix_of_the_tangents(monkeypatch, sig, ttype):
    monkeypatch.setattr(curvature, "math", types.SimpleNamespace(sqrt=sympy.sqrt))
    monkeypatch.setattr(curvature, "DEGENERACY_MARGIN", -sympy.oo)
    f1, f2, g1, g2 = sympy.symbols("f1 f2 g1 g2", real=True)
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
        E, F, G, det, normalizer = curvature._curvature_kernel(ttype, sig, kind,
                                                               f1, f2, g1, g2)[:5]
        # every float in the code is a small integer, so nsimplify makes the
        # arithmetic exact
        for gap in (E - gram_e, F - gram_f, G - gram_g,
                    det - (gram_e * gram_g - gram_f ** 2), normalizer ** 2 - det):
            assert sympy.simplify(sympy.nsimplify(gap)) == 0, (kind, gap)


@pytest.mark.parametrize("case, ttype", _PAIRS, ids=lambda x: x.value)
def test_signed_normalizer_times_numerator_is_the_residual(monkeypatch, case, ttype):
    monkeypatch.setattr(curvature, "math", types.SimpleNamespace(sqrt=sympy.sqrt))
    monkeypatch.setattr(curvature, "DEGENERACY_MARGIN", -sympy.oo)
    f1, f2, g1, g2 = sympy.symbols("f1 f2 g1 g2", real=True)
    sig, kind, signs, residual = _CASES[case.value]
    k = curvature._curvature_kernel(ttype, sig, kind, f1, f2, g1, g2)
    # k[4] is the normalizer and k[-1] the numerator; every float in the code is
    # a small integer, so nsimplify makes the arithmetic exact
    gap = sympy.nsimplify(signs[ttype] * k[4] * k[-1] - residual(f1, f2, g1, g2))
    assert sympy.simplify(gap) == 0
