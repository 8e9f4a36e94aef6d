"""Symbolic certificate of the case table: lambda * numerator = residual as identities.

The production kernel `curvature._curvature_kernel` runs on sympy symbols, with
`math.sqrt` replaced by `sympy.sqrt` and the regularity check switched off, so
the proof covers the code that runs and not a transcription of it.  Each of
the 12 (case, surface type) pairs must reduce to zero exactly, which also
certifies the table's signs and its product-cleared non-metric residuals.
"""

import types

import pytest
import sympy

from ssmin import curvature
from ssmin.pde import CaseId, _CASES

_PAIRS = [(CaseId(name), ttype) for name, row in _CASES.items() for ttype in row.signs]


@pytest.mark.parametrize("case, ttype", _PAIRS, ids=lambda x: x.value)
def test_signed_normalizer_times_numerator_is_the_residual(monkeypatch, case, ttype):
    monkeypatch.setattr(curvature, "math", types.SimpleNamespace(sqrt=sympy.sqrt))
    monkeypatch.setattr(curvature, "_require_regular", lambda *args: None)
    f1, f2, g1, g2 = sympy.symbols("f1 f2 g1 g2", real=True)
    sig, kind, signs, residual = _CASES[case.value]
    k = curvature._curvature_kernel(ttype, sig, kind, f1, f2, g1, g2)
    # k[4] is the normalizer and k[-1] the numerator; every float in the code is
    # a small integer, so nsimplify makes the arithmetic exact
    gap = sympy.nsimplify(signs[ttype] * k[4] * k[-1] - residual(f1, f2, g1, g2))
    assert sympy.simplify(gap) == 0
