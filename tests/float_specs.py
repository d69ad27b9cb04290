"""Float copies of specs: the oracle runs a spec whose coefficients or
powers are floats in float arithmetic."""

from conepoint.oracle import QuasiRationalSpec
from conepoint.polyseries import MultiPoly


def _floated_poly(p: MultiPoly) -> MultiPoly:
    return MultiPoly.from_terms(p.arity, [(m, float(c)) for m, c in p.terms.items()])


def floated(spec: QuasiRationalSpec) -> QuasiRationalSpec:
    """spec with every coefficient and every power rebuilt as a float."""
    return QuasiRationalSpec(spec.arity, _floated_poly(spec.numerator),
                             tuple((_floated_poly(p), float(s)) for p, s in spec.factors),
                             spec.cone_direction_u, spec.laurent_shift, spec.name)
