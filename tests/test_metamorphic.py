"""Metamorphic tests: the asymptotics are covariant under the torus action.

Scaling the variables, x_i -> lam_i x_i, turns F into F(lam x), whose
coefficients are a'_r = lam^r a_r and whose singular points are Z / lam.
The local geometry at Z / lam is the geometry at Z, so the oracle must
transform exactly and every estimate must be lam^r times the unscaled one.
"""

import math
from fractions import Fraction

import pytest

from conepoint.asympt import prepare, total_asymptotics
from conepoint.oracle import QuasiRationalSpec, expand
from conepoint.polyseries import MultiPoly
from conepoint.presets import preset

LAM = (Fraction(2), Fraction(1, 3), Fraction(3, 2))

# two directions inside a normal cone of each preset (aztec: odd index sums,
# where its two points do not cancel)
DIRECTIONS = {
    "fls": [(10, 10, 10), (9, 10, 11)],
    "superballot-core": [(10, 20, 30), (12, 11, 10)],
    "cube_grove": [(3, 4, 5), (5, 6, 8)],
    "aztec": [(2, 3, 22), (-1, 3, 23)],
}


def lam_power(r):
    return math.prod(lam ** e for lam, e in zip(LAM, r))


def scaled_poly(p: MultiPoly) -> MultiPoly:
    """p(lam x): each term c x^m becomes c lam^m x^m."""
    return MultiPoly(p.arity, {m: c * lam_power(m) for m, c in p.terms.items()})


def scaled_spec(spec: QuasiRationalSpec) -> QuasiRationalSpec:
    return QuasiRationalSpec(spec.arity, scaled_poly(spec.numerator),
                             tuple((scaled_poly(p), s) for p, s in spec.factors),
                             spec.cone_direction_u, spec.laurent_shift, spec.name)


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_oracle_transforms_exactly(name):
    spec = preset(name).spec
    table, moved = expand(spec, 6), expand(scaled_spec(spec), 6)
    assert moved.scale == table.scale
    values, moved_values = table.values, moved.values
    assert moved_values.keys() == values.keys() and len(values) > 20
    for r, v in values.items():
        assert moved_values[r] == lam_power(r) * v, r


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_estimates_transform_by_lam_to_the_r(name):
    pr = preset(name)
    moved_spec = scaled_spec(pr.spec)
    moved_points = [tuple(Fraction(z) / lam for z, lam in zip(Z, LAM)) for Z in pr.known_points]
    for terms in (1, 2, 3):
        points = prepare(pr.spec, pr.known_points, order_terms=terms)
        moved = prepare(moved_spec, moved_points, order_terms=terms)
        for r in DIRECTIONS[name]:
            est = total_asymptotics(pr.spec, r, points=points)
            got = total_asymptotics(moved_spec, r, points=moved)
            want = float(lam_power(r)) * est.value
            assert est.value != 0 and abs(got.value - want) <= 1e-12 * abs(want), (terms, r)
            assert got.formula_tag == est.formula_tag
            assert [c.direction_class for c in got.per_point] == \
                [c.direction_class for c in est.per_point]
            assert [c.Z for c in got.per_point] == moved_points
