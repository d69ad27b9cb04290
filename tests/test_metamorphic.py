"""Metamorphic tests: the asymptotics are covariant under the torus action
and under permutations of the variables.

Scaling the variables, x_i -> lam_i x_i, turns F into F(lam x), whose
coefficients are a'_r = lam^r a_r and whose singular points are Z / lam.
The local geometry at Z / lam is the geometry at Z, so the oracle must
transform exactly and every estimate must be lam^r times the unscaled one.
Permuting the variables permutes indices, points and directions alike.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conepoint.asympt import prepare, total_asymptotics
from conepoint.localgeo import classify_direction
from conepoint.oracle import QuasiRationalSpec, expand
from conepoint.polyseries import MultiPoly
from conepoint.presets import preset
from float_specs import floated

LAM = (Fraction(2), Fraction(1, 3), Fraction(3, 2))

# two directions inside a normal cone of each preset (aztec: odd index sums,
# where its two points do not cancel)
DIRECTIONS = {
    "fls": [(10, 10, 10), (9, 10, 11)],
    "superballot-core": [(10, 20, 30), (12, 11, 10)],
    "cube_grove": [(3, 4, 5), (5, 6, 8)],
    "aztec": [(2, 3, 22), (-1, 3, 23)],
}


def lam_power(r, lam=LAM):
    return math.prod(x ** e for x, e in zip(lam, r))


def permuted(v, perm):
    return tuple(v[p] for p in perm)


def transformed(spec: QuasiRationalSpec, lam=LAM, perm=(0, 1, 2)) -> QuasiRationalSpec:
    """F(lam x) with the variables then permuted: new variable i is old
    variable perm[i], and each term c x^m becomes c lam^m x^m."""
    def move(p: MultiPoly) -> MultiPoly:
        return MultiPoly(p.arity, {permuted(m, perm): c * lam_power(m, lam)
                                   for m, c in p.terms.items()})

    return QuasiRationalSpec(spec.arity, move(spec.numerator),
                             tuple((move(p), s) for p, s in spec.factors),
                             permuted(spec.cone_direction_u, perm),
                             permuted(spec.laurent_shift, perm), spec.name)


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_oracle_transforms_exactly(name):
    spec = preset(name).spec
    table, moved = expand(spec, 6), expand(transformed(spec), 6)
    assert moved.scale == table.scale
    values, moved_values = table.values, moved.values
    assert moved_values.keys() == values.keys() and len(values) > 20
    for r, v in values.items():
        assert moved_values[r] == lam_power(r) * v, r


@pytest.mark.parametrize("name", sorted(DIRECTIONS))
def test_estimates_transform_by_lam_to_the_r(name):
    pr = preset(name)
    moved_spec = transformed(pr.spec)
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


# Drawn changes: rational lam_i of either sign and a permutation of the
# variables; the directions and points permute with the variables.
LAMBDAS = st.builds(Fraction, st.sampled_from([n for n in range(-5, 6) if n]), st.integers(1, 5))
DRAWN = settings(max_examples=6, deadline=None, database=None, derandomize=True)
# --terms orders checked: the series has orders beyond 1 only at bare quadratic points
PRESET_TERMS = {"fls": (1, 2, 3), "superballot-core": (1, 2, 3), "cube_grove": (1,), "aztec": (1,)}


@functools.lru_cache(maxsize=None)
def base_table(name):
    return expand(preset(name).spec, 6).values


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("name", sorted(DIRECTIONS))
@DRAWN
@given(lam=st.tuples(LAMBDAS, LAMBDAS, LAMBDAS), perm=st.permutations(range(3)))
def test_scaled_and_permuted_presets_transform(name, floats, lam, perm):
    pr = preset(name)
    spec = transformed(pr.spec, lam, perm)
    if floats:
        spec = floated(spec)
    # the oracle: a'_(perm r) = lam^r a_r
    moved = expand(spec, 6).values
    assert len(moved) == len(base_table(name))
    for r, v in base_table(name).items():
        want = lam_power(r, lam) * v
        got = moved[permuted(r, perm)]
        assert got == want if not floats else abs(got - want) <= 1e-12 * abs(want), r
    points = [permuted(tuple(Fraction(z) / x for z, x in zip(Z, lam)), perm)
              for Z in pr.known_points]
    base_spec = floated(pr.spec) if floats else pr.spec
    for terms in PRESET_TERMS[name]:
        base = prepare(base_spec, pr.known_points, order_terms=terms)
        here = prepare(spec, points, order_terms=terms)
        for r in DIRECTIONS[name]:
            r2 = permuted(r, perm)
            assert [classify_direction(p.data, r2).tag for p in here] == \
                [classify_direction(p.data, r).tag for p in base]
            est = total_asymptotics(base_spec, r, points=base)
            got = total_asymptotics(spec, r2, points=here)
            want = float(lam_power(r, lam)) * est.value
            assert est.value != 0 and abs(got.value - want) <= 1e-12 * abs(want), (terms, r)
            assert got.formula_tag == est.formula_tag
            assert [c.direction_class for c in got.per_point] == \
                [c.direction_class for c in est.per_point]
            assert [c.Z for c in got.per_point] == points
