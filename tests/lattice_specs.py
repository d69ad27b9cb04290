"""Small specs whose factors' exponents span a proper or rank-deficient
lattice, so that their series vanish off a few cosets of it: the structural
zeros that `coefficient_at` answers without a sweep."""

from fractions import Fraction

from hypothesis import strategies as st

from conepoint.oracle import QuasiRationalSpec
from conepoint.polyseries import MultiPoly

COEFF = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))

# factor terms drawn from these monomials span a proper or rank-deficient
# lattice: (grading, monomials, whether the spec is Laurent)
SUBLATTICES = [
    ((1,), [(4,), (6,)], False),                         # 2Z, after two Euclid steps
    ((1, 1), [(3, 0), (2, 1), (0, 2)], False),           # all of Z^2, after three
    ((1, 1), [(2, 0), (0, 2), (1, 1)], False),           # X^2, Y^2, XY: i + j even
    ((1, 1), [(1, 1)], False),                           # 1/(1 - XY): rank 1
    ((1, 1), [(2, 0), (0, 2)], False),                   # index 4
    ((1, 2), [(2, 0), (1, 1)], False),
    ((1, 1, 1), [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)], False),
    ((1, 1, 1), [(1, 1, 0), (0, 0, 2), (1, 1, 2)], False),
    ((0, 0, 1), [(-1, 0, 1), (0, -1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2)], True),  # aztec
    ((0, 0, 1), [(1, 1, 1), (-1, -1, 1)], True),          # rank 2
    ((0, 1), [(-1, 1), (1, 1)], True),
]


@st.composite
def sublattice_specs(draw, w, pool, laurent, integer_powers=False):
    """F = P / prod Q_j^s_j with every term of every Q_j in pool and P in
    one or two cosets of their lattice.  Fractional powers go to orthant
    specs, which the real engine runs, with a positive constant: one other
    than 1 makes the table's scale, and so its zero, a float."""
    d = len(w)
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        power = draw(st.sampled_from([1, 2] if laurent or integer_powers
                                     else [1, 2, Fraction(1, 2), Fraction(-1, 3)]))
        const = draw(st.sampled_from((1, 2, -3, Fraction(1, 2)) if power in (1, 2)
                                     else (1, 2, Fraction(1, 2))))
        terms = {(0,) * d: Fraction(const)}
        for m in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool),
                               unique=True)):
            terms[m] = draw(COEFF)
        factors.append((MultiPoly(d, terms), power))
    exps = st.tuples(*[st.integers(-1 if laurent and wi == 0 else 0, 2) for wi in w])
    numer = {m: draw(COEFF) for m in draw(st.lists(exps, min_size=1, max_size=2))}
    return QuasiRationalSpec(d, MultiPoly(d, numer), tuple(factors), tuple(-x for x in w))
