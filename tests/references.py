"""Independent evaluators that tests compare the package against.

None of these is reached by a command; each is a second, simpler route to
something the package computes another way:

* the presets' closed-form asymptotics, written directly from their
  constants and sharing no code with the formula engine;
* `naive_series`, the series by truncated binomial powers, against the
  graded recurrences;
* `double_residue`, the iterated residue from the gradients on one zero
  line, against the closed form `oriented_double_residue`;
* `dual_power_derivative`, one derivative of a dual-form power, against
  the grouped series of `prepare`;
* `mat_inverse`, the exact inverse, against the dual matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from conepoint.asympt import _derivative_terms, _power_sum
from conepoint.localgeo import (DegenerateError, GeometryError, Matrix, _bilinear,
                                _gauss_jordan)
from conepoint.oracle import QuasiRationalSpec
from conepoint.polyseries import MultiPoly, TruncatedSeries

# -- closed-form asymptotics of the presets --------------------------------------------


def aztec_reference(r: Sequence[int]):
    """Closed-form northgoing-probability limit: zero at even total index,
    else arctan(sqrt(t^2-2i^2-2j^2)/(t-2j))/pi on the interior."""
    i, j, t = (int(x) for x in r)
    if (i + j + t) % 2 == 0:
        return 0.0
    q = t * t - 2 * i * i - 2 * j * j
    if q <= 0:
        return None
    return math.atan2(math.sqrt(q), t - 2 * j) / math.pi


def grove_dual(r: Sequence) -> float:
    """2(ab+ac+bc) - (a^2+b^2+c^2): the dual form shared by the cube grove, the
    graph-polynomial family and the superballot core."""
    a, b, c = (float(x) for x in r)
    return 2 * (a * b + a * c + b * c) - (a * a + b * b + c * c)


def grove_reference(r: Sequence[int]):
    q = grove_dual(r)
    if q <= 0:
        return None
    a, b, c = (float(x) for x in r)
    return math.atan2(math.sqrt(q), a + b - c) / math.pi


def fls_reference_factory(beta):
    bf = float(beta)
    const = 4.0 ** (1.0 - bf) / (math.sqrt(math.pi) * math.gamma(bf) * math.gamma(bf - 0.5))

    def ref(r: Sequence[int]):
        q = grove_dual(r)
        if q <= 0:
            return None
        return const * q ** (bf - 1.5)

    return ref


def superballot_core_reference(r: Sequence[int]):
    q = grove_dual(r)
    if q <= 0:
        return None
    return (2.0 / math.pi) * q ** -0.5


# the closed form of each preset that has one, at the preset's default parameters
REFERENCE_FORMULAS = {"aztec": aztec_reference, "cube_grove": grove_reference,
                      "fls": fls_reference_factory(Fraction(3, 4)),
                      "superballot-core": superballot_core_reference}


# -- the series by binomial powers -------------------------------------------------------


def naive_series(spec: QuasiRationalSpec, order: int) -> TruncatedSeries:
    """Independent slow path: truncated-series inversion via binomial powers.

    Only valid for orthant-supported specs; used to cross-check the graded
    recurrences term by term.
    """
    total = TruncatedSeries.from_poly(spec.numerator, order)
    for poly, power in spec.factors:
        s = -Fraction(power) if not isinstance(power, float) else -power
        total = total * TruncatedSeries.from_poly(poly, order).pow_real(s)
    return total


# -- local constants ------------------------------------------------------------------------

RESIDUE_TOL = 1e-12  # relative margin of the residue's zero-line and degeneracy tests


def double_residue(qtilde: MultiPoly, ell: Sequence, alpha: Sequence):
    """Iterated residue of the projective form along a common zero line.

    Of the three coordinate-pair expressions (all equal where defined,
    by the Euler relations on the zero line) the one with the largest
    denominator is used.  Exact over the rationals.
    """
    if qtilde.arity != 3:
        raise GeometryError("double residue is a 3-variable construction")
    L = MultiPoly(3, {tuple(int(i == j) for i in range(3)): Fraction(ell[j])
                      for j in range(3) if ell[j] != 0})
    qa = qtilde.eval(list(alpha))
    la = L.eval(list(alpha))
    size = max(abs(float(x)) for x in alpha)
    if (abs(complex(qa)) > RESIDUE_TOL * max(1.0, size ** 2)
            or abs(complex(la)) > RESIDUE_TOL * max(1.0, size)):
        raise GeometryError("representative point is not on the common zero line")
    A = [qtilde.diff(i).eval(list(alpha)) for i in range(3)]
    Lg = [L.diff(i).eval(list(alpha)) for i in range(3)]
    x, y, z = alpha
    cands = [
        (z, A[0] * Lg[1] - A[1] * Lg[0]),
        (x, A[1] * Lg[2] - A[2] * Lg[1]),
        (y, A[2] * Lg[0] - A[0] * Lg[2]),
    ]
    num, den = max(cands, key=lambda t: abs(complex(t[1])))
    if abs(complex(den)) <= RESIDUE_TOL * max(1.0, size):
        raise DegenerateError("all three residue denominators are degenerate")
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        return Fraction(num, 1) / Fraction(den)
    return num / den


def dual_power_derivative(dual_matrix: Matrix, alpha, m: Sequence[int], r: Sequence) -> float:
    """Value of d^m/dr^m [ qdual(r,r)^alpha ] at r."""
    a = Fraction(alpha) if not isinstance(alpha, float) else alpha
    terms = _derivative_terms(dual_matrix, a, tuple(map(int, m)), {})
    return _power_sum({j: MultiPoly(len(r), t) for j, t in terms.items()}, a, r,
                      _bilinear(dual_matrix, r, r))


def mat_inverse(M: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse (Fractions in, Fractions out)."""
    return _gauss_jordan(M)[0]
