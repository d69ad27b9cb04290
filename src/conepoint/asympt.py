"""Asymptotic contribution formulas at quadratic cone points.

For a function P/Q^s whose log-composition vanishes quadratically at a
torus point Z with Lorentzian homogeneous part q, the coefficients along
interior directions r behave like

    Z^(-r) * sum c(m,l) (-1)^|m| K(s+l) d^m/dr^m [ qdual(r)^(s+l-d/2) ],
    K(a) = |M| / (2^(2a-1) pi^(d/2-1) Gamma(a) Gamma(a+1-d/2)),

where qdual is the inverse-matrix dual form, |M| = |det q|^(-1/2), and the
c(m,l) come from re-expanding the local series in falling powers of q.
With one additional smooth factor l (d=3, s=1) the leading term instead
involves the iterated residue Res2 = |det q qdual(l,l)|^(-1/2) / 2 and the angle

    theta = atan2( sqrt(qdual(r,r)) sqrt(-qdual(l,l)), qdual(r,l) )

taken in (0, pi): contribution = Z^(-r) P(Z) Res2/pi * theta inside the
elliptic cone, and Z^(-r) P(Z) Res2 on the nonconvex flange.  Smooth
(simple-pole) critical points contribute the classical Gaussian-curvature
term, the curvature taken from the bordered log-Hessian.  Everything is
summed over the discovered critical points, which handles parity
cancellation between conjugate points automatically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .polyseries import Exponent, MultiPoly, TruncatedSeries, binomials
from .oracle import QuasiRationalSpec, _as_int
from .errors import RefusalError
from .localgeo import (TOL, DegenerateError, DirectionTag, GeometryError, Matrix,
                       QuadraticPointData, _gauss_jordan, _normalizer, _point_refusal,
                       classify_direction, homogeneous_part, quadratic_point_data)
from .localgeo import log_compose_taylor  # noqa: F401  (perfbench traces it under this name)

if TYPE_CHECKING:  # loads only where the search runs, never for `oracle`
    from .critpoints import CriticalPoint


class GammaPoleError(ValueError):
    """The power s hits a pole of the explicit constant."""


def gamma_strict(x: float) -> float:
    xf = float(x)
    if abs(xf - round(xf)) < 1e-9 and round(xf) <= 0:
        raise GammaPoleError(f"gamma pole at {x}")
    return math.gamma(xf)


def cone_constant(s, d: int, absdet) -> float:
    """|M| / (2^(2s-1) pi^(d/2-1) Gamma(s) Gamma(s+1-d/2)).

    The d=3, s=1 case reduces to |M|/(2 pi) by the Gamma identities; that
    reduction is applied exactly and asserted against the general formula
    at import time.
    """
    sf = float(s)
    g1 = gamma_strict(sf)
    g2 = gamma_strict(sf + 1.0 - d / 2.0)
    if d == 3 and sf == 1.0:
        return float(absdet) / (2.0 * math.pi)
    return float(absdet) / (2.0 ** (2.0 * sf - 1.0) * math.pi ** (d / 2.0 - 1.0) * g1 * g2)


# the simplified d=3, s=1 constant must agree with the general expression
assert abs(2.0 ** 1 * math.pi ** 0.5 * gamma_strict(1.0) * gamma_strict(0.5)
           - 2.0 * math.pi) < 1e-13 * 2.0 * math.pi


def z_power_neg(Z: Sequence, r: Sequence[int]):
    """Z^(-r), exact for rational Z and integer r."""
    out = Fraction(1)
    for z, e in zip(Z, r):
        e = int(e)
        if isinstance(z, (int, Fraction)):
            out = out * (Fraction(z) ** (-e))
        else:
            out = complex(out) * complex(z) ** (-e)
    if isinstance(out, complex) and abs(out.imag) < 1e-14 * (1 + abs(out)):
        out = out.real
    return out


# -- local series expansion table ------------------------------------------------


def expansion_coefficients(p_series: TruncatedSeries, q_series: TruncatedSeries, s,
                           N: int) -> Dict[Tuple[Tuple[int, ...], int], object]:
    """Coefficients c(m,l), keyed by (m, l), of the falling-power re-expansion
    p * q^(-s) = sum c(m,l) y^m qtilde(y)^(-s-l), by binomial re-expansion of the
    remainder of q.  c(m,l) vanishes unless |m| >= 3l; the mapping is complete
    for all |m| - 2l < N."""
    Rq = q_series - TruncatedSeries.from_poly(homogeneous_part(q_series), q_series.order)
    entries: Dict[Tuple[Tuple[int, ...], int], object] = {}
    # truncated products are exact within their order, so entries beyond the
    # available local order are simply absent rather than wrong
    rq_pow = TruncatedSeries.const(p_series.arity, 1, p_series.order)
    c_q = binomials(-s, N)
    for ell in range(0, N):
        if ell > 0:
            rq_pow = rq_pow * Rq
            if rq_pow.is_zero():
                break
        for m, c in (rq_pow * p_series).terms.items():
            if sum(m) - 2 * ell < N:
                entries[(m, ell)] = c_q[ell] * c
    return entries


# -- derivatives of dual-form powers ----------------------------------------------

Terms = Dict[Exponent, object]  # a polynomial as a plain coefficient dict


def _derivative_terms(dual_matrix: Matrix, alpha, m: Exponent,
                      memo: Dict[Exponent, Dict[int, Terms]]) -> Dict[int, Terms]:
    """Polynomials P_j with d^m/dr^m [ qdual(r,r)^alpha ] = sum_j P_j(r) qdual(r,r)^(alpha-j).

    d^m is the r_i-derivative of d^(m - e_i), i the last nonzero coordinate of m, by the
    exact product rule.  memo holds what is built for this dual_matrix and alpha and
    gains each result; its dicts are not to be changed.  Nothing here depends on r.
    """
    if m in memo or not any(m):
        return memo.setdefault(m, {0: {m: Fraction(1)}})
    i = max(k for k, e in enumerate(m) if e)
    grad = [(k, 2 * q) for k, q in enumerate(dual_matrix[i]) if q != 0]
    out: Dict[int, Terms] = {}
    for off, poly in _derivative_terms(dual_matrix, alpha, m[:i] + (m[i] - 1,) + m[i + 1:],
                                       memo).items():
        same, up = out.setdefault(off, {}), out.setdefault(off + 1, {})
        scaled = [(k, g * (alpha - off)) for k, g in grad]
        for mono, c in poly.items():
            if mono[i]:
                key = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
                same[key] = same.get(key, 0) + c * mono[i]
            for k, g in scaled:
                key = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
                up[key] = up.get(key, 0) + c * g
    memo[m] = {off: poly for off, poly in out.items() if poly}
    return memo[m]


def _power_sum(terms: Dict[int, MultiPoly], alpha, r: Sequence, qval) -> float:
    """sum_j P_j(r) qval^(alpha-j), qval = qdual(r,r).  Each P_j(r), and a rational
    qval to an integer power, is exact over the rationals and rounds once."""
    total = 0.0
    for off, poly in terms.items():
        expo, pv = alpha - off, poly.eval(list(r))
        if pv == 0:
            continue
        if qval == 0 and expo < 0:
            raise DegenerateError("dual form vanishes at r with a negative power")
        if isinstance(expo, Fraction) and expo.denominator == 1 and isinstance(qval, Fraction):
            total += float(pv) * float(qval ** int(expo))
        elif float(qval) < 0:
            raise DegenerateError("dual form negative where a fractional power is needed")
        else:
            total += float(pv) * float(qval) ** float(expo)
    return total


# -- the quadratic-point series ----------------------------------------------------

# One order l of the series at a bare quadratic point: (K(s+l), alpha = s + l - d/2,
# {j: R_(l,j)}), R_(l,j) = sum_m c(m,l) (-1)^|m| P_(m,j) for d^m/dr^m qdual^alpha
SeriesOrder = Tuple[float, object, Dict[int, MultiPoly]]


def _series_terms(data: QuadraticPointData, N: int) -> Tuple[SeriesOrder, ...]:
    """The direction-free part of the first N orders of the series.  The terms
    of one order share K(s+l) and alpha, so each order keeps K(s+l) and one
    polynomial per power offset j."""
    d, s = data.arity, Fraction(data.s) if not isinstance(data.s, float) else data.s
    orders: Dict[int, Tuple[Dict[int, Terms], dict]] = {}  # l: (R_(l,j) terms, memo)
    for (m, ell), c in expansion_coefficients(data.p_series, data.q_series, data.s,
                                              N).items():
        sums, memo = orders.setdefault(ell, ({}, {}))
        c = -c if sum(m) % 2 else c
        for j, poly in _derivative_terms(data.dual_matrix, s + ell - Fraction(d, 2), m,
                                         memo).items():
            acc = sums.setdefault(j, {})
            for mono, v in poly.items():
                acc[mono] = acc.get(mono, 0) + c * v
    return tuple((cone_constant(s + ell, d, data.normalizer_absdet), s + ell - Fraction(d, 2),
                  {j: MultiPoly(d, sums[j]) for j in sorted(sums)})
                 for ell, (sums, _) in orders.items())


def quadratic_asymptotics(data: QuadraticPointData, series: Sequence[SeriesOrder],
                          r: Sequence[int]):
    """Contribution of a bare quadratic point (no linear factors) at a direction r
    inside its elliptic cone, from the series orders that prepare builds:
    Z^(-r) sum_l K(s+l) sum_j R_(l,j)(r) qdual(r,r)^(alpha_l - j)."""
    zr, qval = z_power_neg(data.point_Z, r), data.dual_eval(r, r)
    return sum((zr * K * _power_sum(polys, alpha, r, qval) for K, alpha, polys in series), 0.0)


# -- double residue & the cone-plane formula ----------------------------------------


def oriented_double_residue(data: QuadraticPointData):
    """Res2 = |det q * q*(ell, ell)|^(-1/2) / 2: the positive value of the
    iterated residue on either line where q and the linear factor ell both
    vanish.  Exact when the product is a rational square.

    Let a, a' span the two null lines of q in ell^perp, with a'^T q a = 1,
    and let b = q^-1 ell.  The Gram matrix of (a, a', b) under q is
    [[0,1,0],[1,0,0],[0,0,q*(ell,ell)]], so det[a,b,a']^2 = -q*(ell,ell)/det q.
    2 q a x ell is orthogonal to q a and to ell, as a is, so it is c a, and the
    residue at a is 1/c.  Dotting with q a' gives c = 2 det[qa, qb, qa'] =
    2 det q det[a,b,a'], so c^2 = -4 det q q*(ell,ell).  The lines are real
    and distinct exactly when that product is negative.
    """
    product = _gauss_jordan(data.q_matrix)[1] * data.qll
    if not float(product) < 0:
        raise GeometryError("intersection lines are not real and distinct")
    return _normalizer(product) / 2


def cone_plane_asymptotics(data: QuadraticPointData, r: Sequence[int], tag: DirectionTag):
    """Leading contribution of a cone-plane point (d = 3, the quadratic and its one
    smooth factor to the first power, its numerator nonzero there) at a direction
    r that classify_direction tags InteriorEllipticCone (the arctangent) or
    InteriorE (the flange)."""
    value = z_power_neg(data.point_Z, r) * data.numerator_value * float(data.residue)
    if tag is DirectionTag.InteriorE:
        return value
    theta = math.atan2(math.sqrt(float(data.dual_eval(r, r))) * math.sqrt(-float(data.qll)),
                       float(data.dual_eval(r, data.linear_factors[0][0])))
    return value / math.pi * theta


# -- smooth (simple-pole) contributions ----------------------------------------------


def smooth_asymptotics(P: MultiPoly, H: MultiPoly, cp: CriticalPoint,
                       r: Sequence[int], cone_direction_u: Optional[Sequence] = None):
    """Leading smooth-point contribution via the log-variety curvature.

    The defining factor is sign-normalized to be positive on the
    convergence side (probed along cone_direction_u).  With g and hess the
    log-gradient and log-Hessian of H at Z, and |g| the principal root of
    the bilinear g.g, the curvature is the bordered-Hessian determinant

        det II = (-1/|g|)^(d-1) (-det[[hess, g], [g^T, 0]]) / |g|^2,

    the determinant of the second fundamental form in any tangent frame
    orthonormal for the bilinear form, and its principal root enters the
    formula.  Honest only up to phase at non-real points.
    """
    d = H.arity
    Z = cp.Z
    grad = [H.diff(i) for i in range(d)]
    g = [complex(Z[i]) * complex(grad[i].eval(Z)) for i in range(d)]
    hess = [[complex(Z[i]) * complex(Z[j]) * complex(grad[i].diff(j).eval(Z))
             + (g[i] if i == j else 0) for j in range(d)] for i in range(d)]
    if (cone_direction_u is not None
            and sum(a * complex(x) for a, x in zip(g, cone_direction_u)).real < 0):
        g = [-x for x in g]
        hess = [[-x for x in row] for row in hess]
    gnorm2 = sum(x * x for x in g)  # bilinear, not hermitian
    gnorm = cmath.sqrt(gnorm2)
    if abs(gnorm) < TOL:
        raise DegenerateError("vanishing log-gradient at the smooth point")
    try:
        bordered = _gauss_jordan([row + [x] for row, x in zip(hess, g)] + [g + [0]])[1]
    except DegenerateError:
        bordered = 0
    kappa = (-1 / gnorm) ** (d - 1) * -bordered / gnorm2
    if abs(kappa) < TOL:
        raise DegenerateError("curvature-degenerate smooth point")
    rnorm = math.sqrt(sum(float(x) ** 2 for x in r))
    zr = math.prod(complex(z) ** -int(e) for z, e in zip(Z, r))
    val = ((2.0 * math.pi * rnorm) ** ((1 - d) / 2.0) * complex(P.eval(Z))
           / (cmath.sqrt(kappa) * gnorm) * zr)
    if abs(val.imag) < 1e-12 * (1 + abs(val)):
        return val.real
    return val


# -- decay exponents -------------------------------------------------------------------


def local_degree(spec: QuasiRationalSpec, Z: Sequence):
    """Homogeneous degree of the function at the quadratic point Z (see
    QuadraticPointData.degree)."""
    return quadratic_point_data(spec, Z).degree


def decay_exponent(spec: QuasiRationalSpec, points: Sequence[Tuple[Sequence, object]]) -> float:
    """Upper-bound decay exponent: a_r = O(|Z|^-r |r|^-alpha) with
    alpha = d + max over contributing points of the local degree."""
    return float(spec.arity + max(float(deg) for _, deg in points))


# -- totals ------------------------------------------------------------------------------


class PointContribution(NamedTuple):
    Z: Tuple[object, ...]
    formula: str
    direction_class: str
    value: object


class AsymptoticEstimate(NamedTuple):
    direction: Tuple[int, ...]
    value: object
    decay_exponent: float
    per_point: Tuple[PointContribution, ...]
    formula_tag: str
    notes: Tuple[str, ...] = ()


class PreparedPoint(NamedTuple):
    """What total_asymptotics needs at one point, whatever the direction."""

    data: QuadraticPointData
    series: Optional[Tuple[SeriesOrder, ...]]  # bare quadratic points (k = 0) only


def _given_or_found(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]],
                    seed: int) -> Sequence[Sequence]:
    """points when given; otherwise the singular points of every factor on
    the unit torus, discovered numerically."""
    if points is not None:
        if not points:
            raise RefusalError('the spec gives an empty point list: list its points, or '
                               'leave "points" out to have them found')
        return points
    from .critpoints import find_singular_points
    x = [0.0] * spec.arity
    points = [p.Z for poly, _ in spec.factors
              for p in find_singular_points(poly, x, seed=seed).points]
    if not points:
        raise RefusalError("no quadratic points found on the torus", {"x": x})
    return points


def point_data(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]] = None, *,
               order: int = 8, seed: int = 0) -> Tuple[QuadraticPointData, ...]:
    """The local data at each point, to the given local order: what classify
    reports.  points are taken as prepare takes them.  A point whose linear
    factor lies inside the closed dual cone (q*(ell, ell) >= 0 within TOL) is
    refused by name: no direction has a formula there."""
    local = tuple(quadratic_point_data(spec, Z, order=order)
                  for Z in _given_or_found(spec, points, seed))
    for data in local:
        if data.k and float(data.qll) >= -TOL * sum(float(x) * float(x)
                                                    for x in data.linear_factors[0][0]):
            raise _point_refusal(data.point_Z, "has a linear factor inside the closed dual "
                                 "cone: the intersection lines are not real and distinct",
                                 dual_ll=str(data.qll))
    return local


def prepare(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]] = None, *,
            order_terms: int = 1, seed: int = 0) -> Tuple[PreparedPoint, ...]:
    """Do the work of total_asymptotics that does not depend on the direction.

    points may be supplied (e.g. from a preset); otherwise the singular
    points of every factor on the unit torus are discovered numerically.
    A point that no formula covers inside its cone is refused here, once,
    by name: what point_data refuses; a point with a complex coordinate, and
    every point of a spec with a complex coefficient (every polynomial of the
    spec enters every local expansion, and the formulas need real ones); a
    point with a linear factor that is not the cone-plane shape (d = 3, the
    quadratic and the linear factor each to the first power) or whose
    numerator vanishes there; a bare quadratic point whose K(s) meets a
    Gamma pole.  Each bare quadratic point keeps the first order_terms orders
    of its series, each as K(s+l) and one polynomial per power offset j, so
    a direction only evaluates them.
    Order N reads the local series to degree 3N - 3 (c(m, N-1) needs
    |m| = 3(N-1)), so points expand to that order, and never below 8.
    The result can be passed as `points` to total_asymptotics for any
    number of directions.
    """
    points = _given_or_found(spec, points, seed)
    polys = (spec.numerator, *(poly for poly, _ in spec.factors))
    complex_expansion = any(isinstance(c, complex) for p in polys for c in p.terms.values())
    for Z in points:
        if any(isinstance(z, complex) for z in Z):
            raise _point_refusal(Z, "has a complex coordinate: the formulas need a real point")
        if complex_expansion:
            raise _point_refusal(Z, "has a complex local expansion: the formulas need real "
                                    "coefficients")
    prepared = []
    for data in point_data(spec, points, order=max(8, 3 * order_terms - 3)):
        Z, d, s, series = data.point_Z, data.arity, data.s, None
        if data.k and (d, _as_int(s), data.linear_factors[0][1]) != (3, 1, 1):
            raise _point_refusal(Z, f"has the quadratic to power {s} and a linear factor to "
                                 f"power {data.linear_factors[0][1]} in {d} variables: the "
                                 "cone-plane formula needs both powers 1 in 3 variables")
        if data.k and data.numerator_value == 0:
            raise _point_refusal(Z, "has a vanishing numerator: only a decay bound is "
                                 "available", numerator_valuation=data.numerator_valuation)
        if not data.k:
            try:  # a Gamma pole of K(s + l) is one of K(s) too
                cone_constant(s, d, data.normalizer_absdet)
            except GammaPoleError as e:
                raise _point_refusal(Z, f"has the quadratic to power {s} in {d} variables: "
                                     f"the constant K(s) meets a {e}", power=str(s)) from None
            series = _series_terms(data, order_terms)
        prepared.append(PreparedPoint(data, series))
    return tuple(prepared)


# the formula each contribution names, by the point's k and the direction's tag; the
# other pairs, obstructed or indeterminate directions, have none
_FORMULAS = {(0, DirectionTag.InteriorEllipticCone): "quadratic-point-series",
             (0, DirectionTag.OutsideNormalCone): "quadratic-point-series",
             (1, DirectionTag.InteriorEllipticCone): "cone-plane-arctan",
             (1, DirectionTag.InteriorE): "cone-plane-flange",
             (1, DirectionTag.OutsideNormalCone): "outside"}


def total_asymptotics(spec: QuasiRationalSpec, r: Sequence[int],
                      points: Optional[Sequence] = None) -> AsymptoticEstimate:
    """Sum the quadratic-point contributions over the critical set.

    points are the result of prepare; raw points or None are first given
    to prepare with its defaults, which refuses any point that no formula
    covers.  Each point classifies r once, and its k and that tag pick one
    formula: inside the normal cone, the series at a bare quadratic point
    (k = 0) and the arctangent or the flange value at a cone-plane point
    (k = 1); outside it, a zero contribution.  A direction outside the
    normal cone at every point yields a zero estimate flagged as
    exponentially small; an obstructed or indeterminate direction at any
    point raises RefusalError.
    """
    r = tuple(int(e) for e in r)
    if not (points and all(isinstance(p, PreparedPoint) for p in points)):
        points = prepare(spec, points)
    contribs: List[PointContribution] = []
    total = 0
    for pt in points:
        data, (tag, margin) = pt.data, classify_direction(pt.data, r)
        if (data.k, tag) not in _FORMULAS:
            raise _point_refusal(data.point_Z, f"sees direction {r} as {tag.value}: no formula "
                                 "holds there", **{"class": tag.value, "margin": margin})
        val = 0
        if tag is not DirectionTag.OutsideNormalCone:
            val = (quadratic_asymptotics(data, pt.series, r) if data.k == 0
                   else cone_plane_asymptotics(data, r, tag))
            total = total + val
        contribs.append(PointContribution(data.point_Z, _FORMULAS[data.k, tag], tag.value, val))
    notes: Tuple[str, ...] = ()
    if all(c.direction_class == DirectionTag.OutsideNormalCone.value for c in contribs):
        notes = ("direction outside every normal cone: coefficients are exponentially small",)
        formula = "exponential-decay"
    else:
        formula = contribs[0].formula \
            if len({c.formula for c in contribs if c.value != 0}) <= 1 else "mixed"
    alpha = decay_exponent(spec, [(pt.data.point_Z, pt.data.degree) for pt in points])
    return AsymptoticEstimate(r, total, alpha, tuple(contribs), formula, notes)
