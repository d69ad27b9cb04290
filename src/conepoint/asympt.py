"""Asymptotic contribution formulas at quadratic cone points.

For a function P/Q^s whose log-composition vanishes quadratically at a
torus point Z with Lorentzian homogeneous part q, the coefficients along
interior directions r behave like

    Z^(-r) * sum c(m,l) (-1)^|m| K(s+l) d^m/dr^m [ qdual(r)^(s+l-d/2) ],
    K(a) = |M| / (2^(2a-1) pi^(d/2-1) Gamma(a) Gamma(a+1-d/2)),

where qdual is the inverse-matrix dual form, |M| = |det q|^(-1/2), and the
c(m,l) come from re-expanding the local series in falling powers of q.
Where s or s+1-d/2 is a nonpositive integer, K(s) = 0 (1/Gamma is entire) and
every order vanishes inside the cone: a lacuna.
With one additional smooth factor l (d=3, s=1) the leading term instead
involves the iterated residue Res2 = |det q qdual(l,l)|^(-1/2) / 2 and the angle

    theta = atan2( sqrt(qdual(r,r)) sqrt(-qdual(l,l)), qdual(r,l) )

taken in (0, pi): contribution = Z^(-r) P(Z) Res2/pi * theta inside the
elliptic cone, and Z^(-r) P(Z) Res2 on the nonconvex flange.  Smooth
(simple-pole) critical points contribute the classical Gaussian-curvature
term, the curvature taken from the bordered log-Hessian.  Everything is
summed over the critical points, which are real: a parity pattern such as
aztec's comes from the real points +-(1,1,1) summed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .polyseries import Exponent, MultiPoly, TruncatedSeries, binomials
from .spec import QuasiRationalSpec, _as_int
from .errors import RefusalError
from .localgeo import (TOL, DegenerateError, DirectionTag, Matrix, QuadraticPointData,
                       _gauss_jordan, _point_refusal, classify_direction, homogeneous_part,
                       quadratic_point_data)
from .localgeo import log_compose_taylor  # noqa: F401  (perfbench traces it under this name)

if TYPE_CHECKING:  # loads only where the search runs, never for `oracle`
    from .critpoints import CriticalPoint


def cone_constant(s, d: int, absdet) -> float:
    """|M| / (2^(2s-1) pi^(d/2-1) Gamma(s) Gamma(s+1-d/2)).

    1/Gamma is entire: the constant is 0 where s or s+1-d/2 is within 1e-9 of a
    nonpositive integer.  At d=3, s=1 it reduces to |M|/(2 pi).
    """
    sf = float(s)
    if any(abs(x - round(x)) < 1e-9 and round(x) <= 0 for x in (sf, sf + 1.0 - d / 2.0)):
        return 0.0
    if d == 3 and sf == 1.0:
        return float(absdet) / (2.0 * math.pi)
    return float(absdet) / (2.0 ** (2.0 * sf - 1.0) * math.pi ** (d / 2.0 - 1.0)
                            * math.gamma(sf) * math.gamma(sf + 1.0 - d / 2.0))


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
    """sum_j P_j(r) qval^(alpha-j), qval = qdual(r,r) > 0.  Each P_j(r), and a
    rational qval to an integer power, is exact over the rationals and rounds once."""
    total = 0.0
    for off, poly in terms.items():
        expo, pv = alpha - off, poly.eval(list(r))
        if pv == 0:
            continue
        if isinstance(expo, Fraction) and expo.denominator == 1 and isinstance(qval, Fraction):
            total += float(pv) * float(qval ** int(expo))
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


# -- the cone-plane formula ----------------------------------------------------------


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
    series: Optional[Tuple[SeriesOrder, ...]]  # None if k = 1 or K(s) = 0 (a lacuna)


def point_data(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]] = None, *,
               order: int = 8, seed: int = 0) -> Tuple[QuadraticPointData, ...]:
    """The local data at each point, to the given local order: what classify
    reports.  points may be supplied (e.g. from a preset); otherwise the
    singular points of every factor on the unit torus are discovered
    numerically, and a factor whose singular points there are not isolated
    is refused.  What quadratic_point_data refuses, a complex point or
    coefficient included, is refused here, and so is a point whose linear
    factor lies inside the closed dual cone: no direction has a formula there."""
    if points is None:
        from .critpoints import find_singular_points
        x, points = [0.0] * spec.arity, []
        for i, (poly, _) in enumerate(spec.factors):
            report = find_singular_points(poly, x, seed=seed)
            if report.family_detected:
                raise RefusalError(
                    f"factors[{i}] has singular points on the torus that are not isolated: "
                    "the contour formulas need isolated quadratic points",
                    {"factor": i, "n_converged": report.n_converged,
                     "cluster_diameter": report.cluster_diameter})
            points += [p.Z for p in report.points]
        if not points:
            raise RefusalError("no quadratic points found on the torus", {"x": x})
    elif not points:
        raise RefusalError('the spec gives an empty point list: list its points, or '
                           'leave "points" out to have them found')
    local = tuple(quadratic_point_data(spec, Z, order=order) for Z in points)
    for data in local:
        if data.k and data.linear_in_dual_cone:
            raise _point_refusal(data.point_Z, "has a linear factor inside the closed dual "
                                 "cone: the intersection lines are not real and distinct",
                                 dual_ll=str(data.qll))
    return local


def prepare(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]] = None, *,
            order_terms: int = 1, seed: int = 0) -> Tuple[PreparedPoint, ...]:
    """Do the work of total_asymptotics that does not depend on the direction.

    points are taken as point_data takes them.  A point that no formula
    covers inside its cone is refused here, once, by name: what point_data
    refuses, a complex point or coefficient included; a point with a linear
    factor that is not the cone-plane shape (d = 3, the quadratic and the
    linear factor each to the first power) or whose numerator vanishes
    there; a bare quadratic point whose numerator vanishes beyond the local
    order.  A bare quadratic point whose K(s) is 0, a lacuna, keeps no
    series: every order is 0.  Every other one keeps the
    first order_terms orders of its series (v + 1 if more, since a numerator
    vanishing to degree v empties the first v), each as K(s+l) and one
    polynomial per power offset j, so a direction only evaluates them.
    Order N reads the local series to degree 3N - 3 (c(m, N-1) needs
    |m| = 3(N-1)), so points expand to that order, and never below 8.
    The result can be passed as `points` to total_asymptotics for any
    number of directions.
    """
    prepared, order = [], max(8, 3 * order_terms - 3)
    for data in point_data(spec, points, order=order, seed=seed):
        Z, d, s, series = data.point_Z, data.arity, data.s, None
        if data.k and (d, _as_int(s), data.linear_factors[0][1]) != (3, 1, 1):
            raise _point_refusal(Z, f"has the quadratic to power {s} and a linear factor to "
                                 f"power {data.linear_factors[0][1]} in {d} variables: the "
                                 "cone-plane formula needs both powers 1 in 3 variables")
        if data.k and data.numerator_value == 0:
            raise _point_refusal(Z, "has a vanishing numerator: only a decay bound is "
                                 "available", numerator_valuation=data.numerator_valuation)
        if not data.k and cone_constant(s, d, data.normalizer_absdet):
            if data.numerator_valuation > order:
                raise _point_refusal(Z, f"has a numerator that vanishes beyond the local order "
                                     f"{order}: its leading term is not known", order=order)
            series = _series_terms(data, max(order_terms, data.numerator_valuation + 1))
        prepared.append(PreparedPoint(data, series))
    return tuple(prepared)


# the formula each contribution names, by the point's k and the direction's tag; the
# other pairs, obstructed or indeterminate directions, have none
_FORMULAS = {(0, DirectionTag.InteriorEllipticCone): "quadratic-point-series",
             (0, DirectionTag.OutsideNormalCone): "outside",
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
    (k = 0), a zero `lacuna` contribution at a bare point that prepare left
    without a series, and the arctangent or the flange value at a cone-plane
    point (k = 1); outside it, a zero `outside` contribution.  The estimate
    names the formula of the contributions that predict, or `mixed` if they
    differ; with none, it is a zero estimate flagged as a lacuna if a point
    has one, and as exponentially small otherwise.  An obstructed or
    indeterminate direction at any point raises RefusalError.
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
        val, formula = 0, _FORMULAS[data.k, tag]
        if formula == "quadratic-point-series" and pt.series is None:
            formula = "lacuna"
        elif formula != "outside":
            val = (quadratic_asymptotics(data, pt.series, r) if data.k == 0
                   else cone_plane_asymptotics(data, r, tag))
            total = total + val
        contribs.append(PointContribution(data.point_Z, formula, tag.value, val))
    predicted = {c.formula for c in contribs} - {"outside", "lacuna"}
    notes: Tuple[str, ...] = ()
    if predicted:
        formula = predicted.pop() if len(predicted) == 1 else "mixed"
    elif any(c.formula == "lacuna" for c in contribs):
        notes = ("direction inside a lacuna: coefficients are smaller than every power "
                 "of |r| times |Z^-r|",)
        formula = "lacuna"
    else:
        notes = ("direction outside every normal cone: coefficients are exponentially small",)
        formula = "exponential-decay"
    alpha = decay_exponent(spec, [(pt.data.point_Z, pt.data.degree) for pt in points])
    return AsymptoticEstimate(r, total, alpha, tuple(contribs), formula, notes)
