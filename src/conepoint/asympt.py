"""Asymptotic contribution formulas at quadratic cone points.

For a function P/Q^s whose log-composition vanishes quadratically at a
torus point Z with Lorentzian homogeneous part q, the coefficients along
interior directions r behave like

    Z^(-r) * sum c(m,l) (-1)^|m| K(s+l) d^m/dr^m [ qdual(r)^(s+l-d/2) ],
    K(a) = |M| / (2^(2a-1) pi^(d/2-1) Gamma(a) Gamma(a+1-d/2)),

where qdual is the inverse-matrix dual form, |M| = |det q|^(-1/2), and the
c(m,l) come from re-expanding the local series in falling powers of q.
With one additional smooth factor (d=3, s=1) the leading term instead
involves an iterated residue and the angle

    theta = atan2( sqrt(qdual(r,r)) sqrt(-qdual(l,l)), qdual(r,l) )

taken in (0, pi): contribution = Z^(-r) P(Z) Res2/pi * theta inside the
elliptic cone, and Z^(-r) P(Z) Res2 on the nonconvex flange.  Smooth
(simple-pole) critical points contribute the classical Gaussian-curvature
term.  Everything is summed over the discovered critical points, which
handles parity cancellation between conjugate points automatically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .polyseries import Exponent, MultiPoly, TruncatedSeries, _rational_root, binomials
from .oracle import QuasiRationalSpec, _as_int
from .errors import RefusalError
from .localgeo import (TOL, DegenerateError, DirectionTag, GeometryError, Matrix,
                       QuadraticPointData, _bilinear, classify_direction,
                       homogeneous_part, quadratic_point_data)
from .localgeo import log_compose_taylor  # noqa: F401  (perfbench traces it under this name)

if TYPE_CHECKING:  # both load only in the functions that run them, never for `oracle`
    import numpy as np
    from .critpoints import CriticalPoint


RESIDUE_TOL = 1e-12  # relative margin of the residue's zero-line and degeneracy tests


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
    qt = homogeneous_part(q_series)
    if qt.total_degree() != 2:
        raise GeometryError("quadratic factor must vanish to order exactly 2")
    Rq = q_series - TruncatedSeries.from_poly(qt, q_series.order)
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


def dual_power_derivative(dual_matrix: Matrix, alpha, m: Sequence[int], r: Sequence) -> float:
    """Value of d^m/dr^m [ qdual(r,r)^alpha ] at r."""
    a = Fraction(alpha) if not isinstance(alpha, float) else alpha
    terms = _derivative_terms(dual_matrix, a, tuple(map(int, m)), {})
    return _power_sum({j: MultiPoly(len(r), t) for j, t in terms.items()}, a, r,
                      _bilinear(dual_matrix, r, r))


# -- the quadratic-point series ----------------------------------------------------

# One order l of the series at a bare quadratic point: (l, alpha = s + l - d/2,
# {j: R_(l,j)}), R_(l,j) = sum_m c(m,l) (-1)^|m| P_(m,j) for d^m/dr^m qdual^alpha
SeriesOrder = Tuple[int, object, Dict[int, MultiPoly]]


def _series_terms(data: QuadraticPointData, N: int) -> Tuple[SeriesOrder, ...]:
    """The direction-free part of the first N orders of the series.  The
    terms of one order share its exponent, so each order is summed into one
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
    return tuple((ell, s + ell - Fraction(d, 2), {j: MultiPoly(d, sums[j]) for j in sorted(sums)})
                 for ell, (sums, _) in orders.items())


def quadratic_asymptotics(data: QuadraticPointData, series: Sequence[SeriesOrder],
                          r: Sequence[int]):
    """Contribution of a bare quadratic point (no linear factors) at direction r,
    from the series orders that prepare builds:
    Z^(-r) sum_l K(s+l) sum_j R_(l,j)(r) qdual(r,r)^(alpha_l - j)."""
    if data.k != 0:
        raise GeometryError("quadratic-point series requires k = 0")
    cls = classify_direction(data, r)
    if cls.tag is not DirectionTag.InteriorEllipticCone:
        raise RefusalError(f"direction {tuple(r)} is {cls.tag.value}",
                           {"class": cls.tag.value, "margin": cls.margin})
    d, s, absdet = data.arity, data.s, data.normalizer_absdet
    C = cone_constant(s, d, absdet)  # a Gamma pole at s + l would be one at s too
    zr, qval = z_power_neg(data.point_Z, r), data.dual_eval(r, r)
    return sum((zr * (cone_constant(s + ell, d, absdet) if ell else C)
                * _power_sum(polys, alpha, r, qval) for ell, alpha, polys in series), 0.0)


# -- double residue & the cone-plane formula ----------------------------------------


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


def intersection_lines(data: QuadraticPointData) -> List[Tuple[object, ...]]:
    """The two projective lines where the quadratic and the plane both vanish.

    Returned as affine representative points; exact rational when the
    discriminant is a perfect square (all shipped applications).
    """
    if data.k != 1:
        raise GeometryError("intersection lines need exactly one linear factor")
    ell = data.linear_factors[0][0]
    piv = max(range(3), key=lambda i: abs(float(ell[i])))
    basis = []
    for j in range(3):
        if j == piv:
            continue
        v = [Fraction(0)] * 3
        v[j] = Fraction(ell[piv])
        v[piv] = -Fraction(ell[j])
        basis.append(tuple(v))
    v1, v2 = basis
    M = data.q_matrix
    a = _bilinear(M, v1, v1)
    b = 2 * _bilinear(M, v1, v2)
    c = _bilinear(M, v2, v2)
    # roots of a t^2 + b t + c = 0 as (lam : mu)
    if a == 0 and c == 0:
        pairs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    elif a == 0:
        pairs = [(Fraction(1), Fraction(0)), (-Fraction(c), Fraction(b))]
    else:
        disc = b * b - 4 * a * c
        if float(disc) <= 0:
            raise GeometryError("intersection lines are not real and distinct")
        root = _rational_root(disc, 2) if isinstance(disc, Fraction) else None
        root = math.sqrt(float(disc)) if root is None else root
        pairs = [((-b + root) / (2 * a) if not isinstance(root, float)
                  else (float(-b) + root) / float(2 * a), 1),
                 ((-b - root) / (2 * a) if not isinstance(root, float)
                  else (float(-b) - root) / float(2 * a), 1)]
    out = []
    for lam, mu in pairs:
        pt = tuple(lam * a1 + mu * a2 for a1, a2 in zip(v1, v2))
        scale = max(abs(float(x)) for x in pt)
        if scale == 0:
            raise DegenerateError("degenerate intersection representative")
        out.append(pt)
    return out


def oriented_double_residue(data: QuadraticPointData):
    """Res2 with the orientation fixed to the positive branch.

    The two intersection lines carry opposite residue values; the
    contribution formulas use the branch that continuity across the
    flange boundary realizes in the probability applications, which is
    the positive one.
    """
    d = data.arity
    terms = {}
    for i in range(d):
        for j in range(i, d):
            c = data.q_matrix[i][j] if i == j else 2 * data.q_matrix[i][j]
            if c != 0:
                m = [0] * d
                m[i] += 1
                m[j] += 1
                terms[tuple(m)] = Fraction(c)
    qt = MultiPoly(d, terms)
    ell = data.linear_factors[0][0]
    vals = [double_residue(qt, ell, alpha) for alpha in intersection_lines(data)]
    if len(vals) == 2 and abs(float(vals[0]) + float(vals[1])) > 1e-9 * abs(float(vals[0])):
        raise GeometryError("inconsistent residue orientation between the two lines")
    pos = [v for v in vals if float(v) > 0]
    if not pos:
        raise DegenerateError("no positive residue branch found")
    return pos[0]


def cone_plane_asymptotics(data: QuadraticPointData, r: Sequence[int]):
    """Leading contribution with one quadratic and one smooth factor (d=3, s=1)."""
    if data.arity != 3:
        raise GeometryError("cone-plane formula is three-dimensional")
    if _as_int(data.s) != 1:
        raise GeometryError("cone-plane formula needs the quadratic to first power")
    if data.k != 1 or data.linear_factors[0][1] != 1:
        raise GeometryError("cone-plane formula needs exactly one simple smooth factor")
    if data.numerator_value == 0:
        raise RefusalError("numerator vanishes at the point; only a decay bound is available",
                           {"numerator_valuation": data.numerator_valuation})
    ell = data.linear_factors[0][0]
    qll = data.qll
    if float(qll) >= 0:
        raise RefusalError("dual pairing of the smooth factor must be negative "
                           "(real distinct intersections)", {"dual_ll": str(qll)})
    cls = classify_direction(data, r)
    res2 = data.residue
    zr = z_power_neg(data.point_Z, r)
    pz = data.numerator_value
    if cls.tag is DirectionTag.InteriorEllipticCone:
        qrr = data.dual_eval(r, r)
        qrl = data.dual_eval(r, ell)
        theta = math.atan2(math.sqrt(float(qrr)) * math.sqrt(-float(qll)), float(qrl))
        return zr * pz * float(res2) / math.pi * theta, cls
    if cls.tag is DirectionTag.InteriorE:
        return zr * pz * float(res2), cls
    if cls.tag is DirectionTag.OutsideNormalCone:
        return 0 * zr, cls
    raise RefusalError(f"direction {tuple(r)} is {cls.tag.value}; no asymptotics on "
                       "the obstructed arc", {"class": cls.tag.value, "margin": cls.margin})


# -- smooth (simple-pole) contributions ----------------------------------------------


def smooth_asymptotics(P: MultiPoly, H: MultiPoly, cp: CriticalPoint,
                       r: Sequence[int], cone_direction_u: Optional[Sequence] = None):
    """Leading smooth-point contribution via the log-variety curvature.

    The defining factor is sign-normalized to be positive on the
    convergence side (probed along cone_direction_u); the curvature is the
    determinant of the second fundamental form of the log-variety in a
    tangent frame, with principal square roots.  Honest only up to phase
    at non-real points.
    """
    import numpy as np
    d = H.arity
    Z = cp.Z
    z = [cmath.log(complex(v)) for v in Z]
    g = np.array([complex(Z[i]) * complex(H.diff(i).eval(Z)) for i in range(d)])
    hess = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            v = complex(Z[i]) * complex(Z[j]) * complex(H.diff(i).diff(j).eval(Z))
            if i == j:
                v += g[i]
            hess[i][j] = v
    if cone_direction_u is not None:
        side = complex(np.dot(g, np.array([complex(x) for x in cone_direction_u])))
        if side.real < 0:
            g = -g
            hess = -hess
    gnorm2 = complex(np.dot(g, g))  # bilinear, not hermitian
    gnorm = cmath.sqrt(gnorm2)
    if abs(gnorm) < TOL:
        raise DegenerateError("vanishing log-gradient at the smooth point")
    frame = _bilinear_tangent_frame(g)
    II = np.empty((d - 1, d - 1), dtype=complex)
    for a in range(d - 1):
        for b in range(d - 1):
            II[a][b] = -np.dot(frame[a], hess @ frame[b]) / gnorm
    eig = np.linalg.eigvals(II)
    kappa = np.prod(eig)
    if abs(kappa) < TOL:
        raise DegenerateError("curvature-degenerate smooth point")
    sqrt_kappa = np.prod([cmath.sqrt(e) for e in eig])
    rnorm = math.sqrt(sum(float(x) ** 2 for x in r))
    pval = complex(P.eval(Z))
    zr = complex(np.prod([complex(Z[i]) ** (-int(r[i])) for i in range(d)]))
    val = complex((2.0 * math.pi * rnorm) ** ((1 - d) / 2.0) * pval / (sqrt_kappa * gnorm) * zr)
    if abs(val.imag) < 1e-12 * (1 + abs(val)):
        return val.real
    return val


def _bilinear_tangent_frame(g: np.ndarray) -> List[np.ndarray]:
    """Vectors spanning {v : g.v = 0}, orthonormal for the bilinear form."""
    import numpy as np
    d = len(g)
    _, _, vh = np.linalg.svd(g.reshape(1, d))
    cand = [vh[i].conj() for i in range(1, d)]
    frame: List[np.ndarray] = []
    for v in cand:
        v = v - (v @ g) / (g @ g) * g
        for w in frame:
            v = v - (v @ w) * w
        n2 = complex(v @ v)
        if abs(n2) < 1e-12:
            raise DegenerateError("isotropic tangent frame; curvature needs a regular frame")
        frame.append(v / cmath.sqrt(n2))
    return frame


# -- decay exponents -------------------------------------------------------------------


def local_degree(spec: QuasiRationalSpec, Z: Sequence):
    """Homogeneous degree of the function at the quadratic point Z (see
    QuadraticPointData.degree)."""
    return quadratic_point_data(spec, Z).degree


def decay_exponent(spec: QuasiRationalSpec, points: Sequence[Tuple[Sequence, object]]) -> float:
    """Upper-bound decay exponent: a_r = O(|Z|^-r |r|^-alpha) with
    alpha = d + max over contributing points of the local degree."""
    if not points:
        raise ValueError("need at least one point")
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
    reports.  points are taken as prepare takes them."""
    return tuple(quadratic_point_data(spec, Z, order=order)
                 for Z in _given_or_found(spec, points, seed))


def prepare(spec: QuasiRationalSpec, points: Optional[Sequence[Sequence]] = None, *,
            order_terms: int = 1, seed: int = 0) -> Tuple[PreparedPoint, ...]:
    """Do the work of total_asymptotics that does not depend on the direction.

    points may be supplied (e.g. from a preset); otherwise the singular
    points of every factor on the unit torus are discovered numerically.
    A point with a complex coordinate is refused, since the formulas are
    written for real points.
    Each bare quadratic point keeps the first order_terms orders of its series as one
    polynomial per (order, power offset j), so a direction only evaluates them.
    Order N reads the local series to degree 3N - 3 (c(m, N-1) needs
    |m| = 3(N-1)), so points expand to that order, and never below 8.
    The result can be passed as `points` to total_asymptotics for any
    number of directions.
    """
    points = _given_or_found(spec, points, seed)
    for Z in points:
        if any(isinstance(z, complex) for z in Z):
            raise RefusalError(f"point ({', '.join(map(str, Z))}) has a complex coordinate: "
                               "the formulas need a real point", {"point": list(map(str, Z))})
    local = point_data(spec, points, order=max(8, 3 * order_terms - 3))
    return tuple(PreparedPoint(data, _series_terms(data, order_terms) if data.k == 0 else None)
                 for data in local)


def total_asymptotics(spec: QuasiRationalSpec, r: Sequence[int],
                      points: Optional[Sequence] = None) -> AsymptoticEstimate:
    """Sum the quadratic-point contributions over the critical set.

    points are the result of prepare; raw points or None are first given
    to prepare with its defaults.
    Directions outside the normal cone at every point yield a zero estimate
    flagged as exponentially small; obstructed directions raise
    RefusalError.
    """
    r = tuple(int(e) for e in r)
    if points is None or not all(isinstance(p, PreparedPoint) for p in points):
        points = prepare(spec, points)
    contribs: List[PointContribution] = []
    notes: List[str] = []
    total = 0
    any_interior = False
    for pt in points:
        data = pt.data
        if data.k == 0:
            # quadratic_asymptotics classifies r; outside the normal cone its
            # refusal means an exponentially small contribution
            try:
                val = quadratic_asymptotics(data, pt.series, r)
            except RefusalError as e:
                if e.diagnostics.get("class") != DirectionTag.OutsideNormalCone.value:
                    raise
                val, tag = 0, e.diagnostics["class"]
            else:
                tag = DirectionTag.InteriorEllipticCone.value
                any_interior = True
                total = total + val
            contribs.append(PointContribution(data.point_Z, "quadratic-point-series", tag,
                                              val))
        elif data.k == 1:
            val, cls = cone_plane_asymptotics(data, r)
            tag = ("cone-plane-arctan" if cls.tag is DirectionTag.InteriorEllipticCone
                   else "cone-plane-flange" if cls.tag is DirectionTag.InteriorE
                   else "outside")
            contribs.append(PointContribution(data.point_Z, tag, cls.tag.value, val))
            if cls.tag is not DirectionTag.OutsideNormalCone:
                any_interior = True
                total = total + val
        else:
            raise RefusalError("more than one smooth factor through a quadratic point "
                               "is unsupported", {"k": data.k})
    if not any_interior:
        notes.append("direction outside every normal cone: coefficients are "
                     "exponentially small")
        tag = "exponential-decay"
    else:
        tag = contribs[0].formula if len({c.formula for c in contribs if c.value != 0}) <= 1 \
            else "mixed"
    alpha = (decay_exponent(spec, [(pt.data.point_Z, pt.data.degree) for pt in points])
             if points else float(spec.arity))
    if isinstance(total, complex) and abs(total.imag) < 1e-12 * (1 + abs(total)):
        total = total.real
    return AsymptoticEstimate(r, total, alpha, tuple(contribs), tag, tuple(notes))
