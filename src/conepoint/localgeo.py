"""Local geometry at a candidate singular point.

Given a quasirational function and a point Z on the appropriate torus,
this module extracts the local data driving the asymptotic formulas: the
homogeneous part of each log-composed factor, the Lorentzian quadratic and
its dual form, the normalizing constant |M| = |det q|^(-1/2), the linear
factor covectors, and the classification of a query direction r against
the normal-cone geometry (elliptic cone interior, the nonconvex flange
reachable through the linear factor, the obstructed boundary arc, or
outside).

The dual form convention is strictly "matrix inverse of the quadratic's
matrix".  All computations stay in exact rational arithmetic whenever the
point and coefficients are rational, the test that the quadratic is
nonsingular and Lorentzian included: it counts signs by Sylvester's inertia.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import List, NamedTuple, Sequence, Tuple

from .polyseries import (MultiPoly, Record, TruncatedSeries, _rational_root, is_exact,
                         log_compose_taylor)
from .spec import QuasiRationalSpec, SpecError, _as_int
from .errors import RefusalError


TOL = 1e-9  # relative margin of the decisions here and of smooth-point degeneracy


class GeometryError(ValueError):
    """Raised when local data violates the quadratic-point requirements."""


class DegenerateError(GeometryError):
    pass


class SignatureError(GeometryError):
    pass


# -- series probes -----------------------------------------------------------


def vanishing_degree(s: TruncatedSeries) -> int:
    """Minimal total degree with a nonzero coefficient."""
    if s.is_zero():
        raise DegenerateError("series vanishes identically to its order")
    return min(sum(m) for m in s.terms)


def size_at(poly: MultiPoly, Z: Sequence) -> float:
    """sum |c_m Z^m|: a float polynomial's value at Z within TOL of this is
    rounding, and counts as zero."""
    return sum(abs(c) * math.prod(abs(complex(z)) ** e for z, e in zip(Z, m))
               for m, c in poly.terms.items())


def homogeneous_part(s: TruncatedSeries) -> MultiPoly:
    """All minimal-total-degree terms, as a homogeneous polynomial."""
    return s.homogeneous_component(vanishing_degree(s))


# -- small exact matrix helpers ----------------------------------------------

Matrix = Tuple[Tuple[object, ...], ...]


def _gauss_jordan(M: Matrix) -> Tuple[Matrix, object]:
    """Inverse and determinant of M from one Gauss-Jordan elimination (exact
    for Fractions, else in floats or complex numbers); the determinant is the
    signed product of the pivots."""
    n = len(M)
    exact = all(isinstance(x, (int, Fraction)) for row in M for x in row)
    A = [[Fraction(x) if exact else x if isinstance(x, complex) else float(x) for x in row] + [
        (Fraction(1) if exact else 1.0) if i == j else (Fraction(0) if exact else 0.0)
        for j in range(n)] for i, row in enumerate(M)]
    det = Fraction(1) if exact else 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise DegenerateError("singular quadratic form")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        pivval = A[col][col]
        det = det * pivval
        A[col] = [x / pivval for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return tuple(tuple(row[n:]) for row in A), det


# -- quadratic classification -------------------------------------------------


def classify_quadratic(h: MultiPoly, u: Sequence) -> Tuple[Matrix, bool]:
    """Symmetric matrix of a real homogeneous quadratic, sign-fixed so q(u) > 0.

    The form must be nonsingular (DegenerateError) and Lorentzian
    (SignatureError): one positive and d-1 negative eigenvalues.
    """
    d = h.arity
    if h.is_zero() or any(sum(m) != 2 for m in h.terms):
        raise GeometryError("expected a homogeneous quadratic")
    M = [[Fraction(0) if is_exact(h) else 0.0] * d for _ in range(d)]
    for m, c in h.terms.items():
        idx = [i for i in range(d) for _ in range(m[i])]
        i, j = idx[0], idx[1]
        if i == j:
            M[i][i] = c
        else:
            half = c / 2 if not isinstance(c, Fraction) else c / Fraction(2)
            M[i][j] = M[j][i] = half
    M = tuple(tuple(row) for row in M)
    qu = _bilinear(M, u, u)
    flipped = False
    if qu < 0:
        M = tuple(tuple(-x for x in row) for row in M)
        flipped = True
    elif qu == 0:
        raise GeometryError("reference direction lies on the quadratic's null cone")
    pos, neg, zero = _inertia(M)
    if zero:
        raise DegenerateError("quadratic form is singular")
    if pos != 1:
        raise SignatureError(f"signature ({pos},{neg}) is not Lorentzian")
    return M, flipped


def _inertia(M: Matrix) -> Tuple[int, int, int]:
    """(positive, negative, zero): the signs of a real symmetric matrix's
    eigenvalues, which congruence keeps (Sylvester's law of inertia).  Each
    step pivots on the largest diagonal entry and eliminates its row and
    column; when every diagonal entry left is 0, adding row and column j to
    row and column i makes a_ii = 2 a_ij.  Exact on rationals; in floats an
    entry within 1e-12 of M's largest counts as zero."""
    exact = all(isinstance(x, (int, Fraction)) for row in M for x in row)
    a = [[Fraction(x) if exact else float(x) for x in row] for row in M]
    tol = 0 if exact else 1e-12 * max(abs(x) for row in a for x in row)
    pos = neg = 0
    for n in range(len(M), 0, -1):
        p = max(range(n), key=lambda i: abs(a[i][i]))
        if abs(a[p][p]) <= tol:
            p, j = max(((i, j) for i in range(n) for j in range(i)),
                       key=lambda ij: abs(a[ij[0]][ij[1]]), default=(0, 0))
            if abs(a[p][j]) <= tol:
                break
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        piv = a[p][p]
        pos, neg = pos + (piv > 0), neg + (piv < 0)
        rest = [i for i in range(n) if i != p]
        a = [[a[r][c] - a[r][p] * a[p][c] / piv for c in rest] for r in rest]
    return pos, neg, len(M) - pos - neg


def dual_quadratic(q_matrix: Matrix) -> Matrix:
    """Matrix of the dual quadratic form: the inverse matrix."""
    return _gauss_jordan(q_matrix)[0]


def normalizer_absdet(q_matrix: Matrix):
    """|det q|^(-1/2); exact when 1/|det| is a perfect rational square."""
    return _normalizer(_gauss_jordan(q_matrix)[1])


def _normalizer(det):
    if not isinstance(det, Fraction):
        return 1.0 / math.sqrt(abs(det))
    x = 1 / abs(det)
    root = _rational_root(x, 2)
    return root if root is not None else math.sqrt(float(x))


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
    and distinct exactly when that product is negative.  det q > 0 for a
    Lorentzian q in 3 variables, so that is when ell lies outside the closed
    dual cone, which linear_in_dual_cone decides within TOL.
    """
    if data.linear_in_dual_cone:
        raise GeometryError("intersection lines are not real and distinct")
    return _normalizer(_gauss_jordan(data.q_matrix)[1] * data.qll) / 2


def _bilinear(M: Matrix, a: Sequence, b: Sequence):
    return sum(a[i] * sum(M[i][j] * b[j] for j in range(len(b))) for i in range(len(a)))


def _integral(v: Sequence):
    """v as a list of ints when every entry is an int or an integral Fraction,
    else None."""
    out = []
    for x in v:
        if type(x) is int:
            out.append(x)
        elif type(x) is Fraction and x.denominator == 1:
            out.append(x.numerator)
        else:
            return None
    return out


# -- point data ----------------------------------------------------------------


class DirectionTag(Enum):
    InteriorEllipticCone = "InteriorEllipticCone"
    InteriorE = "InteriorE"
    ObstructedBoundary = "ObstructedBoundary"
    OutsideNormalCone = "OutsideNormalCone"
    Indeterminate = "Indeterminate"


class DirectionClass(NamedTuple):
    tag: DirectionTag
    margin: float  # signed proxy distance used for tolerance decisions


class QuadraticPointData(Record):
    """Everything local to one quadratic singular point."""

    _fields = ("arity", "point_Z", "s", "q_matrix", "dual_matrix", "normalizer_absdet",
               "numerator_value", "linear_factors", "cone_direction_u", "sign_flipped",
               "p_series", "q_series", "numerator_valuation")

    def __init__(self, arity: int, point_Z: Tuple[object, ...], s, q_matrix: Matrix,
                 dual_matrix: Matrix, normalizer_absdet, numerator_value,
                 linear_factors: Tuple[Tuple[Tuple[object, ...], int], ...],
                 cone_direction_u: Tuple[object, ...], sign_flipped: bool,
                 p_series: TruncatedSeries, q_series: TruncatedSeries,
                 numerator_valuation: int):
        self.arity = arity
        self.point_Z = point_Z
        self.s = s  # power of the quadratic factor
        self.q_matrix = q_matrix
        self.dual_matrix = dual_matrix
        self.normalizer_absdet = normalizer_absdet
        self.numerator_value = numerator_value  # collected numerator value P(Z)
        self.linear_factors = linear_factors
        self.cone_direction_u = cone_direction_u
        self.sign_flipped = sign_flipped
        self.p_series = p_series
        self.q_series = q_series
        self.numerator_valuation = numerator_valuation

    @property
    def k(self) -> int:
        return len(self.linear_factors)

    @property
    def degree(self):
        """Homogeneous degree of the function at the point: the numerator's
        valuation minus the power-weighted valuations of the vanishing factors."""
        return self.numerator_valuation - 2 * self.s - sum(n for _, n in self.linear_factors)

    @cached_property
    def _dual_ints(self):
        """(L, L * dual_matrix as ints) for a dual matrix of Fractions, L the
        lcm of its denominators; None otherwise."""
        M = self.dual_matrix
        if not all(type(x) is Fraction for row in M for x in row):
            return None
        L = math.lcm(*(x.denominator for row in M for x in row))
        return L, tuple(tuple(x.numerator * (L // x.denominator) for x in row) for row in M)

    def dual_eval(self, a: Sequence, b: Sequence):
        """q*(a, b).  On an exact dual matrix and integer vectors it is one
        integer bilinear form over L, the same canonical Fraction that the
        rational sum gives."""
        ints = self._dual_ints
        if ints is not None:
            ia, ib = _integral(a), _integral(b)
            if ia is not None and ib is not None:
                L, M = ints
                return Fraction(sum(x * sum(map(mul, row, ib)) for x, row in zip(ia, M)), L)
        return _bilinear(self.dual_matrix, a, b)

    @cached_property
    def qll(self):
        """q*(ell, ell) of the first linear factor, which every direction reads."""
        ell = self.linear_factors[0][0]
        return self.dual_eval(ell, ell)

    @cached_property
    def linear_in_dual_cone(self) -> bool:
        """Whether the first linear factor lies in the closed dual cone,
        q*(ell, ell) >= -TOL |ell|^2: then no direction has a formula at the point."""
        ell = self.linear_factors[0][0]
        return float(self.qll) >= -TOL * sum(float(x) * float(x) for x in ell)

    @cached_property
    def residue(self):
        """The oriented iterated residue Res2 of a point with one linear factor,
        computed on first use and kept, since it does not depend on the direction."""
        return oriented_double_residue(self)


def quadratic_point_data(spec: QuasiRationalSpec, Z: Sequence,
                         order: int = 6) -> QuadraticPointData:
    """Assemble the local data of a quadratic point of the pole variety.

    The formulas read a real local form, so a point with a complex coordinate,
    and any point of a spec with a complex coefficient (every polynomial of
    the spec enters the expansion), is refused by name first.  Factors are
    split by their vanishing degree at Z: nonvanishing factors are absorbed
    into the numerator, degree-1 factors become linear covectors (sign-fixed
    against the cone direction; at most one), and exactly one degree-2
    factor supplies the nonsingular Lorentzian quadratic; a point that breaks
    these rules, or where a factor vanishes beyond the local order, is
    refused by name.  A factor with float coefficients vanishes to
    the degree its expansion shows once terms of degree below 2 within TOL
    of its size at Z are dropped; an exact factor vanishes where its terms
    are exactly zero.
    """
    if any(isinstance(z, complex) for z in Z):
        raise _point_refusal(Z, "has a complex coordinate: the formulas need a real point")
    if any(isinstance(c, complex) for p in (spec.numerator, *(f for f, _ in spec.factors))
           for c in p.terms.values()):
        raise _point_refusal(Z, "has a complex local expansion: the formulas need real "
                                "coefficients")
    u = spec.cone_direction_u
    p_series = log_compose_taylor(spec.numerator, Z, order)
    q_series = None
    s_quad = None
    linear: List[Tuple[Tuple[object, ...], int]] = []
    for poly, power in spec.factors:
        series = log_compose_taylor(poly, Z, order)
        if not is_exact(poly):  # rounding leaves these where a float factor vanishes
            tol = TOL * size_at(poly, Z)
            series = TruncatedSeries(series.arity, series.order,
                                     {m: c for m, c in series.terms.items()
                                      if sum(m) >= 2 or abs(c) > tol})
        if series.is_zero():
            raise _point_refusal(Z, f"is where a factor vanishes beyond the local order {order}: "
                                    "the contour formulas need quadratic cone points and smooth "
                                    "factors", order=order)
        v = vanishing_degree(series)
        if v == 0:
            p_series = p_series * series.pow_real(-power if isinstance(power, (int, float))
                                                  else -Fraction(power))
        elif v == 1:
            n = _as_int(power)
            if n is None or n < 1:
                raise _point_refusal(Z, f"has a linear factor with power {power}: the contour "
                                        "formulas need a positive integer power",
                                     power=str(power))
            linear.append((_fit_or_refuse(Z, _linear_covector, homogeneous_part(series), u), n))
        elif v == 2:
            if q_series is not None:
                raise _point_refusal(Z, "is where more than one quadratic factor vanishes: "
                                        "the contour formulas need exactly one")
            q_series = series
            s_quad = power
        else:
            raise _point_refusal(Z, f"is where a factor vanishes to order {v}: the contour "
                                    "formulas need quadratic cone points and smooth factors")
    if q_series is None and not linear:
        raise SpecError(f"no factor vanishes at the given point "
                        f"({', '.join(map(str, Z))}); it is not on the pole variety")
    if q_series is None:
        raise _point_refusal(Z, "is where only linear factors vanish: the contour formulas "
                                "need a quadratic factor")
    if len(linear) > 1:
        raise _point_refusal(Z, "is where more than one linear factor vanishes: the contour "
                                "formulas need at most one")
    q_matrix, flipped = _fit_or_refuse(Z, classify_quadratic, homogeneous_part(q_series), u)
    dual, det = _gauss_jordan(q_matrix)
    return QuadraticPointData(
        arity=spec.arity,
        point_Z=tuple(Z),
        s=s_quad,
        q_matrix=q_matrix,
        dual_matrix=dual,
        normalizer_absdet=_normalizer(det),
        numerator_value=p_series.constant_term(),
        linear_factors=tuple(linear),
        cone_direction_u=tuple(u),
        sign_flipped=flipped,
        p_series=p_series,
        q_series=q_series,
        numerator_valuation=order + 1 if p_series.is_zero() else vanishing_degree(p_series),
    )


def _point_refusal(Z: Sequence, why: str, **diagnostics) -> RefusalError:
    """A refusal that names the point Z, in its message and its diagnostics."""
    return RefusalError(f"point ({', '.join(map(str, Z))}) {why}",
                        {"point": list(map(str, Z)), **diagnostics})


def _fit_or_refuse(Z: Sequence, fit, h: MultiPoly, u: Sequence):
    """fit(h, u), its GeometryError (a singular form included) a refusal at Z:
    the local form is outside the contour formulas."""
    try:
        return fit(h, u)
    except GeometryError as e:
        raise _point_refusal(Z, f"is outside the contour formulas: {e}") from None


def _linear_covector(h: MultiPoly, u: Sequence) -> Tuple[object, ...]:
    """Covector of a linear homogeneous part, oriented so that ell . u < 0."""
    d = h.arity
    ell = [Fraction(0)] * d
    for m, c in h.terms.items():
        ell[next(j for j in range(d) if m[j] == 1)] = c
    lu = sum(a * b for a, b in zip(ell, u))
    if lu == 0:
        raise GeometryError("linear factor is tangent to the cone direction")
    if lu > 0:
        ell = [-x for x in ell]
    return tuple(ell)


# -- direction classification ---------------------------------------------------


def classify_direction(data: QuadraticPointData, r: Sequence) -> DirectionClass:
    """Place a direction r against the local normal-cone geometry.

    With no linear factor the test is membership in the dual elliptic cone
    (dual form positive, r on the correct side of the axis).  With one
    linear factor, directions outside the elliptic cone may still be
    reachable as r = lambda*ell + w with w interior to the cone; whether
    the concave quadratic lambda -> q*(r - lambda*ell) admits such a
    lambda is decided in closed form.  That needs q*(ell, ell) < 0, which
    asympt.point_data ensures by refusing the point otherwise; a linear
    factor inside the closed dual cone raises GeometryError here.  Within TOL
    of any decision surface the answer is Indeterminate rather than a guess.
    """
    r = tuple(r)
    u = data.cone_direction_u
    rn2 = float(sum(float(x) * float(x) for x in r))
    if rn2 == 0:
        raise ValueError("zero direction")
    un = math.sqrt(sum(float(x) * float(x) for x in u))
    qrr = data.dual_eval(r, r)
    ru = sum(float(a) * float(b) for a, b in zip(r, u))
    axis_ok = ru < -TOL * math.sqrt(rn2) * un
    inside = float(qrr) > TOL * rn2 and axis_ok
    on_boundary = abs(float(qrr)) <= TOL * rn2

    if data.k == 0:
        if inside:
            return DirectionClass(DirectionTag.InteriorEllipticCone, float(qrr) / rn2)
        if on_boundary:
            return DirectionClass(DirectionTag.Indeterminate, float(qrr) / rn2)
        return DirectionClass(DirectionTag.OutsideNormalCone, float(qrr) / rn2)

    ell, _ = data.linear_factors[0]
    if data.linear_in_dual_cone:
        raise GeometryError("linear factor inside the closed dual cone")
    ln2, qll = sum(float(x) * float(x) for x in ell), data.qll
    qrl = data.dual_eval(r, ell)
    if inside:
        return DirectionClass(DirectionTag.InteriorEllipticCone, float(qrr) / rn2)
    if on_boundary:
        if float(qrl) < -TOL * math.sqrt(rn2 * ln2):
            return DirectionClass(DirectionTag.ObstructedBoundary, float(qrr) / rn2)
        return DirectionClass(DirectionTag.Indeterminate, float(qrr) / rn2)

    # E test: does r = lambda*ell + w admit lambda > 0 with w interior?
    scale2 = rn2 * ln2
    lu = sum(float(a) * float(b) for a, b in zip(ell, u))  # < 0 by orientation
    disc = float(qrl) ** 2 - float(qll) * float(qrr)
    if abs(disc) <= TOL * scale2:
        # r sits on a tangent line of the hull; decide by the double root
        lam_star = float(qrl) / float(qll)
        feasible = lam_star > TOL * math.sqrt(rn2 / ln2) and (
            ru - lam_star * lu < -TOL * math.sqrt(rn2) * un)
        if feasible:
            return DirectionClass(DirectionTag.Indeterminate, disc / scale2)
        return DirectionClass(DirectionTag.OutsideNormalCone, disc / scale2)
    if disc < 0:
        return DirectionClass(DirectionTag.OutsideNormalCone, disc / scale2)
    root = math.sqrt(disc)
    lam_lo = (float(qrl) + root) / float(qll)
    lam_hi = (float(qrl) - root) / float(qll)
    # w . u = r.u - lambda * (ell.u) must stay negative
    lo = max(lam_lo, TOL * math.sqrt(rn2 / ln2))
    hi = min(lam_hi, ru / lu)
    width = hi - lo
    if width > TOL * math.sqrt(rn2 / ln2):
        return DirectionClass(DirectionTag.InteriorE, width / math.sqrt(rn2 / ln2))
    if width > -TOL * math.sqrt(rn2 / ln2):
        return DirectionClass(DirectionTag.Indeterminate, width)
    return DirectionClass(DirectionTag.OutsideNormalCone, width)
