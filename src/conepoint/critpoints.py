"""Numeric location of singular and smooth critical points on a torus.

Points are sought on the torus |Z_j| = e^{x_j} by parametrizing
Z_j = e^{x_j + i theta_j} and running multistart Gauss-Newton on the
(overdetermined) real-and-imaginary system.  Accepted roots must pass a
residual check; candidates that cluster into a spread-out set rather than
isolated points are reported as a solution family (positive-dimensional
strata exist, e.g. binomial factors whose log-gradient is constant).

The search runs in plain Python floats and complex numbers.  Each search
builds its system once: the union of the supports, one coefficient row per
polynomial and, because d/dtheta_j Z^e = i e_j Z^e, the Jacobian row
c_e e_j, times i, per (polynomial, coordinate), each distinct row kept
once.  An evaluation computes each monomial once as exp(e.x + i e.theta);
the residual and the Jacobian are dot products of those rows with the
monomials.  A complex entry stands for
its real and imaginary rows, so the m polynomials in d unknowns make a
real 2m x d least-squares problem.  Its step solves the normal equations
by Cholesky on the d x d Gram matrix Re(J^H J) (`_lstsq_step`).  Squaring
the condition number, which unfits the normal equations for an accurate
least-squares solution, costs nothing here: the step is only a direction,
and a start is accepted on its residual, computed directly (Bjorck,
Numerical Methods for Least Squares Problems, 1996, sec. 2.2).  A start
that Gauss-Newton brings below NEWTON_TOL is accepted as it is; a start it
leaves above that, and then the one representative of each found point,
is polished.

Roots whose coordinates round to small rationals are confirmed exactly in
rational arithmetic, replacing the numeric residual with zero; a polynomial
with float coefficients need only vanish there to within rounding.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from fractions import Fraction
from operator import mul
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .localgeo import TOL, size_at
from .polyseries import MultiPoly, is_exact

ACCEPT_RESIDUAL = 1e-10
DEDUP_DISTANCE = 1e-6
FAMILY_DIAMETER = 1e-3
NEWTON_TOL = 1e-13  # residual norm at which Gauss-Newton stops early
NEWTON_MAX_ITER = 100
POLISH_STEPS = 2  # full Gauss-Newton steps per polish, kept while they help
EXACT_MAX_DEN = 16  # largest denominator tried when confirming a root exactly
PIVOT_DROP = 64 * sys.float_info.epsilon  # squared Cholesky pivot / G_jj at which a column drops


class CriticalPoint(NamedTuple):
    Z: Tuple[complex, ...]
    residual: float
    exact: bool = False       # confirmed in rational arithmetic


class SearchReport(NamedTuple):
    points: List[CriticalPoint]
    family_detected: bool
    n_converged: int
    cluster_diameter: float


def _torus_points(x: Sequence[float], theta: Sequence[float]) -> List[complex]:
    return [cmath.exp(complex(xi, ti)) for xi, ti in zip(x, theta)]


def _norm(f: Sequence[complex]) -> float:
    """Euclidean norm of f as a real vector of real and imaginary parts."""
    return math.hypot(*map(abs, f))


def _max_component(f: Sequence[complex]) -> float:
    """The largest |real| or |imaginary| part of f."""
    return max(max(abs(v.real), abs(v.imag)) for v in f)


def _lstsq_step(cols: Sequence[Sequence[complex]], f: Sequence[complex]) -> List[float]:
    """The real s minimizing ||f + J s||, J given by its d complex columns.

    Solves Re(J^H J) s = -Re(J^H f) by Cholesky, row j of the factor L from
    row j of the Gram matrix G.  A column whose squared pivot is at most
    PIVOT_DROP = 64 eps times G_jj, below the rounding that forming and
    factoring G leaves in it, is dropped with step 0, so a rank-deficient J
    still gives a finite step.
    """
    rows, inv, y = [], [], []  # L below the diagonal; 1/L_jj, 0 if dropped; L^-1 rhs
    for j, col in enumerate(cols):
        conj = [v.conjugate() for v in col]
        *row, gjj, bj = [sum(map(mul, conj, c), 0j).real for c in (*cols[:j + 1], f)]
        for k, lk in enumerate(rows):
            row[k] = (row[k] - sum(map(mul, row, lk))) * inv[k]
        pivot = gjj - sum(map(mul, row, row))
        i = 1.0 / math.sqrt(pivot) if pivot > PIVOT_DROP * gjj else 0.0
        rows.append(row)
        inv.append(i)
        y.append((sum(map(mul, row, y)) + bj) * -i)
    for j in reversed(range(len(rows))):
        y[j] = s = y[j] * inv[j]
        for k, l in enumerate(rows[j]):
            y[k] -= l * s
    return y


def _gauss_newton(residual: Callable, jacobian: Callable,
                  theta: List[float]) -> Optional[Tuple[List[float], List[complex]]]:
    """theta and its residual after Gauss-Newton from theta, polished if it
    stopped above NEWTON_TOL, or None if it stopped above sqrt(NEWTON_TOL)."""
    f, mono = residual(theta)
    norm = _norm(f)
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return theta, f
        step = _lstsq_step(jacobian(f, mono), f)
        if not all(map(math.isfinite, step)):
            return None
        alpha = 1.0
        for _ in range(40):
            cand = [t + alpha * s for t, s in zip(theta, step)]
            fc, mc = residual(cand)
            nc = _norm(fc)
            if nc < norm * (1.0 - 1e-4 * alpha) or nc < NEWTON_TOL:
                theta, f, mono, norm = cand, fc, mc, nc
                break
            alpha *= 0.5
        else:
            break
    return _polish(residual, jacobian, theta) if norm < math.sqrt(NEWTON_TOL) else None


def _try_exact_rational(Z: Sequence[complex]) -> Optional[List[Fraction]]:
    out = []
    for z in Z:
        if abs(z.imag) > 1e-7 * (1 + abs(z)):
            return None
        fr = Fraction(z.real).limit_denominator(EXACT_MAX_DEN)
        if abs(float(fr) - z.real) > 1e-6 * (1 + abs(z)):
            return None
        out.append(fr)
    return out


def _vanishes(p: MultiPoly, Z: Sequence[Fraction]) -> bool:
    """p(Z) == 0 for an exact p; a float p may miss 0 by rounding, within TOL
    of size_at(p, Z), as in localgeo.quadratic_point_data."""
    value = p.eval(Z)
    return value == 0 if is_exact(p) else abs(value) <= TOL * size_at(p, Z)


def _dedup(cands: List[Tuple[List[float], Tuple[complex, ...], float]]):
    """One (theta, Z, res) per cluster of cands: its lowest-residual member."""
    cands = sorted(cands, key=lambda c: tuple((round(z.real, 8), round(z.imag, 8))
                                              for z in c[1]))
    reps: List[Tuple[List[float], Tuple[complex, ...], float]] = []
    for cand in cands:
        _, Z, res = cand
        for i, (_, Zr, res_r) in enumerate(reps):
            if max(abs(a - b) for a, b in zip(Z, Zr)) < DEDUP_DISTANCE:
                if res < res_r:
                    reps[i] = cand
                break
        else:
            reps.append(cand)
    return reps


def _cluster_diameter(reps) -> float:
    if len(reps) < 2:
        return 0.0
    diam = 0.0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diam = max(diam, max(abs(a - b) for a, b in zip(reps[i][1], reps[j][1])))
    return diam


def find_singular_points(Q: MultiPoly, x: Sequence[float], starts: int = 200,
                         seed: int = 0) -> SearchReport:
    """Solve Q = 0 and Z_i dQ/dZ_i = 0 (all i) on the torus |Z_j| = e^{x_j}.

    Returns isolated singular points with residuals <= 1e-10 (exactly
    verified where coordinates round to small rationals).
    """
    if 0 < len(Q.terms) < 3:
        # Q = aZ^m + bZ^n = 0 forces Z_i dQ/dZ_i = a (m_i - n_i) Z^m != 0 for some i
        return SearchReport([], False, 0, 0.0)
    d = Q.arity
    logQ = [MultiPoly.variable(d, i) * Q.diff(i) for i in range(d)]
    return _multistart([Q] + logQ, x, starts, seed)


def find_smooth_critical(H: MultiPoly, r: Sequence[float], x: Sequence[float],
                         starts: int = 200, seed: int = 0) -> SearchReport:
    """Solve H = 0 with log-gradient parallel to r on the torus.

    Parallelism is imposed through the d-1 independent cross conditions
    g_i r_j - g_j r_i = 0 against a fixed pivot coordinate of r.
    """
    d = H.arity
    if all(v == 0 for v in r):
        raise ValueError("direction r must be nonzero")
    piv = max(range(d), key=lambda i: abs(float(r[i])))
    rs = [Fraction(v) if isinstance(v, (int, Fraction)) else float(v) for v in r]
    logH = [MultiPoly.variable(d, i) * H.diff(i) for i in range(d)]
    # cross_i = g_i * r_piv - g_piv * r_i  for i != piv
    cross = [logH[i].scale(rs[piv]) - logH[piv].scale(rs[i])
             for i in range(d) if i != piv]
    return _multistart([H] + cross, x, starts, seed)


def _polish(residual: Callable, jacobian: Callable,
            theta: List[float]) -> Tuple[List[float], List[complex]]:
    """Up to POLISH_STEPS full steps, kept while they do not raise the residual;
    returns theta and its residual."""
    f, mono = residual(theta)
    norm = _norm(f)
    for _ in range(POLISH_STEPS):
        step = _lstsq_step(jacobian(f, mono), f)
        if not all(map(math.isfinite, step)):
            break
        cand = [t + s for t, s in zip(theta, step)]
        fc, mc = residual(cand)
        nc = _norm(fc)
        if not nc <= norm:
            break
        theta, f, mono, norm = cand, fc, mc, nc
    return theta, f


def _system(polys: Sequence[MultiPoly], x: Sequence[float]) -> Tuple[Callable, Callable]:
    """The system of polys on the torus through x, as two functions:
    residual(theta) -> (f, mono), one complex value per polynomial and the
    monomials they were computed from, and jacobian(f, mono) -> the d
    complex columns df/dtheta_j at the same theta.

    Entry (j, p) is i times the dot product of mono with the row c * m[j]
    of p (c its coefficient at the support monomial m).  Each distinct row
    is dotted once: a row equal to a polynomial's own row reuses its value
    in f, as the row for theta_j of Q does that of Z_j dQ/dZ_j, and the
    mixed rows of the log-gradient system, c m_i m_j, are symmetric in i
    and j.  Rows are matched by value, so every entry is the one that the
    products 1j * c * m[j], summed in support order, give."""
    support = sorted({m for p in polys for m in p.terms})
    ex = [sum(map(mul, m, x)) for m in support]
    rows = [[complex(p.terms.get(m, 0)) for m in support] for p in polys]
    known = {}  # each distinct row -> the index of its value in f + the extra values
    for k, row in enumerate(rows):
        known.setdefault(tuple(row), k)
    extra, cols = [], []
    for j in range(len(x)):
        col = []
        for row in rows:
            key = tuple(c * m[j] for c, m in zip(row, support))
            if key not in known:
                known[key] = len(rows) + len(extra)
                extra.append(key)
            col.append(known[key])
        cols.append(col)

    def residual(theta):
        mono = [cmath.exp(complex(a, sum(map(mul, m, theta)))) for a, m in zip(ex, support)]
        return [sum(map(mul, row, mono)) for row in rows], mono

    def jacobian(f, mono):
        v = f + [sum(map(mul, row, mono)) for row in extra]
        return [[1j * v[k] for k in col] for col in cols]

    return residual, jacobian


def _multistart(polys, x, starts, seed) -> SearchReport:
    residual, jacobian = _system(polys, x)
    rng = random.Random(seed)
    d = polys[0].arity
    cands = []
    for _ in range(starts):
        found = _gauss_newton(residual, jacobian,
                              [rng.uniform(0.0, 2.0 * math.pi) for _ in range(d)])
        if found is None:
            continue
        theta, f = found
        res = _max_component(f)
        if res <= ACCEPT_RESIDUAL:
            cands.append((theta, tuple(_torus_points(x, theta)), res))
    reps = _dedup(cands)
    diam = _cluster_diameter(reps)
    family = len(reps) > 8 and diam > FAMILY_DIAMETER
    points = []
    if not family:
        for theta, _, _ in reps:
            theta, f = _polish(residual, jacobian, theta)
            Z, res = tuple(_torus_points(x, theta)), _max_component(f)
            fr = _try_exact_rational(Z)
            if fr is not None and all(_vanishes(p, fr) for p in polys):
                # keep the exact rational coordinates: downstream local analysis
                # then runs in exact arithmetic
                points.append(CriticalPoint(tuple(fr), 0.0, True))
            else:
                points.append(CriticalPoint(Z, res, False))
    return SearchReport(points=points, family_detected=family,
                        n_converged=len(cands), cluster_diameter=diam)
