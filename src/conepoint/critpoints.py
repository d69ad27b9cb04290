"""Numeric location of singular and smooth critical points on a torus.

Points are sought on the torus |Z_j| = e^{x_j} by parametrizing
Z_j = e^{x_j + i theta_j} and running multistart Gauss-Newton on the
(overdetermined) real-and-imaginary system.  Accepted roots must pass a
residual check; candidates that cluster into a spread-out set rather than
isolated points are reported as a solution family (positive-dimensional
strata exist, e.g. binomial factors whose log-gradient is constant).

Each search builds its system once as two arrays: E, the integer exponent
rows of the union of the supports, and C, one complex coefficient row per
polynomial.  A Gauss-Newton step then costs a few array operations:
mono = exp(E x + i E theta), the residual is C @ mono and, because
d/dtheta_j Z^e = i e_j Z^e, the Jacobian is i (C * mono) @ E.

Roots whose coordinates round to small rationals are confirmed exactly in
rational arithmetic, replacing the numeric residual with zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .polyseries import MultiPoly

ACCEPT_RESIDUAL = 1e-10
DEDUP_DISTANCE = 1e-6
FAMILY_DIAMETER = 1e-3
NEWTON_TOL = 1e-13  # residual norm at which Gauss-Newton stops early
NEWTON_MAX_ITER = 100
POLISH_STEPS = 2  # full Gauss-Newton steps after convergence, kept while they help
EXACT_MAX_DEN = 16  # largest denominator tried when confirming a root exactly


@dataclass(frozen=True)
class CriticalPoint:
    Z: Tuple[complex, ...]
    stratum: str              # "QuadraticSingular" | "SmoothOnFactor" | ...
    residual: float
    exact: bool = False       # confirmed in rational arithmetic


@dataclass
class SearchReport:
    points: List[CriticalPoint]
    family_detected: bool
    n_converged: int
    cluster_diameter: float


def _torus_points(x: Sequence[float], theta: np.ndarray) -> List[complex]:
    return [cmath.exp(complex(xi, ti)) for xi, ti in zip(x, theta)]


def _gauss_newton(fun_jac: Callable, theta0: np.ndarray) -> Optional[np.ndarray]:
    theta = theta0.copy()
    f, J = fun_jac(theta)
    norm = np.linalg.norm(f)
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            return theta
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        alpha = 1.0
        for _ in range(40):
            cand = theta + alpha * step
            fc, Jc = fun_jac(cand)
            nc = np.linalg.norm(fc)
            if nc < norm * (1.0 - 1e-4 * alpha) or nc < NEWTON_TOL:
                theta, f, J, norm = cand, fc, Jc, nc
                break
            alpha *= 0.5
        else:
            return theta if norm < math.sqrt(NEWTON_TOL) else None
    return theta if norm < math.sqrt(NEWTON_TOL) else None


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


def _dedup(cands: List[Tuple[np.ndarray, Tuple[complex, ...], float]]):
    cands = sorted(cands, key=lambda c: tuple((round(z.real, 8), round(z.imag, 8))
                                              for z in c[1]))
    reps: List[Tuple[Tuple[complex, ...], float]] = []
    for _, Z, res in cands:
        for i, (Zr, res_r) in enumerate(reps):
            if max(abs(a - b) for a, b in zip(Z, Zr)) < DEDUP_DISTANCE:
                if res < res_r:
                    reps[i] = (Z, res)
                break
        else:
            reps.append((Z, res))
    return reps


def _cluster_diameter(reps) -> float:
    if len(reps) < 2:
        return 0.0
    diam = 0.0
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diam = max(diam, max(abs(a - b) for a, b in zip(reps[i][0], reps[j][0])))
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
    return _multistart([Q] + logQ, x, starts, seed, "QuadraticSingular")


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
    return _multistart([H] + cross, x, starts, seed, "SmoothOnFactor")


def _polish(fun_jac, theta: np.ndarray) -> np.ndarray:
    for _ in range(POLISH_STEPS):
        f, J = fun_jac(theta)
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        cand = theta + step
        fc, _ = fun_jac(cand)
        if np.linalg.norm(fc) <= np.linalg.norm(f):
            theta = cand
        else:
            break
    return theta


def _system(polys: Sequence[MultiPoly], x: Sequence[float]) -> Callable:
    """fun_jac(theta) for the real-and-imaginary system of polys on the torus."""
    support = sorted({m for p in polys for m in p.terms})
    E = np.array(support, dtype=float)
    C = np.array([[complex(p.terms.get(m, 0)) for m in support] for p in polys])
    Ex = E @ np.asarray(x, dtype=float)

    def fun_jac(theta):
        mono = np.exp(Ex + 1j * (E @ theta))
        f = C @ mono
        Jt = 1j * (E.T @ (C * mono).T)  # J = i (C * mono) @ E, transposed
        # float views split each complex entry into (re, im): rows alternate re, im
        return f.view(float), Jt.view(float).T

    return fun_jac


def _multistart(polys, x, starts, seed, stratum) -> SearchReport:
    fun_jac = _system(polys, x)
    rng = np.random.default_rng(seed)
    cands = []
    for _ in range(starts):
        theta0 = rng.uniform(0.0, 2.0 * math.pi, size=polys[0].arity)
        theta = _gauss_newton(fun_jac, theta0)
        if theta is None:
            continue
        theta = _polish(fun_jac, theta)
        f, _ = fun_jac(theta)
        res = float(np.linalg.norm(f, ord=np.inf))
        if res <= ACCEPT_RESIDUAL:
            Z = tuple(_torus_points(x, theta))
            cands.append((theta, Z, res))
    reps = _dedup(cands)
    diam = _cluster_diameter(reps)
    family = len(reps) > 8 and diam > FAMILY_DIAMETER
    points = []
    if not family:
        for Z, res in reps:
            fr = _try_exact_rational(Z)
            if fr is not None and all(p.eval(fr) == 0 for p in polys):
                # keep the exact rational coordinates: downstream local analysis
                # then runs in exact arithmetic
                points.append(CriticalPoint(tuple(fr), stratum, 0.0, True))
            else:
                points.append(CriticalPoint(Z, stratum, res, False))
    return SearchReport(points=points, family_detected=family,
                        n_converged=len(cands), cluster_diameter=diam)
