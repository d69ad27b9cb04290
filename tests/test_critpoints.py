import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conepoint.polyseries import MultiPoly
from conepoint.presets import PRESET_NAMES, preset
from conepoint.critpoints import find_singular_points, find_smooth_critical


def mp(arity, *terms):
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


def sorted_real_points(report):
    return sorted(tuple(round(z.real, 6) for z in p.Z) for p in report.points)


class TestSingularPoints:
    def test_aztec_both_points(self, aztec):
        rep = find_singular_points(aztec.spec.factors[0][0], [0.0] * 3, starts=200, seed=0)
        assert sorted_real_points(rep) == [(-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)]
        assert all(p.residual <= 1e-10 for p in rep.points)
        assert all(p.exact for p in rep.points)

    def test_grove_single_point(self, cube_grove):
        rep = find_singular_points(cube_grove.spec.factors[1][0], [0.0] * 3,
                                   starts=200, seed=0)
        assert sorted_real_points(rep) == [(1.0, 1.0, 1.0)]

    def test_fls_single_point(self, fls):
        rep = find_singular_points(fls.spec.factors[0][0], [0.0] * 3, starts=200, seed=0)
        assert sorted_real_points(rep) == [(1.0, 1.0, 1.0)]

    def test_superballot_single_point(self, superballot_core):
        rep = find_singular_points(superballot_core.spec.factors[0][0], [0.0] * 3,
                                   starts=200, seed=0)
        assert sorted_real_points(rep) == [(1.0, 1.0, 1.0)]

    def test_smooth_polynomial_has_none(self):
        h = mp(2, (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)))
        rep = find_singular_points(h, [0.0, 0.0], starts=60, seed=0)
        assert rep.points == [] and not rep.family_detected

    @pytest.mark.parametrize("poly", [
        mp(3, (1, (0, 0, 0)), (-1, (0, 1, 1))),                # aztec's 1 - YZ
        mp(2, (3, (2, -1)), (Fraction(1, 2), (-1, 4))),        # Laurent binomial
        mp(2, (5, (1, 1))),                                    # monomial
    ])
    def test_binomials_have_none_without_a_search(self, monkeypatch, poly):
        def no_search(*args, **kwargs):
            raise AssertionError("multistart run for a polynomial with < 3 terms")

        monkeypatch.setattr("conepoint.critpoints._multistart", no_search)
        rep = find_singular_points(poly, [0.0] * poly.arity, seed=0)
        assert (rep.points, rep.family_detected, rep.n_converged) == ([], False, 0)

    def test_polishes_once_per_point(self, fls, monkeypatch):
        # fls's starts all reach NEWTON_TOL, so only its one point is polished
        import conepoint.critpoints as cp

        calls = []
        polish = cp._polish

        def counting(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(cp, "_polish", counting)
        rep = find_singular_points(fls.spec.factors[0][0], [0.0] * 3, starts=200, seed=0)
        assert len(calls) == len(rep.points) == 1
        assert (rep.n_converged, rep.family_detected, rep.points) == (
            200, False, [cp.CriticalPoint((1, 1, 1), 0.0, True)])

    def test_rotated_point_stays_a_float_point(self, fls):
        # X -> lam X moves fls's point (1, 1, 1) to (conj(lam), 1, 1), off the
        # rationals, so the report keeps the polished float point and its residual
        lam = cmath.exp(1j * math.pi / 5)
        Q = fls.spec.factors[0][0]
        rotated = MultiPoly.from_terms(3, [(e, complex(c) * lam ** e[0])
                                           for e, c in Q.terms.items()])
        rep = find_singular_points(rotated, [0.0] * 3, starts=200, seed=0)
        assert len(rep.points) == 1 and not rep.family_detected
        (p,) = rep.points
        assert not p.exact
        assert max(abs(a - b) for a, b in zip(p.Z, (lam.conjugate(), 1, 1))) <= 1e-12
        assert p.residual <= 1e-14

    # n_converged for aztec's factor with its variables permuted, seed 0; the
    # starts' coordinates do not permute with the variables, so the counts differ
    # from the unpermuted 171
    PERMUTED_AZTEC = {(0, 2, 1): 170, (1, 2, 0): 170, (2, 0, 1): 158, (2, 1, 0): 158}

    @pytest.mark.parametrize("perm", sorted(PERMUTED_AZTEC))
    def test_permuted_variables_permute_the_points(self, aztec, perm):
        Q = aztec.spec.factors[0][0]
        permuted = MultiPoly.from_terms(3, [(tuple(e[i] for i in perm), c)
                                            for e, c in Q.terms.items()])
        rep = find_singular_points(permuted, [0.0] * 3, starts=200, seed=0)
        points = sorted_real_points(find_singular_points(Q, [0.0] * 3, seed=0))
        assert sorted_real_points(rep) == sorted(tuple(z[i] for i in perm) for z in points)
        assert all(p.exact for p in rep.points)
        assert rep.n_converged == self.PERMUTED_AZTEC[perm]

    def test_stable_under_doubling_starts(self, aztec):
        a = sorted_real_points(find_singular_points(aztec.spec.factors[0][0], [0.0] * 3,
                                                    starts=100, seed=3))
        b = sorted_real_points(find_singular_points(aztec.spec.factors[0][0], [0.0] * 3,
                                                    starts=200, seed=3))
        assert a == b


class TestSmoothCritical:
    def test_binomial_critical_point(self):
        h = mp(2, (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)))
        x = [math.log(0.5)] * 2
        rep = find_smooth_critical(h, (1, 1), x, starts=60, seed=0)
        assert sorted_real_points(rep) == [(0.5, 0.5)]
        assert rep.points[0].exact

    def test_constant_log_gradient_family(self):
        h = mp(3, (1, (0, 0, 0)), (-1, (0, 1, 1)))
        rep = find_smooth_critical(h, (0, 1, 1), [0.0] * 3, starts=60, seed=0)
        assert rep.family_detected
        assert rep.cluster_diameter > 1e-3
        assert rep.points == []

    def test_unsatisfiable_parallelism(self):
        h = mp(3, (1, (0, 0, 0)), (-1, (0, 1, 1)))
        rep = find_smooth_critical(h, (1, 1, 1), [0.0] * 3, starts=60, seed=0)
        assert rep.points == [] and not rep.family_detected


def _reference_system(polys, x, theta):
    """The system evaluated term by term with MultiPoly.eval: f_p = p(Z) and
    the Jacobian columns df_p/dtheta_j = i Z_j dp/dZ_j(Z)."""
    d = polys[0].arity
    Z = [cmath.exp(complex(xi, ti)) for xi, ti in zip(x, theta)]
    f = [complex(p.eval(Z)) for p in polys]
    cols = [[1j * complex((MultiPoly.variable(d, j) * p.diff(j)).eval(Z)) for p in polys]
            for j in range(d)]
    return f, cols


def _log_gradient_system(Q):
    return [Q] + [MultiPoly.variable(Q.arity, i) * Q.diff(i) for i in range(Q.arity)]


def _compiled_systems():
    for name in PRESET_NAMES:
        for i, (poly, _) in enumerate(preset(name).spec.factors):
            yield f"{name}-{i}", _log_gradient_system(poly)
    laurent = mp(2, (3, (-2, 1)), (Fraction(-1, 2), (1, -3)), (1, (0, 0)), (2, (1, 1)))
    yield "laurent", _log_gradient_system(laurent)
    yield "real-coefficients", _log_gradient_system(mp(2, (0.25, (0, 0)), (-1.5, (2, 1)),
                                                       (0.75, (0, 2))))
    yield "complex-coefficients", _log_gradient_system(mp(3, (1 + 2j, (1, 0, 0)),
                                                          (-0.5j, (0, 1, 2)), (3, (0, 0, 0))))
    # find_smooth_critical's system: H and the cross conditions against r = (2, 3, 5)
    H = preset("superballot-core").spec.factors[0][0]
    g = _log_gradient_system(H)[1:]
    yield "smooth-cross", [H, g[0].scale(5) - g[2].scale(2), g[1].scale(5) - g[2].scale(3)]


COMPILED_SYSTEMS = list(_compiled_systems())


def _support_order_columns(polys, mono):
    """The Jacobian columns as the sum, in support order, of the products
    1j * c * m[j] times the monomials, c each polynomial's coefficient at m."""
    support = sorted({m for p in polys for m in p.terms})
    return [[sum(1j * complex(p.terms.get(m, 0)) * m[j] * z for m, z in zip(support, mono))
             for p in polys] for j in range(polys[0].arity)]


@pytest.mark.parametrize("name,polys", COMPILED_SYSTEMS,
                         ids=[name for name, _ in COMPILED_SYSTEMS])
def test_compiled_system_matches_term_by_term_evaluation(name, polys):
    from conepoint.critpoints import _system

    rng = random.Random(11)
    d = polys[0].arity
    for _ in range(5):
        x = [rng.uniform(-0.7, 0.7) for _ in range(d)]
        theta = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(d)]
        residual, jacobian = _system(polys, x)
        f, mono = residual(theta)
        cols = jacobian(f, mono)
        # rows shared with f or with another column are dotted once, and give
        # the same bits as each entry's own products
        assert cols == _support_order_columns(polys, mono)
        f_ref, cols_ref = _reference_system(polys, x, theta)
        assert len(f) == len(f_ref) and len(cols) == d
        assert all(len(col) == len(f_ref) for col in cols)
        scale = max(1.0, *map(abs, f_ref))
        assert max(abs(a - b) for a, b in zip(f, f_ref)) <= 1e-12 * scale
        J, J_ref = [v for col in cols for v in col], [v for col in cols_ref for v in col]
        scale = max(1.0, *map(abs, J_ref))
        assert max(abs(a - b) for a, b in zip(J, J_ref)) <= 1e-12 * scale


def _real_system(cols, f):
    """J and f as the real 2m x d matrix and 2m vector, real and imaginary rows
    interleaved."""
    J = np.array(cols, dtype=complex).T
    return (np.stack([J.real, J.imag], axis=1).reshape(-1, J.shape[1]),
            np.array(f, dtype=complex).view(float))


def _random_system(rng, d, m, rank_defect=None):
    """d complex columns and a residual of length m, from seeded normals; with
    rank_defect, one column is made an exact copy, zero or sum of others."""
    def entry():
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    cols = [[entry() for _ in range(m)] for _ in range(d)]
    if rank_defect == "copy":
        cols[-1] = list(cols[0])
    elif rank_defect == "zero":
        cols[rng.randrange(d)] = [0j] * m
    elif rank_defect == "sum":
        cols[-1] = [sum(col[i] for col in cols[:-1]) for i in range(m)]
    elif rank_defect == "all-zero":
        cols = [[0j] * m for _ in range(d)]
    return cols, [entry() for _ in range(m)]


# the search's shapes: m = d + 1 polynomials for singular points, d for smooth ones
LSTSQ_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4)]


@pytest.mark.parametrize("d,m", LSTSQ_SHAPES)
def test_least_squares_step_matches_lstsq(d, m):
    from conepoint.critpoints import _lstsq_step

    rng = random.Random(100 * d + m)
    for _ in range(50):
        cols, f = _random_system(rng, d, m)
        J, fr = _real_system(cols, f)
        ref = np.linalg.lstsq(J, -fr, rcond=None)[0]
        step = np.array(_lstsq_step(cols, f))
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("rank_defect", ["copy", "zero", "sum", "all-zero"])
@pytest.mark.parametrize("d,m", LSTSQ_SHAPES)
def test_least_squares_step_on_rank_deficient_jacobian(d, m, rank_defect):
    from conepoint.critpoints import _lstsq_step

    rng = random.Random(100 * d + m)
    for _ in range(50):
        cols, f = _random_system(rng, d, m, rank_defect)
        J, fr = _real_system(cols, f)
        ref = np.linalg.lstsq(J, -fr, rcond=None)[0]
        step = np.array(_lstsq_step(cols, f))
        assert np.all(np.isfinite(step))
        assert np.linalg.norm(fr + J @ step) <= np.linalg.norm(fr + J @ ref) + 1e-12


@pytest.mark.parametrize("d,m", LSTSQ_SHAPES)
def test_least_squares_step_on_ill_conditioned_jacobian(d, m):
    from conepoint.critpoints import _lstsq_step

    rng = random.Random(100 * d + m)
    for _ in range(50):
        cols, f = _random_system(rng, d, m)
        cols = [[s * v for v in col] for s, col in zip((1.0, 1e-3, 1e-6), cols)]
        J, fr = _real_system(cols, f)
        ref = np.linalg.lstsq(J, -fr, rcond=None)[0]
        step = np.array(_lstsq_step(cols, f))
        assert np.all(np.isfinite(step))
        assert (J @ step) @ fr < 0  # downhill
        tol = 1e-12 * np.linalg.norm(fr)
        assert np.linalg.norm(fr + J @ step) <= np.linalg.norm(fr + J @ ref) + tol


# (preset, factor index, seed): (n_converged, family_detected, points as
# (Z joined by commas, exact, residual)), searched on the torus through the
# preset's first known point with the default 200 starts.  The points were
# recorded from the term-by-term MultiPoly.eval system; n_converged depends on
# the starts random.Random(seed) draws.  Factors that repeat an earlier one
# (qrw2d's first two are aztec's) are left out.
GOLDEN_SEARCH = {
    ("aztec", 0, 0): (171, False, (("-1,-1,-1", True, 0.0), ("1,1,1", True, 0.0))),
    ("aztec", 0, 3): (171, False, (("-1,-1,-1", True, 0.0), ("1,1,1", True, 0.0))),
    ("aztec", 0, 5): (170, False, (("-1,-1,-1", True, 0.0), ("1,1,1", True, 0.0))),
    ("aztec", 1, 0): (0, False, ()),
    ("aztec", 1, 3): (0, False, ()),
    ("aztec", 1, 5): (0, False, ()),
    ("cube_grove", 0, 0): (0, False, ()),
    ("cube_grove", 0, 3): (0, False, ()),
    ("cube_grove", 0, 5): (0, False, ()),
    ("cube_grove", 1, 0): (200, False, (("1,1,1", True, 0.0),)),
    ("cube_grove", 1, 3): (200, False, (("1,1,1", True, 0.0),)),
    ("cube_grove", 1, 5): (200, False, (("1,1,1", True, 0.0),)),
    ("qrw2d", 2, 0): (0, False, ()),
    ("qrw2d", 2, 3): (0, False, ()),
    ("qrw2d", 2, 5): (0, False, ()),
    ("fls", 0, 0): (200, False, (("1,1,1", True, 0.0),)),
    ("fls", 0, 3): (200, False, (("1,1,1", True, 0.0),)),
    ("fls", 0, 5): (200, False, (("1,1,1", True, 0.0),)),
    ("superballot", 0, 0): (0, False, ()),
    ("superballot", 0, 3): (0, False, ()),
    ("superballot", 0, 5): (0, False, ()),
    ("superballot", 1, 0): (200, False, (("1/2,1/2,1/2", True, 0.0),)),
    ("superballot", 1, 3): (200, False, (("1/2,1/2,1/2", True, 0.0),)),
    ("superballot", 1, 5): (200, False, (("1/2,1/2,1/2", True, 0.0),)),
    ("superballot-core", 0, 0): (200, False, (("1,1,1", True, 0.0),)),
    ("superballot-core", 0, 3): (200, False, (("1,1,1", True, 0.0),)),
    ("superballot-core", 0, 5): (200, False, (("1,1,1", True, 0.0),)),
}


@pytest.mark.parametrize("name,factor,seed", sorted(GOLDEN_SEARCH))
def test_search_report_golden(name, factor, seed):
    pr = preset(name)
    x = [math.log(abs(complex(z))) for z in pr.known_points[0]]
    rep = find_singular_points(pr.spec.factors[factor][0], x, seed=seed)
    points = tuple((",".join(map(str, p.Z)), p.exact, p.residual) for p in rep.points)
    assert (rep.n_converged, rep.family_detected, points) == GOLDEN_SEARCH[name, factor, seed]


_H_DIAGONAL = mp(2, (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)))        # 1 - X - Y
_H_SILVER = mp(2, (1, (0, 0)), (-1, (1, 0)), (-1, (0, 1)), (-1, (1, 1)))  # 1 - X - Y - XY

# find_smooth_critical(H, r, x, starts, seed) -> (n_converged, family_detected,
# points as in GOLDEN_SEARCH).  The first two are acceptance criterion 10's
# system; the point of 1 - X - Y - XY along (1, 1) is (sqrt 2 - 1)(1, 1), which
# stays a float point and so pins the polished coordinates and residual bits.
GOLDEN_SMOOTH = [
    ((_H_DIAGONAL, (1, 1), [math.log(0.5)] * 2, 40, 0),
     (40, False, (("1/2,1/2", True, 0.0),))),
    ((_H_DIAGONAL, (1, 1), [math.log(0.5)] * 2, 40, 3),
     (40, False, (("1/2,1/2", True, 0.0),))),
    ((_H_SILVER, (1, 1), [math.log(math.sqrt(2) - 1)] * 2, 40, 0),
     (40, False, (("(0.41421356237309515+2.2141907839047623e-50j),"
                   "(0.41421356237309515-6.642572351714287e-51j)", False,
                   2.498001805406602e-16),))),
    ((preset("superballot-core").spec.factors[0][0], (2, 3, 5), [0.0] * 3, 60, 0),
     (35, False, (("1,1,1", True, 0.0),))),
]


@pytest.mark.parametrize("case,expected", GOLDEN_SMOOTH,
                         ids=["criterion-10-seed-0", "criterion-10-seed-3", "silver-float",
                              "superballot-core-cross"])
def test_smooth_search_report_golden(case, expected):
    H, r, x, starts, seed = case
    rep = find_smooth_critical(H, r, x, starts=starts, seed=seed)
    points = tuple((",".join(map(str, p.Z)), p.exact, p.residual) for p in rep.points)
    assert (rep.n_converged, rep.family_detected, points) == expected
