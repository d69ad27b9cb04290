import math
import random
from fractions import Fraction

import pytest

from conepoint import localgeo
from conepoint.asympt import local_degree, point_data
from conepoint.errors import RefusalError
from conepoint.polyseries import MultiPoly, TruncatedSeries, log_compose_taylor
from conepoint.localgeo import (DegenerateError, DirectionTag, SignatureError,
                                _inertia, classify_direction,
                                classify_quadratic, dual_quadratic, homogeneous_part,
                                normalizer_absdet, quadratic_point_data,
                                vanishing_degree)
from reference_regions import hull_region, k0_region
from references import mat_inverse


def mp(arity, *terms):
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


def replaced(data, **changes):
    """A copy of data built through its constructor, with the given fields changed."""
    return type(data)(**{**{name: getattr(data, name) for name in data._fields}, **changes})


HALF = Fraction(1, 2)


def quad(*rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestSeriesProbes:
    def test_vanishing_degree_quadratic(self, aztec):
        s = log_compose_taylor(aztec.spec.factors[0][0], (1, 1, 1), 3)
        assert vanishing_degree(s) == 2

    def test_vanishing_degree_linear(self, aztec):
        s = log_compose_taylor(aztec.spec.factors[1][0], (1, 1, 1), 3)
        assert vanishing_degree(s) == 1
        assert homogeneous_part(s) == mp(3, (-1, (0, 1, 0)), (-1, (0, 0, 1)))

    def test_nonvanishing_constant(self):
        s = TruncatedSeries(2, 3, {(0, 0): 5, (1, 1): 2})
        assert vanishing_degree(s) == 0

    def test_fls_homogeneous_part(self, fls):
        s = log_compose_taylor(fls.spec.factors[0][0], (1, 1, 1), 3)
        assert homogeneous_part(s) == mp(3, (1, (1, 1, 0)), (1, (1, 0, 1)), (1, (0, 1, 1)))


class TestClassifyQuadratic:
    def test_aztec_no_flip(self):
        h = mp(3, (1, (0, 0, 2)), (-HALF, (2, 0, 0)), (-HALF, (0, 2, 0)))
        M, flipped = classify_quadratic(h, (0, 0, -1))
        assert not flipped
        assert M == quad((-HALF, 0, 0), (0, -HALF, 0), (0, 0, 1))

    def test_fls_off_diagonal(self):
        h = mp(3, (1, (1, 1, 0)), (1, (1, 0, 1)), (1, (0, 1, 1)))
        M, flipped = classify_quadratic(h, (-1, -1, -1))
        assert not flipped
        assert M == quad((0, HALF, HALF), (HALF, 0, HALF), (HALF, HALF, 0))

    def test_definite_form_rejected(self):
        h = mp(3, (1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2)))
        with pytest.raises(SignatureError):
            classify_quadratic(h, (1, 0, 0))

    def test_sign_flip_recorded(self):
        h = mp(3, (-1, (0, 0, 2)), (HALF, (2, 0, 0)), (HALF, (0, 2, 0)))
        M, flipped = classify_quadratic(h, (0, 0, -1))
        assert flipped
        assert M == quad((-HALF, 0, 0), (0, -HALF, 0), (0, 0, 1))

    def test_singular_form_rejected(self):
        h = mp(3, (1, (2, 0, 0)), (-1, (0, 2, 0)))
        with pytest.raises(DegenerateError):
            classify_quadratic(h, (-1, 0, 0))

    def test_eigenvalues_match_numpy(self):
        # _inertia counts the signs of the eigenvalues that numpy computes: in floats
        # where none is within 1e-9 of 0 relative to the largest, and exactly on
        # small rationals with zero diagonals, where every nonzero eigenvalue is
        # far above that bound (6A is an integer matrix with entries up to 18)
        np = pytest.importorskip("numpy")

        def signs(A):
            w = np.linalg.eigvalsh(np.array(A, dtype=float))
            tol = 1e-9 * max(abs(w))
            return int((w > tol).sum()), int((w < -tol).sum()), int((abs(w) <= tol).sum())

        rng = random.Random(5)
        checked = 0
        for trial in range(600):
            d = 2 + trial % 3
            scale = 10.0 ** rng.uniform(-3, 3)
            A = [[0.0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i + 1):
                    A[i][j] = A[j][i] = rng.uniform(-1, 1) * scale
            want = signs(A)
            if want[2]:
                continue
            checked += 1
            assert _inertia(A) == want, (trial, A)
        assert checked > 590
        singular = 0
        for trial in range(600):
            d = 2 + trial % 3
            A = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i):
                    A[i][j] = A[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if trial % 2:
                    A[i][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if not any(map(any, A)):
                continue
            want = signs(A)
            singular += want[2] > 0
            assert _inertia(A) == want, (trial, A)
        assert singular > 30


class TestDuals:
    def test_aztec_dual(self):
        M = quad((-HALF, 0, 0), (0, -HALF, 0), (0, 0, 1))
        assert dual_quadratic(M) == quad((-2, 0, 0), (0, -2, 0), (0, 0, 1))

    def test_fls_dual(self):
        M = quad((0, HALF, HALF), (HALF, 0, HALF), (HALF, HALF, 0))
        assert dual_quadratic(M) == quad((-1, 1, 1), (1, -1, 1), (1, 1, -1))

    def test_grove_dual_matches_half_matrix(self):
        M = quad((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert dual_quadratic(M) == quad((-HALF, HALF, HALF), (HALF, -HALF, HALF),
                                         (HALF, HALF, -HALF))

    def test_normalizer_values(self):
        assert normalizer_absdet(quad((0, HALF, HALF), (HALF, 0, HALF), (HALF, HALF, 0))) == 2
        assert normalizer_absdet(quad((1, 0, 0), (0, -1, 0), (0, 0, -1))) == 1

    def test_involution_and_covariance(self):
        rng = random.Random(42)
        d = 3
        D = [[Fraction(1 if i == 0 else -1) if i == j else Fraction(0) for j in range(d)]
             for i in range(d)]
        checked = 0
        while checked < 100:
            L = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            det = (L[0][0] * (L[1][1] * L[2][2] - L[1][2] * L[2][1])
                   - L[0][1] * (L[1][0] * L[2][2] - L[1][2] * L[2][0])
                   + L[0][2] * (L[1][0] * L[2][1] - L[1][1] * L[2][0]))
            if det == 0:
                continue
            checked += 1
            M = _mat_mul(_mat_mul(_transpose(L), D), L)
            M = tuple(tuple(row) for row in M)
            dual = dual_quadratic(M)
            assert dual_quadratic(dual) == M
            # covariance: dual(L^T M L) == L^-1 dual(M) L^-T
            L2 = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            det2 = (L2[0][0] * (L2[1][1] * L2[2][2] - L2[1][2] * L2[2][1])
                    - L2[0][1] * (L2[1][0] * L2[2][2] - L2[1][2] * L2[2][0])
                    + L2[0][2] * (L2[1][0] * L2[2][1] - L2[1][1] * L2[2][0]))
            if det2 == 0:
                continue
            MM = tuple(tuple(row) for row in _mat_mul(_mat_mul(_transpose(L2), list(map(list, M))), L2))
            Linv = mat_inverse(tuple(tuple(row) for row in L2))
            want = _mat_mul(_mat_mul(list(map(list, Linv)), list(map(list, dual))),
                            list(map(list, _transpose(list(map(list, Linv))))))
            assert dual_quadratic(MM) == tuple(tuple(row) for row in want)


def _transpose(A):
    return [list(col) for col in zip(*A)]


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


class TestPointData:
    def test_aztec_point(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        assert data.s == 1
        assert data.normalizer_absdet == 2
        assert data.numerator_value == HALF
        assert data.linear_factors == (((0, 1, 1), 1),)
        assert data.dual_eval((0, 1, 1), (0, 1, 1)) == -1
        # pairing with (r,s,t) gives t - 2s
        assert data.dual_eval((3, 5, 7), (0, 1, 1)) == 7 - 2 * 5
        assert data.dual_eval((3, 5, 7), (0, 0, 0)) == 0

    def test_complex_point_or_coefficient_refused(self, fls):
        # the formulas read a real local form, so the local data of a complex
        # point, or of any point of a spec with a complex coefficient, is refused
        # where it would first be expanded, for every caller
        cases = [(fls.spec, (1 + 0j, 1, 1), "has a complex coordinate"),
                 (replaced(fls.spec, numerator=mp(3, (2j, (0, 0, 0)))), (1, 1, 1),
                  "has a complex local expansion")]
        for spec, Z, why in cases:
            for fn in (quadratic_point_data, local_degree):
                with pytest.raises(RefusalError) as err:
                    fn(spec, Z)
                assert str(err.value).startswith(f"point ({', '.join(map(str, Z))}) {why}")
                assert err.value.diagnostics == {"point": list(map(str, Z))}

    def test_dual_times_q_is_identity(self, aztec, cube_grove, fls, superballot_core):
        for pr in (aztec, cube_grove, fls, superballot_core):
            data = quadratic_point_data(pr.spec, (1, 1, 1))
            prod = _mat_mul(list(map(list, data.dual_matrix)), list(map(list, data.q_matrix)))
            assert prod == [[1 if i == j else 0 for j in range(3)] for i in range(3)]

    def test_integer_dual_form_matches_the_rational_sum(self, aztec, monkeypatch):
        # exact matrices and integer vectors (ints or integral Fractions) take
        # one integer bilinear form over L; anything else the plain sum
        base = quadratic_point_data(aztec.spec, (1, 1, 1))
        rng = random.Random(15)
        rational_sums = []
        real_bilinear = localgeo._bilinear

        def counted(M, a, b):
            rational_sums.append(M)
            return real_bilinear(M, a, b)

        monkeypatch.setattr(localgeo, "_bilinear", counted)
        for _ in range(20):
            dual = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3))
                         for _ in range(3))
            data = replaced(base, dual_matrix=dual)
            for _ in range(10):
                a, b = (tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(2))
                for x, y in ((a, b), (tuple(map(Fraction, a)), b)):
                    got = data.dual_eval(x, y)
                    want = real_bilinear(dual, x, y)
                    assert got == want and type(got) is type(want) is Fraction
            assert not rational_sums
            half = (Fraction(1, 2), 3, -1)
            assert data.dual_eval(half, a) == real_bilinear(dual, half, a)
            floats = replaced(base, dual_matrix=tuple(tuple(map(float, row)) for row in dual))
            got = floats.dual_eval(a, b)
            assert got == real_bilinear(floats.dual_matrix, a, b) and type(got) is float
            assert len(rational_sums) == 2
            rational_sums.clear()

    def test_scale_consistency(self, fls):
        # q -> lam q divides the dual pairing by lam and scales |M| by lam^(-d/2);
        # the combination |M| qdual(r)^(s - d/2) then scales like the factor power
        data = quadratic_point_data(fls.spec, (1, 1, 1))
        lam = Fraction(3)
        M2 = tuple(tuple(lam * x for x in row) for row in data.q_matrix)
        dual2 = dual_quadratic(M2)
        r = (5, 6, 7)
        q1 = sum(r[i] * sum(data.dual_matrix[i][j] * r[j] for j in range(3)) for i in range(3))
        q2 = sum(r[i] * sum(dual2[i][j] * r[j] for j in range(3)) for i in range(3))
        assert q2 == q1 / lam
        n1 = normalizer_absdet(data.q_matrix)
        n2 = normalizer_absdet(M2)
        assert n2 == n1 * lam ** Fraction(-3, 2) or abs(
            float(n2) - float(n1) * float(lam) ** -1.5) < 1e-12
        s = Fraction(3, 4)
        combo1 = float(n1) * float(q1) ** float(s - Fraction(3, 2))
        combo2 = float(n2) * float(q2) ** float(s - Fraction(3, 2))
        assert abs(combo2 - combo1 * float(lam) ** float(-s)) < 1e-12 * abs(combo1)


class TestClassifyDirection:
    def test_axis_direction(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        assert classify_direction(data, (0, 0, 1)).tag is DirectionTag.InteriorEllipticCone

    def test_flange_direction(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        assert classify_direction(data, (0, 9, 10)).tag is DirectionTag.InteriorE

    def test_outside_direction(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        assert classify_direction(data, (1, 0, 1)).tag is DirectionTag.OutsideNormalCone

    def test_obstructed_arc(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        # on the null cone with negative pairing against the covector: 2r^2+2s^2=t^2
        cls = classify_direction(data, (0, 5, math.sqrt(50)))
        assert cls.tag is DirectionTag.ObstructedBoundary

    def test_scaling_invariance(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        for r in [(0, 0, 1), (0, 9, 10), (1, 0, 1), (2, 3, 9)]:
            t1 = classify_direction(data, r).tag
            t2 = classify_direction(data, tuple(17 * x for x in r)).tag
            assert t1 is t2

    def test_two_linear_factors_unsupported(self, cube_grove):
        # no formula covers a point with two linear factors, so its local data is
        # refused by name and never reaches classify_direction
        spec = cube_grove.spec
        two = replaced(spec, factors=spec.factors + ((mp(3, (1, (0, 0, 0)), (-1, (1, 0, 0))),
                                                      1),))
        with pytest.raises(RefusalError) as err:
            quadratic_point_data(two, (1, 1, 1))
        assert str(err.value) == ("point (1, 1, 1) is where more than one linear factor "
                                  "vanishes: the contour formulas need at most one")
        assert err.value.diagnostics == {"point": ["1", "1", "1"]}

    def test_covector_inside_dual_cone_refused(self, qrw):
        # q*(ell, ell) = 1 > 0 for qrw2d's 1 - Z at (1, 1, 1): the intersection lines
        # are not real, so the point is outside the contour formulas, which is a
        # refusal and not a numeric failure; it is refused with the point's data,
        # before any direction reaches classify_direction, which needs q*(ell, ell) < 0
        data = quadratic_point_data(qrw.spec, (1, 1, 1))
        assert data.qll == 1
        with pytest.raises(localgeo.GeometryError):
            classify_direction(data, (1, 2, 9))
        with pytest.raises(RefusalError) as err:
            point_data(qrw.spec, qrw.known_points)
        assert str(err.value).startswith("point (1, 1, 1) has a linear factor inside the "
                                         "closed dual cone")
        assert err.value.diagnostics == {"dual_ll": "1", "point": ["1", "1", "1"]}


def _random_lorentzian_point(rng, base):
    """base's point data with a random dual form L^T diag(1,-1,-1) L (small
    integer L), the cone direction u = -L^T e_0 that picks the nappe with
    (L r)_0 > 0, and zero or one covector ell with q*(ell, ell) < 0 and
    ell . u < 0.  Also returns the sampling reference and a direction maker
    that lands inside the cone or the hull about half the time."""
    while True:
        L = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        # adjugate: L adj = det I, so L (adj v) = det v
        adj = [[L[(j + 1) % 3][(i + 1) % 3] * L[(j + 2) % 3][(i + 2) % 3]
                - L[(j + 1) % 3][(i + 2) % 3] * L[(j + 2) % 3][(i + 1) % 3]
                for j in range(3)] for i in range(3)]
        det = sum(L[0][k] * adj[k][0] for k in range(3))
        if det:
            break
    sign = (1, -1, -1)
    dual = [[sum(L[k][i] * sign[k] * L[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    u = tuple(-L[0][j] for j in range(3))

    def qdual(v):
        return sum(v[i] * dual[i][j] * v[j] for i in range(3) for j in range(3))

    ell = None
    if rng.random() < 0.5:
        ell = next(e for e in iter(lambda: tuple(rng.randint(-4, 4) for _ in range(3)), None)
                   if qdual(e) < 0 and sum(a * b for a, b in zip(e, u)) != 0)
        if sum(a * b for a, b in zip(ell, u)) > 0:
            ell = tuple(-x for x in ell)
    data = replaced(
        base, dual_matrix=tuple(tuple(Fraction(x) for x in row) for row in dual),
        linear_factors=((ell, 1),) if ell else (), cone_direction_u=u)
    uf = tuple(map(float, u))
    region = (hull_region(qdual, tuple(map(float, ell)), uf) if ell
              else k0_region(hull_region(qdual, (1.0, 0.0, 0.0), uf)))

    def direction():
        if rng.random() < 0.5:
            return tuple(rng.randint(-12, 12) for _ in range(3))
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        v = (rng.randint(abs(x) + abs(y), 6), x, y)  # (v0, v1, v2) in the forward cone
        r = [(1 if det > 0 else -1) * sum(adj[i][k] * v[k] for k in range(3)) for i in range(3)]
        if ell:
            lam = rng.randint(0, 3)
            r = [a + lam * b for a, b in zip(r, ell)]
        return tuple(r)

    return data, region, direction


def test_classifier_agrees_with_sampling_on_random_lorentzian_forms(cube_grove):
    base = quadratic_point_data(cube_grove.spec, (1, 1, 1))
    rng = random.Random(2024)
    checked = set()
    for _ in range(12):
        data, region, direction = _random_lorentzian_point(rng, base)
        for _ in range(10):
            r = direction()
            if not any(r):
                continue
            mine = classify_direction(data, r)
            if (mine.tag in (DirectionTag.Indeterminate, DirectionTag.ObstructedBoundary)
                    or abs(mine.margin) < 1e-2):
                continue  # the sampler is not reliable near boundaries
            assert mine.tag is region(r), (data.dual_matrix, data.linear_factors, r)
            checked.add((data.k, mine.tag))
    assert len(checked) == 5  # both k, and every decided tag
