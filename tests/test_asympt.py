import math
import random
from fractions import Fraction

import pytest

from conepoint.polyseries import MultiPoly, TruncatedSeries
from conepoint.localgeo import (DirectionTag, classify_direction, oriented_double_residue,
                                quadratic_point_data)
from conepoint.critpoints import CriticalPoint, find_smooth_critical
from conepoint import asympt, localgeo, polyseries
from conepoint.asympt import (RefusalError, cone_constant,
                              cone_plane_asymptotics, decay_exponent,
                              expansion_coefficients, local_degree, prepare,
                              quadratic_asymptotics, smooth_asymptotics, total_asymptotics)
from conepoint.oracle import QuasiRationalSpec, coefficient_at
from conepoint.presets import preset
from float_specs import floated
from references import double_residue, dual_power_derivative, mat_inverse


def mp(arity, *terms):
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


def replaced(data, **changes):
    """A copy of data built through its constructor, with the given fields changed."""
    return type(data)(**{**{name: getattr(data, name) for name in data._fields}, **changes})


HALF = Fraction(1, 2)


class TestConstants:
    def test_d3_s1_reduces_to_two_pi(self):
        # the explicit constant collapses to |M|/(2 pi) via the Gamma identities
        assert cone_constant(1, 3, 2) == 2 / (2 * math.pi)
        general = 2 / (2.0 ** 1 * math.pi ** 0.5 * math.gamma(1.0) * math.gamma(0.5))
        assert abs(cone_constant(1, 3, 2) - general) < 1e-13

    def test_gamma_poles_give_zero(self):
        # 1/Gamma is entire and vanishes at the poles of Gamma, within 1e-9 of them
        for s, d in ((0, 3), (-1, 3), (HALF, 3), (0.5 + 1e-12, 3), (-HALF, 3), (1, 4)):
            assert cone_constant(s, d, 1) == 0.0, (s, d)
        for s, d in ((0.5 + 1e-6, 3), (Fraction(3, 2), 3), (Fraction(3, 2), 4)):
            assert cone_constant(s, d, 1) > 0, (s, d)


class TestExpansionCoefficients:
    def test_pure_quadratic_no_corrections(self):
        q = TruncatedSeries(3, 5, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1})
        p = TruncatedSeries(3, 5, {(0, 0, 0): 1})
        table = expansion_coefficients(p, q, 1, 3)
        assert table == {((0, 0, 0), 0): 1}

    def test_aztec_leading_coefficient(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        table = expansion_coefficients(data.p_series, data.q_series, data.s, 1)
        assert table[((0, 0, 0), 0)] == HALF

    def test_fls_first_correction_is_minus_beta_remainder(self, fls):
        data = quadratic_point_data(fls.spec, (1, 1, 1))
        table = expansion_coefficients(data.p_series, data.q_series, data.s, 2)
        beta = Fraction(3, 4)
        q3 = {m: c for m, c in data.q_series.terms.items() if sum(m) == 3}
        for m, c in q3.items():
            # scaled by the unit normalization of the quadratic: c(m,1) = -beta R_m
            assert table[(m, 1)] == -beta * c
        # support condition |m| >= 3 l
        assert all(sum(m) >= 3 * ell for (m, ell) in table)


class TestDualPowerDerivative:
    def test_plain_power(self, fls):
        data = quadratic_point_data(fls.spec, (1, 1, 1))
        v = dual_power_derivative(data.dual_matrix, Fraction(-3, 4), (0, 0, 0),
                                  (50, 50, 50))
        assert abs(v - 7500.0 ** -0.75) < 1e-15 * abs(v)

    def test_matches_finite_differences(self, fls, aztec):
        rng = random.Random(17)
        duals = [quadratic_point_data(fls.spec, (1, 1, 1)).dual_matrix,
                 quadratic_point_data(aztec.spec, (1, 1, 1)).dual_matrix]
        checked = 0
        while checked < 50:
            dual = duals[rng.randrange(2)]
            alpha = Fraction(rng.randint(-7, 7), rng.choice([2, 3, 4]))
            if alpha == 0:
                continue
            m = [0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                m[rng.randrange(3)] += 1
            r = [rng.uniform(1.0, 3.0) for _ in range(3)]
            if dual is duals[0]:
                r = [abs(x) + 2.0 for x in r]          # interior of the forward cone
            else:
                r = [0.3 * x for x in r[:2]] + [4.0]   # inside the elliptic cone
            qval = sum(r[i] * sum(float(dual[i][j]) * r[j] for j in range(3))
                       for i in range(3))
            if qval < 0.5:
                continue
            checked += 1
            got = dual_power_derivative(dual, alpha, tuple(m), tuple(r))
            want = _fd_derivative(dual, float(alpha), tuple(m), list(r))
            scale = max(1.0, abs(want), abs(float(qval)) ** float(alpha))
            assert abs(got - want) <= 1e-6 * scale, (alpha, m, r)


def _fd_derivative(dual, alpha, m, r, h_rel=1e-4):
    def f(point):
        q = sum(point[i] * sum(float(dual[i][j]) * point[j] for j in range(3))
                for i in range(3))
        return q ** alpha

    h = h_rel * math.sqrt(sum(x * x for x in r))

    def deriv(fun, idx, point):
        p1 = list(point)
        p2 = list(point)
        p1[idx] += h
        p2[idx] -= h
        return (fun(p1) - fun(p2)) / (2 * h)

    fun = f
    for i in range(3):
        for _ in range(m[i]):
            fun = (lambda g, idx: lambda point: deriv(g, idx, point))(fun, i)
    return fun(r)


class TestDoubleResidue:
    def test_aztec_unit_residue(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        assert oriented_double_residue(data) == 1

    def test_grove_half_residue(self, cube_grove):
        data = quadratic_point_data(cube_grove.spec, (1, 1, 1))
        assert oriented_double_residue(data) == HALF

    def test_rescaling_and_pair_invariance(self):
        qt = mp(3, (1, (0, 0, 2)), (-HALF, (2, 0, 0)), (-HALF, (0, 2, 0)))
        ell = (0, 1, 1)
        alpha = (-1, -1, 1)
        v1 = double_residue(qt, ell, alpha)
        v2 = double_residue(qt, ell, tuple(2 * a for a in alpha))
        v3 = double_residue(qt, ell, tuple(-3 * a for a in alpha))
        assert abs(float(v1) - float(v2)) < 1e-12
        assert abs(float(v1) - float(v3)) < 1e-12
        # all three coordinate-pair formulas agree where nondegenerate
        A = [qt.diff(i).eval(list(alpha)) for i in range(3)]
        pairs = [(alpha[2], A[0] * ell[1] - A[1] * ell[0]),
                 (alpha[0], A[1] * ell[2] - A[2] * ell[1]),
                 (alpha[1], A[2] * ell[0] - A[0] * ell[2])]
        vals = [Fraction(num, 1) / den for num, den in pairs if den != 0]
        assert all(v == v1 for v in vals)

    def test_closed_form_is_the_residue_on_both_lines(self, aztec):
        # q = A^-T G A^-1 with G = diag(1, -c, b), b < 0, is Lorentzian, its null
        # lines in ell^perp are A (sqrt(c), +-1, 0) for ell = q A e3, and
        # -det q q*(ell, ell) = c (b / det A)^2: a rational square exactly when c is
        base = quadratic_point_data(aztec.spec, (1, 1, 1))
        rng = random.Random(5)
        draws = {True: 0, False: 0}
        while min(draws.values()) < 30:
            A = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            try:
                Ainv = mat_inverse(A)
            except localgeo.DegenerateError:
                continue
            b = -Fraction(rng.randint(1, 5), rng.randint(1, 5))
            c = Fraction(rng.choice([1, 4, Fraction(9, 4), 2, 3, Fraction(1, 2)]))
            root = polyseries._rational_root(c, 2) or math.sqrt(c)
            G = ((1, 0, 0), (0, -c, 0), (0, 0, b))
            q = tuple(tuple(sum(Ainv[k][i] * G[k][k] * Ainv[k][j] for k in range(3))
                            for j in range(3)) for i in range(3))
            ell = tuple(sum(q[i][j] * A[j][2] for j in range(3)) for i in range(3))
            data = replaced(base, q_matrix=q, dual_matrix=mat_inverse(q),
                            linear_factors=((ell, 1),))
            res = oriented_double_residue(data)
            qt = MultiPoly(3, {tuple((i == k) + (j == k) for k in range(3)):
                               q[i][j] if i == j else 2 * q[i][j]
                               for i in range(3) for j in range(i, 3) if q[i][j] != 0})
            vals = [double_residue(qt, ell, [A[i][0] * root + sign * A[i][1] for i in range(3)])
                    for sign in (1, -1)]
            exact = isinstance(root, Fraction)
            draws[exact] += 1
            if exact:
                assert isinstance(res, Fraction) and sorted(vals) == [-res, res]
            else:
                assert vals[0] * vals[1] < 0
                assert all(abs(abs(v) - res) <= 1e-13 * res for v in vals)


def cone_plane(data, r):
    """The cone-plane contribution at r, for the tag classify_direction gives r."""
    return cone_plane_asymptotics(data, r, classify_direction(data, r).tag)


class TestConePlane:
    def test_aztec_axis_value(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        tag = classify_direction(data, (0, 0, 9)).tag
        assert tag is DirectionTag.InteriorEllipticCone
        assert abs(cone_plane_asymptotics(data, (0, 0, 9), tag) - 0.125) < 1e-15

    def test_grove_center_value(self, cube_grove):
        data = quadratic_point_data(cube_grove.spec, (1, 1, 1))
        assert abs(cone_plane(data, (7, 7, 7)) - 1 / 3) < 1e-14

    def test_angle_is_right_angle_on_crossing_surface(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        # q*(r, ell) = t - 2s = 0 with q*(r,r) > 0: angle pi/2, value P Res2 / 2
        assert abs(cone_plane(data, (1, 10, 20)) - 0.5 * 0.5) < 1e-14

    def test_arctan_branch_continuity(self, aztec):
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        # walk across the crossing surface q*(r,ell) = 0 (s = t/2) inside the cone
        vals = [cone_plane(data, (1, s, 20000)) for s in (9998, 9999, 10000, 10001, 10002)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] - vals[0] < 1e-3  # continuous, no branch jump
        mid = cone_plane(data, (0, 10000, 20000))
        # exactly the right angle there: value = P(Z) Res2 / 2
        assert abs(mid - 0.5 * 1.0 / 2) < 1e-9

    def test_covector_inside_dual_cone_refused(self, monkeypatch, aztec):
        # a property of the point, so prepare refuses it once, by name, and no
        # direction is classified
        data = quadratic_point_data(aztec.spec, (1, 1, 1))
        inside = replaced(data, linear_factors=(((0, 0, 1), 1),))
        monkeypatch.setattr(asympt, "quadratic_point_data", lambda *args, **kwargs: inside)
        with pytest.raises(RefusalError) as err:
            prepare(aztec.spec, [(1, 1, 1)])
        assert err.value.diagnostics == {"dual_ll": "1", "point": ["1", "1", "1"]}
        with pytest.raises(localgeo.GeometryError, match="not real and distinct"):
            oriented_double_residue(inside)

    def test_obstructed_refusal(self, aztec):
        # 2 r^2 + 2 s^2 = t^2 with q*(r, ell) = t - 2s < 0: on the obstructed arc
        points = prepare(aztec.spec, [(1, 1, 1)])
        with pytest.raises(RefusalError) as err:
            total_asymptotics(aztec.spec, (1, 7, 10), points=points)
        assert err.value.diagnostics == {"class": "ObstructedBoundary", "margin": 0.0,
                                         "point": ["1", "1", "1"]}

    def test_vanishing_numerator_refused(self, cube_grove):
        # the cone-plane value is P(Z) times the angle term, so with P(Z) = 0 only a
        # decay bound is left: prepare refuses the point, and the formula only computes
        spec = replaced(cube_grove.spec, numerator=mp(3, (2, (0, 0, 2)), (-2, (1, 0, 0))))
        with pytest.raises(RefusalError) as err:
            prepare(spec, [(1, 1, 1)])
        assert str(err.value).startswith("point (1, 1, 1) has a vanishing numerator")
        assert err.value.diagnostics == {"numerator_valuation": 1, "point": ["1", "1", "1"]}
        zero = replaced(quadratic_point_data(cube_grove.spec, (1, 1, 1)), numerator_value=0)
        for tag in (DirectionTag.InteriorEllipticCone, DirectionTag.InteriorE):
            assert cone_plane_asymptotics(zero, (7, 7, 7), tag) == 0

    def test_scale_invariance_of_value(self, cube_grove):
        # replacing q by lam q (and the implied dual change) leaves the
        # arctan argument and the residue-numerator combination unchanged
        data = quadratic_point_data(cube_grove.spec, (1, 1, 1))
        lam = Fraction(5, 2)
        v1 = cone_plane(data, (3, 4, 5))
        # data.residue is cached by now; the copy must recompute it
        scaled = replaced(
            data, q_matrix=tuple(tuple(lam * x for x in row) for row in data.q_matrix),
            dual_matrix=tuple(tuple(x / lam for x in row) for row in data.dual_matrix),
            numerator_value=data.numerator_value * lam)
        v2 = cone_plane(scaled, (3, 4, 5))
        assert abs(v1 - v2) < 1e-13 * abs(v1)


# smooth_asymptotics for 1/(1 - x_1 - ... - x_d) along n * direction, recorded
# from the second fundamental form in an SVD tangent frame and its eigenvalues,
# a construction independent of the bordered-Hessian determinant
SMOOTH_VALUES = {
    (1, 1): (13072.540644194145, 605793952.5203681, 1.8397965366868255e+18,
             2.399797086022113e+37),
    (2, 1): (744459.1712347917, 2268590292248.48, 2.9792121932941934e+25),
    (1, 1, 1): (9731972773.909906, 1.3742982797905442e+21, 5.48114427527782e+43),
    (1, 2, 3): (2.4132377991944847e+19, 1.4636596419373419e+40, 1.0768372032022621e+82),
}


def _multinomial_errors(direction, ns):
    """Relative errors of the smooth-point formula for 1/(1 - x_1 - ... - x_d)
    along n * direction against the exact multinomial coefficients; each value
    must also match SMOOTH_VALUES within 1e-12 relative."""
    d = len(direction)
    one = MultiPoly.const(d, 1)
    h = one - sum((MultiPoly.variable(d, i) for i in range(1, d)), MultiPoly.variable(d, 0))
    x = [math.log(a / sum(direction)) for a in direction]
    cp = find_smooth_critical(h, direction, x, starts=40, seed=0).points[0]
    errs = []
    for n, pinned in zip(ns, SMOOTH_VALUES[direction]):
        r = tuple(n * a for a in direction)
        val = smooth_asymptotics(one, h, cp, r, cone_direction_u=(-1,) * d)
        assert abs(val - pinned) <= 1e-12 * pinned
        exact = math.factorial(sum(r)) // math.prod(math.factorial(a) for a in r)
        errs.append(abs(val - exact) / exact)
    assert errs == sorted(errs, reverse=True)
    return errs


class TestSmoothPoint:

    def test_diagonal_binomials(self):
        assert _multinomial_errors((1, 1), (8, 16, 32, 64))[-1] < 0.02

    def test_off_diagonal_binomials(self):
        assert _multinomial_errors((2, 1), (8, 16, 32))[-1] < 0.02

    @pytest.mark.parametrize("direction", [(1, 1, 1), (1, 2, 3)], ids=str)
    def test_trinomials(self, direction):
        # d = 3: two principal curvatures; 0.70% and 0.43% at n = 32
        assert _multinomial_errors(direction, (8, 16, 32))[-1] < 0.01

    def test_flat_log_variety_refused(self):
        # 1 - X: the log-variety {x = 0} is flat, so the bordered Hessian is singular
        h = MultiPoly.const(2, 1) - MultiPoly.variable(2, 0)
        cp = CriticalPoint((Fraction(1), Fraction(1)), 0.0, True)
        with pytest.raises(localgeo.DegenerateError, match="curvature-degenerate"):
            smooth_asymptotics(MultiPoly.const(2, 1), h, cp, (5, 0), cone_direction_u=(-1, -1))


class TestDecay:
    def test_qrw_local_degree(self, qrw):
        # numerator vanishes to order 2; quadratic contributes -2, simple pole -1
        deg = local_degree(qrw.spec, (1, 1, 1))
        assert deg == -1
        assert decay_exponent(qrw.spec.arity, [deg]) == 2.0

    def test_smooth_pole_bound(self, cube_grove):
        deg = local_degree(cube_grove.spec, (1, 1, 1))
        # numerator order 0, quadratic -2, simple pole -1
        assert deg == -3
        assert decay_exponent(cube_grove.spec.arity, [deg]) == 0.0

    def test_fls_exponent(self, fls):
        deg = local_degree(fls.spec, (1, 1, 1))
        assert deg == Fraction(-3, 2)
        assert decay_exponent(fls.spec.arity, [deg]) == 1.5

    # local degrees recorded with the per-factor expansions that local_degree
    # computed before it read them from the point data
    @pytest.mark.parametrize("name,companion,degree", [
        ("aztec", None, -3), ("aztec", "creation", -2),
        ("cube_grove", None, -3), ("cube_grove", "creation", -2),
        ("qrw2d", "E", -1), ("qrw2d", "N", -1), ("qrw2d", "S", -1), ("qrw2d", "W", -1),
        ("fls", None, Fraction(-3, 2)), ("superballot-core", None, -2),
    ])
    def test_prepared_degree_on_preset_points(self, name, companion, degree):
        pr = preset(name)
        spec = pr.companions[companion] if companion else pr.spec
        for Z in pr.known_points:
            assert quadratic_point_data(spec, Z).degree == degree
            assert local_degree(spec, Z) == degree
        if name == "qrw2d":  # its linear factors lie inside the closed dual cone
            with pytest.raises(RefusalError, match="closed dual cone"):
                prepare(spec, pr.known_points)
        else:
            assert [pt.data.degree for pt in prepare(spec, pr.known_points)] == \
                [degree] * len(pr.known_points)

    @pytest.mark.parametrize("name", ["aztec", "cube_grove", "qrw2d", "fls"])
    def test_prepare_log_composes_each_factor_once(self, monkeypatch, name):
        pr = preset(name)
        calls = []
        real = polyseries.log_compose_taylor

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (polyseries, localgeo, asympt):
            if hasattr(mod, "log_compose_taylor"):
                monkeypatch.setattr(mod, "log_compose_taylor", counted)
        if name == "qrw2d":  # refused once the data of both its points is built
            with pytest.raises(RefusalError, match="closed dual cone"):
                prepare(pr.spec, pr.known_points)
        else:
            prepare(pr.spec, pr.known_points)
        assert len(calls) == len(pr.known_points) * (1 + len(pr.spec.factors))


class TestTotals:
    def test_aztec_parity(self, aztec):
        pts = list(aztec.known_points)
        odd = total_asymptotics(aztec.spec, (0, 0, 9), points=pts)
        even = total_asymptotics(aztec.spec, (0, 0, 8), points=pts)
        single = total_asymptotics(aztec.spec, (0, 0, 9), points=pts[:1])
        assert abs(odd.value - 0.25) < 1e-14
        assert even.value == 0.0
        assert abs(odd.value - 2 * single.value) < 1e-15

    def test_fls_direction(self, fls):
        est = total_asymptotics(fls.spec, (50, 50, 50), points=[(1, 1, 1)])
        assert abs(est.value - 0.000222832864642456) < 1e-12
        assert est.decay_exponent == 1.5

    def test_outside_is_zero_with_note(self, aztec):
        est = total_asymptotics(aztec.spec, (1, 0, 1), points=list(aztec.known_points))
        assert est.value == 0.0
        assert est.formula_tag == "exponential-decay"

    def test_quadratic_requires_interior(self, monkeypatch, superballot_core):
        # the series is written for directions inside the elliptic cone, so
        # total_asymptotics classifies first and never evaluates it outside
        pt, = prepare(superballot_core.spec, [(1, 1, 1)])
        cls = classify_direction(pt.data, (1, 0, 0))
        assert cls.tag is DirectionTag.OutsideNormalCone and cls.margin < 0

        def series(*args):
            raise AssertionError("the series evaluated outside the elliptic cone")

        monkeypatch.setattr(asympt, "quadratic_asymptotics", series)
        est = total_asymptotics(superballot_core.spec, (1, 0, 0), points=[pt])
        assert est.value == 0 and est.formula_tag == "exponential-decay"
        assert [(c.direction_class, c.value) for c in est.per_point] == \
            [("OutsideNormalCone", 0)]

    def test_superballot_prediction(self, superballot_core):
        est = total_asymptotics(superballot_core.spec, (10, 20, 30), points=[(1, 1, 1)])
        assert abs(est.value * 2 ** 60 - 2.595e16) < 0.001e16

    # t^N err along t(1,1,1) with N series terms: at t = 16..32 it was
    # 0.19-0.15, 1.03-0.87, 4.3-3.2, 26.2-16.3 (fls) and 0.338-0.336,
    # 0.039-0.038, 0.013, 0.0045-0.0043 (superballot-core); the constant of
    # q^(-s) on every term gave fls 1.5-1.9 and 27-44, superballot-core 5-11
    # and 7-159 for N = 2, 3, and a local order of 8 for N = 4 (which needs
    # 9) gave fls 38-40 and superballot-core 5.2-10.4
    @pytest.mark.parametrize("name,bounds", [("fls", (0.3, 1.5, 6.0, 35.0)),
                                             ("superballot-core", (0.5, 0.08, 0.03, 0.01))])
    def test_each_series_term_gains_an_order(self, name, bounds):
        pr = preset(name)
        ts = (16, 24, 32)
        exact = [float(coefficient_at(pr.spec, (t, t, t))) for t in ts]
        for N, bound in enumerate(bounds, 1):
            points = prepare(pr.spec, pr.known_points, order_terms=N)
            scaled = [t ** N * abs(total_asymptotics(pr.spec, (t, t, t), points=points).value
                                   - a) / abs(a) for t, a in zip(ts, exact)]
            assert max(scaled) <= bound, (N, scaled)
            assert scaled[-1] <= 1.01 * scaled[0], (N, scaled)

    # at beta = 3/2, s - d/2 = 0: every power of qdual in the series is an integer,
    # which the series raises exactly (measured 6.9e-4, 2.0e-6, 2.2e-11)
    def test_integer_powers_of_the_dual_form(self):
        pr = preset("fls", beta=Fraction(3, 2))
        points = prepare(pr.spec, pr.known_points)
        errors = []
        for t in (8, 16, 32):
            exact = float(coefficient_at(pr.spec, (t, t, t)))
            est = total_asymptotics(pr.spec, (t, t, t), points=points)
            assert est.formula_tag == "quadratic-point-series"
            errors.append(abs(est.value - exact) / abs(exact))
        assert errors[0] < 1e-3 and errors[1] < errors[0] / 100 and errors[2] < errors[1] / 1e4

    # known points given as floats take the float branch of Z^-r; their estimates
    # match the exact points' at bare (superballot-core) and cone-plane points
    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("name,directions", [
        ("aztec", [(0, 0, 9), (2, 1, 8), (3, -2, 10)]),
        ("cube_grove", [(5, 6, 7), (10, 10, 10)]),
        ("superballot-core", [(10, 20, 30), (12, 11, 10)]),
    ])
    def test_float_points_match_exact_points(self, name, directions, floats):
        pr = preset(name)
        spec = floated(pr.spec) if floats else pr.spec
        float_points = [tuple(map(float, pt)) for pt in pr.known_points]
        for r in directions:
            want = total_asymptotics(spec, r, points=list(pr.known_points))
            got = total_asymptotics(spec, r, points=float_points)
            assert all(type(c.Z[0]) is float for c in got.per_point)
            assert got.formula_tag == want.formula_tag and want.value != 0
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value), (r, got, want)

    # prepare sums the (m, l) terms of each order l into one polynomial per power
    # offset; the term-by-term sum of the series is the reference
    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("name,directions", [
        ("fls", [(10, 11, 12), (6, 9, 14)]),
        ("superballot-core", [(10, 20, 30), (12, 11, 10)]),
    ])
    def test_grouped_series_matches_the_term_by_term_sum(self, name, directions, floats):
        pr = preset(name)
        spec = floated(pr.spec) if floats else pr.spec
        prepared = {N: prepare(spec, pr.known_points, order_terms=N)[0] for N in (2, 3, 4)}
        data = prepared[4].data
        s, d = data.s, data.arity
        coeffs = expansion_coefficients(data.p_series, data.q_series, s, 4)
        for r in directions:
            terms = {(m, ell): float(c) * (-1) ** sum(m)
                     * cone_constant(s + ell, d, data.normalizer_absdet)
                     * dual_power_derivative(data.dual_matrix, s + ell - Fraction(d, 2), m, r)
                     for (m, ell), c in coeffs.items()}
            zr = float(asympt.z_power_neg(data.point_Z, r))
            for N, pt in prepared.items():
                want = zr * math.fsum(v for (m, ell), v in terms.items() if sum(m) - 2 * ell < N)
                got = quadratic_asymptotics(pt.data, pt.series, r)
                assert want != 0 and abs(got - want) <= 1e-12 * abs(want), (N, r, got, want)

    @pytest.mark.parametrize("name,directions", [
        ("aztec", [(0, 0, 9), (0, 0, 8), (1, 0, 1), (3, -2, 11), (5, 6, 9)]),
        ("cube_grove", [(5, 6, 7), (9, 9, 9), (1, 1, 9)]),
        ("fls", [(10, 10, 10), (6, 9, 14), (1, 0, 0)]),
        ("superballot-core", [(10, 20, 30), (12, 12, 12)]),
    ])
    def test_prepared_points_give_the_same_estimates(self, monkeypatch, name, directions):
        pr = preset(name)
        raw = [total_asymptotics(pr.spec, r, points=prepare(pr.spec, pr.known_points,
                                                            order_terms=2))
               for r in directions]
        prepared = prepare(pr.spec, pr.known_points, order_terms=2)
        assert [p.data.point_Z for p in prepared] == [tuple(Z) for Z in pr.known_points]

        def per_point_work(*args, **kwargs):
            raise AssertionError("per-point work repeated for a prepared point")

        # the series' derivative polynomials and constants included: a direction only
        # evaluates them
        for fn in ("quadratic_point_data", "local_degree", "expansion_coefficients",
                   "_derivative_terms", "cone_constant"):
            monkeypatch.setattr(f"conepoint.asympt.{fn}", per_point_work)
        calls = {"classify_direction": 0, "oriented_double_residue": 0}
        for module, fn in ((asympt, "classify_direction"), (localgeo, "oriented_double_residue")):
            def counted(*args, _fn=fn, _real=getattr(module, fn), **kwargs):
                calls[_fn] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, fn, counted)
        assert [total_asymptotics(pr.spec, r, points=prepared)
                for r in directions] == raw
        # one classification per (point, direction), one residue per cone-plane point
        assert calls == {"classify_direction": len(prepared) * len(directions),
                         "oriented_double_residue": sum(p.data.k == 1 for p in prepared)}


def fls_half() -> QuasiRationalSpec:
    """fls at power 1/2, which the preset does not take: s + 1 - d/2 = 0, so K(s) = 0."""
    spec = preset("fls").spec
    (poly, _), = spec.factors
    return QuasiRationalSpec(spec.arity, spec.numerator, ((poly, HALF),),
                             spec.cone_direction_u, spec.name)


class TestLacuna:
    def test_oracle_decays_faster_than_a_power(self):
        spec = fls_half()
        scaled = [n ** 8 * float(coefficient_at(spec, (n, n, n))) for n in (16, 32)]
        assert 0 < scaled[1] < scaled[0], scaled

    def test_every_order_vanishes(self):
        # K(s) is 0 at order 0, and the falling factorial of alpha_l in each derivative
        # empties every polynomial of the orders l >= 1: no order needs K(s) as a limit
        data = quadratic_point_data(fls_half(), (1, 1, 1), order=9)
        for N in (1, 2, 3, 4):
            for K, _, polys in asympt._series_terms(data, N):
                assert K == 0 or not any(p.terms for p in polys.values()), (N, K)

    def test_prepare_keeps_no_series_and_names_the_lacuna(self):
        spec = fls_half()
        pt, = prepare(spec, [(1, 1, 1)], order_terms=4)
        assert pt.data.k == 0 and pt.series is None
        est = total_asymptotics(spec, (5, 5, 5), points=[pt])
        assert (est.value, est.formula_tag) == (0, "lacuna")
        assert [(c.formula, c.value) for c in est.per_point] == [("lacuna", 0)]
        assert "smaller than every power" in est.notes[0]
        est = total_asymptotics(spec, (1, 0, 0), points=[pt])
        assert (est.value, est.formula_tag) == (0, "exponential-decay")
        assert [c.formula for c in est.per_point] == ["outside"]

    def test_a_predicting_point_names_the_estimate(self, fls):
        # the estimate takes the formula of the contributions that predict
        lacuna = prepare(fls_half(), [(1, 1, 1)])
        series = prepare(fls.spec, fls.known_points)
        alone = total_asymptotics(fls.spec, (10, 10, 10), points=series)
        est = total_asymptotics(fls.spec, (10, 10, 10), points=lacuna + series)
        assert (est.value, est.formula_tag, est.notes) == (alone.value, alone.formula_tag, ())
        assert [c.formula for c in est.per_point] == ["lacuna", "quadratic-point-series"]
