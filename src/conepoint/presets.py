"""The five shipped applications as ready-made quasirational specs.

Each preset bundles the spec, its known quadratic points on the unit
torus and companion specs (creation rates, the other walk chiralities,
the other superballot form).  Cross-model identities (creation
rates, step-simulation of the quantum walk, superballot closed forms) live
here too, as the honest checks that the machinery reproduces known
combinatorics.

The quantum-walk amplitude generating functions are written out as the
cofactors of I - M, where M is the coin matrix with row xi scaled by
Z X^{v_xi}; the starting state ((0,0), N) corresponds to column N, and
det(I - M) = (1 - Z^2) Q.  Sign and row/column orientation conventions
vary between derivations of this system, so the numerators shipped here
are matched exactly against the step simulator qrw_walk for all
positions, chiralities and t <= 16 (acceptance criterion 07).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple

from .polyseries import MultiPoly, Record
from .spec import QuasiRationalSpec, SpecError

if TYPE_CHECKING:
    from .oracle import CoeffTable


def _mp(arity, *terms) -> MultiPoly:
    return MultiPoly.from_terms(arity, [(e, c) for c, e in terms])


_HALF = Fraction(1, 2)

# denominator shared by the Aztec diamond and the 2-D Hadamard walk
_Q_CHECKER = _mp(3, (1, (0, 0, 0)), (-_HALF, (1, 0, 1)), (-_HALF, (-1, 0, 1)),
                 (-_HALF, (0, 1, 1)), (-_HALF, (0, -1, 1)), (1, (0, 0, 2)))
_H_AZTEC = _mp(3, (1, (0, 0, 0)), (-1, (0, 1, 1)))          # 1 - YZ
_P_AZTEC = _mp(3, (_HALF, (0, 0, 1)))                       # Z/2

_Q_GROVE = _mp(3, (3, (0, 0, 0)), (3, (1, 1, 1)), (-1, (1, 0, 0)), (-1, (0, 1, 0)),
               (-1, (0, 0, 1)), (-1, (1, 1, 0)), (-1, (1, 0, 1)), (-1, (0, 1, 1)))
_H_GROVE = _mp(3, (1, (0, 0, 0)), (-1, (0, 0, 1)))          # 1 - Z
_P_GROVE = _mp(3, (2, (0, 0, 2)))                           # 2 Z^2

_Q_FLS = _mp(3, (3, (0, 0, 0)), (-2, (1, 0, 0)), (-2, (0, 1, 0)), (-2, (0, 0, 1)),
             (1, (1, 1, 0)), (1, (1, 0, 1)), (1, (0, 1, 1)))

_Q_SUPER_CORE = _mp(3, (2, (0, 0, 0)), (-1, (1, 0, 0)), (-1, (0, 1, 0)),
                    (-1, (0, 0, 1)), (1, (1, 1, 1)))        # 2 - X - Y - Z + XYZ
_Q_SUPER_SQRT = _mp(3, (1, (0, 0, 0)), (-4, (1, 0, 1)))     # 1 - 4XZ
_Q_SUPER_POLE = _mp(3, (1, (0, 0, 0)), (-1, (1, 0, 0)), (-1, (0, 1, 0)),
                    (-1, (0, 0, 1)), (4, (1, 1, 1)))        # 1 - X - Y - Z + 4XYZ
_P_SUPER = _mp(3, (1, (0, 0, 0)), (-2, (1, 0, 0)))          # 1 - 2X


class Preset(Record):
    __slots__ = _fields = ("name", "spec", "known_points", "companions")

    def __init__(self, name: str, spec: QuasiRationalSpec,
                 known_points: Tuple[Tuple[object, ...], ...],
                 companions: Optional[Dict[str, QuasiRationalSpec]] = None):
        self.name = name
        self.spec = spec
        self.known_points = known_points
        self.companions = {} if companions is None else companions


# -- Aztec diamond --------------------------------------------------------------


def _aztec() -> Preset:
    # northgoing domino placement probabilities at indices (i, j, n), supported
    # on -n < i, j <= n with i + j + n odd
    spec = QuasiRationalSpec(3, _P_AZTEC, ((_Q_CHECKER, 1), (_H_AZTEC, 1)),
                             (0, 0, -1), name="aztec")
    # the creation rates carry a factor 2 in their definition, so their
    # generating function is Z/Q rather than (Z/2)/Q
    creation = QuasiRationalSpec(3, _mp(3, (1, (0, 0, 1))), ((_Q_CHECKER, 1),),
                                 (0, 0, -1), name="aztec-creation")
    return Preset("aztec", spec, ((1, 1, 1), (-1, -1, -1)), {"creation": creation})


# -- cube groves ----------------------------------------------------------------


def _cube_grove() -> Preset:
    # horizontal-edge placement probabilities, in barycentric indices
    spec = QuasiRationalSpec(3, _P_GROVE, ((_H_GROVE, 1), (_Q_GROVE, 1)),
                             (-1, -1, -1), name="cube_grove")
    creation = QuasiRationalSpec(3, _mp(3, (3, (0, 0, 1))), ((_Q_GROVE, 1),),
                                 (-1, -1, -1), name="cube_grove-creation")
    return Preset("cube_grove", spec, ((1, 1, 1),), {"creation": creation})


def grove_relation_check(n: int, edge_table: Optional[CoeffTable] = None,
                         create_table: Optional[CoeffTable] = None) -> bool:
    """Creation rates vs probability differences, checked via the oracle.

    For order n >= 1 the identity reads (with barycentric tables)
    create(i,j,k-1) = (3/2) * (edge(i,j,k) - edge(i,j,k-1)) at every
    (i,j,k) with i+j+k = n.  The empty order n = 0 is skipped by
    convention (there are no faces to shuffle).
    """
    if n < 1:
        raise ValueError("relation is defined for n >= 1; n = 0 is skipped by convention")
    from .oracle import expand
    g = _cube_grove()
    if edge_table is None:
        edge_table = expand(g.spec, n)
    if create_table is None:
        create_table = expand(g.companions["creation"], n)
    three_half = Fraction(3, 2)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            lhs = create_table.value_at((i, j, k - 1)) if k >= 1 else Fraction(0)
            prev = edge_table.value_at((i, j, k - 1)) if k >= 1 else Fraction(0)
            rhs = three_half * (edge_table.value_at((i, j, k)) - prev)
            if lhs != rhs:
                return False
    return True


def aztec_creation_check(n_max: int) -> bool:
    """c(i,j,n) = 2 (p(i,j,n) - p(i,j-1,n-1)) for all levels <= n_max - 1,
    checked at every cell where c or p is nonzero."""
    from .oracle import expand
    a = _aztec()
    p_table = expand(a.spec, n_max)
    c_table = expand(a.companions["creation"], n_max)
    p, c = p_table.value_at, c_table.value_at
    return all(c((i, j, n)) == 2 * (p((i, j, n)) - p((i, j - 1, n - 1)))
               for i, j, n in p_table.cells.keys() | c_table.cells.keys() if n < n_max)


# -- two-dimensional Hadamard quantum walk ----------------------------------------

_QRW_STATES = "ENWS"
_QRW_DISP = ((1, 0), (0, 1), (-1, 0), (0, -1))
_QRW_SIGN = tuple(tuple(1 if i == j else -1 for j in range(4)) for i in range(4))  # 2 * coin
_QRW_START = 1  # chirality N


# the cofactors of I - M for the start column N, one numerator per ending chirality
_QRW_NUMERATORS = {
    "E": _mp(3, (-_HALF, (1, 0, 1)), (_HALF, (1, -1, 2)), (_HALF, (0, 0, 2)),
             (-_HALF, (0, -1, 3))),
    "N": _mp(3, (1, (0, 0, 0)), (-_HALF, (0, -1, 1)), (-_HALF, (-1, 0, 1)),
             (-_HALF, (1, 0, 1)), (_HALF, (0, -1, 3))),
    "W": _mp(3, (-_HALF, (-1, 0, 1)), (_HALF, (-1, -1, 2)), (_HALF, (0, 0, 2)),
             (-_HALF, (0, -1, 3))),
    "S": _mp(3, (_HALF, (-1, -1, 2)), (-_HALF, (0, -1, 1)), (-_HALF, (0, -1, 3)),
             (_HALF, (1, -1, 2))),
}


def _qrw() -> Preset:
    # amplitudes per ending chirality from ((0,0), N); a probability is the sum
    # of the squared amplitudes
    one_minus_z = _mp(3, (1, (0, 0, 0)), (-1, (0, 0, 1)))
    one_plus_z = _mp(3, (1, (0, 0, 0)), (1, (0, 0, 1)))
    specs = {ch: QuasiRationalSpec(3, _QRW_NUMERATORS[ch],
                                   ((_Q_CHECKER, 1), (one_minus_z, 1), (one_plus_z, 1)),
                                   (0, 0, -1), name=f"qrw2d-{ch}")
             for ch in _QRW_STATES}
    return Preset("qrw2d", specs["N"], ((1, 1, 1), (-1, -1, -1)), specs)


def qrw_walk(times: Iterable[int]) -> Iterator[Tuple[int, Dict[Tuple[int, int, int], Fraction]]]:
    """(t, qrw_simulate(t)) for each of the increasing times, from one walk.

    The coin is _QRW_SIGN / 2, so the walk carries 2^step * amplitude as
    Python ints (past int64 for large t); a state becomes Fractions only
    at the times asked for.
    """
    state: Dict[Tuple[int, int, int], int] = {(0, 0, _QRW_START): 1}
    step = 0
    for t in times:
        if t < step:
            raise ValueError("times must be nonnegative and increasing")
        for _ in range(t - step):
            new: Dict[Tuple[int, int, int], int] = {}
            for (x, y, eta), amp in state.items():
                for xi, (dx, dy) in enumerate(_QRW_DISP):
                    key = (x + dx, y + dy, xi)
                    new[key] = new.get(key, 0) + _QRW_SIGN[xi][eta] * amp
            state = {key: amp for key, amp in new.items() if amp}
        step = t
        yield t, {key: Fraction(amp, 2 ** t) for key, amp in state.items()}


def qrw_simulate(t: int) -> Dict[Tuple[int, int, int], Fraction]:
    """Exact state after t coin-then-shift steps from ((0,0),N).

    Keys are (x, y, chirality index in ENWS); values are rational
    amplitudes.  This is the independent oracle the generating functions
    are checked against.
    """
    (_, state), = qrw_walk([t])
    return state


# -- graph-polynomial fractional powers --------------------------------------------


def _fls(beta=Fraction(3, 4)) -> Preset:
    beta = Fraction(beta) if not isinstance(beta, float) else beta
    if not float(beta) > 0.5:
        raise SpecError("the graph-polynomial preset needs beta > 1/2")
    spec = QuasiRationalSpec(3, MultiPoly.const(3, 1), ((_Q_FLS, beta),),
                             (-1, -1, -1), name="fls")
    return Preset("fls", spec, ((1, 1, 1),))


# -- superballot numbers --------------------------------------------------------------


def superballot_number(n: int, k: int, r: int) -> int:
    """Closed form (k+2r)! (2n+k-1)! / ((k-1)! r! n! (n+k+r)!)."""
    num = math.factorial(k + 2 * r) * math.factorial(2 * n + k - 1)
    den = (math.factorial(k - 1) * math.factorial(r) * math.factorial(n)
           * math.factorial(n + k + r))
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("superballot closed form is not integral here")
    return q


def _superballot(core: bool) -> Preset:
    full = QuasiRationalSpec(3, _P_SUPER, ((_Q_SUPER_SQRT, Fraction(1, 2)),
                                           (_Q_SUPER_POLE, 1)), (-1, -1, -1),
                             name="superballot")
    core_spec = QuasiRationalSpec(3, MultiPoly.const(3, 2), ((_Q_SUPER_CORE, 1),),
                                  (-1, -1, -1), name="superballot-core")
    # the core coefficients of 2/(2-X-Y-Z+XYZ) are 2^-(a+b+c) times the
    # multiset-permutation counts N(a,b,c); the square-root spec is oracle-only,
    # its algebraic factor outside the contour formulas
    if core:
        return Preset("superballot-core", core_spec, ((1, 1, 1),), {"full": full})
    return Preset("superballot", full, ((Fraction(1, 2),) * 3,), {"core": core_spec})


# -- registry ----------------------------------------------------------------------------

PRESET_NAMES = ("aztec", "cube_grove", "qrw2d", "fls", "superballot", "superballot-core")


def preset(name: str, beta=None) -> Preset:
    """Look up a shipped application by name (`fls` takes beta > 1/2)."""
    if name == "aztec":
        return _aztec()
    if name == "cube_grove":
        return _cube_grove()
    if name == "qrw2d":
        return _qrw()
    if name == "fls":
        return _fls(beta if beta is not None else Fraction(3, 4))
    if name == "superballot":
        return _superballot(core=False)
    if name == "superballot-core":
        return _superballot(core=True)
    raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
