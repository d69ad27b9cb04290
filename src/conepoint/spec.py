"""The quasirational spec F = numerator * prod_j factor_j ^ (-power_j), and
the errors it raises.

Both halves read it: the oracle sweeps its series, and the prediction
modules analyse its points.  It lives apart from both, so that `asym` and
`classify`, which never sweep, compile none of the oracle's sweeps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .polyseries import Record


class SpecError(ValueError):
    """Raised for structurally invalid quasirational specs."""


class NotNormalizedError(SpecError):
    """Raised when a factor lacks the unit term the recurrence pivots on."""


class QuasiRationalSpec(Record):
    """F = numerator * prod_j factor_j ^ (-power_j).

    cone_direction_u is a reference direction interior to the
    series-convergence component (componentwise <= 0, e.g. (-1,...,-1) for
    an ordinary power series).  Laurent specs need no normalization: the
    sweeps expand them as given, graded along -cone_direction_u.
    """

    __slots__ = _fields = ("arity", "numerator", "factors", "cone_direction_u", "name")
    _defaults = {"name": ""}

    def __post_init__(self):
        if self.numerator.arity != self.arity:
            raise SpecError("numerator arity mismatch")
        facs = []
        for poly, power in self.factors:
            if poly.arity != self.arity:
                raise SpecError("factor arity mismatch")
            if poly.is_zero():
                raise SpecError("zero polynomial factor")
            if power == 0 or isinstance(power, complex):
                raise SpecError("factor powers must be nonzero reals")
            facs.append((poly, power))
        self.factors = tuple(facs)
        self.cone_direction_u = tuple(self.cone_direction_u)

    def all_integer_powers(self) -> bool:
        return all(_as_int(p) is not None and _as_int(p) > 0 for _, p in self.factors)


def _as_int(power) -> Optional[int]:
    if isinstance(power, int):
        return power
    if isinstance(power, Fraction) and power.denominator == 1:
        return power.numerator
    if isinstance(power, float) and power.is_integer():
        return int(power)
    return None
