"""Validity regions of the presets, decided by dense sampling.

This is the reference that tests compare `classify_direction` against: it
shares no code with the closed-form classifier, deciding membership in the
hull of the elliptic cone and the covector ray by sampling the
decomposition parameter.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

from conepoint.localgeo import DirectionTag
from references import grove_dual


def hull_region(qdual: Callable[[Sequence[float]], float], ell: Tuple[float, ...],
                u: Tuple[float, ...], tol: float = 1e-9) -> Callable[[Sequence], DirectionTag]:
    """Membership in the hull of the elliptic cone {qdual > 0, r.u < 0} and
    the covector ray ell."""

    def region(r: Sequence) -> DirectionTag:
        rf = [float(x) for x in r]
        rn2 = sum(x * x for x in rf)
        ru = sum(a * b for a, b in zip(rf, u))
        q = qdual(rf)
        if q > tol * rn2 and ru < 0:
            return DirectionTag.InteriorEllipticCone
        if abs(q) <= tol * rn2:
            qrl_proxy = qdual([a + 1e-7 * b for a, b in zip(rf, ell)]) - q
            return (DirectionTag.ObstructedBoundary if qrl_proxy < 0
                    else DirectionTag.Indeterminate)
        lam_hi = 4.0 * math.sqrt(rn2) / math.sqrt(sum(x * x for x in ell))
        lu = sum(a * b for a, b in zip(ell, u))
        for k in range(1, 4001):
            lam = lam_hi * k / 4000.0
            w = [a - lam * b for a, b in zip(rf, ell)]
            if qdual(w) > tol * rn2 and sum(a * b for a, b in zip(w, u)) < 0 \
                    and ru - lam * lu < 0:
                return DirectionTag.InteriorE
        return DirectionTag.OutsideNormalCone

    return region


def k0_region(region: Callable[[Sequence], DirectionTag]) -> Callable[[Sequence], DirectionTag]:
    """The region of a bare quadratic point: the elliptic cone alone."""

    def bare(r: Sequence) -> DirectionTag:
        tag = region(r)
        return tag if tag in (DirectionTag.InteriorEllipticCone,
                              DirectionTag.Indeterminate) else DirectionTag.OutsideNormalCone

    return bare


def _aztec_dual(v: Sequence[float]) -> float:
    return v[2] ** 2 - 2 * v[0] ** 2 - 2 * v[1] ** 2


_GROVE_HULL = hull_region(grove_dual, (0.0, 0.0, 1.0), (-1.0, -1.0, -1.0))

# preset name -> its validity region
VALIDITY_REGION = {
    "aztec": hull_region(_aztec_dual, (0.0, 1.0, 1.0), (0.0, 0.0, -1.0)),
    "cube_grove": _GROVE_HULL,
    "fls": k0_region(_GROVE_HULL),
    "superballot-core": k0_region(_GROVE_HULL),
}
