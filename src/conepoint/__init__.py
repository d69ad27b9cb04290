"""Coefficient asymptotics at quadratic cone points, with an exact series oracle."""

from .polyseries import (FIELD_COMPLEX, FIELD_RATIONAL, FIELD_REAL, DomainError,
                         MultiPoly, NonUnitError, TruncatedSeries, log_compose_taylor)
from .oracle import (CoeffTable, NotNormalizedError, QuasiRationalSpec, SpecError,
                     coefficient_at, empirical_decay, expand, expand_box,
                     naive_series, normalize_laurent)
from .localgeo import (DegenerateError, DirectionClass, DirectionTag, GeometryError,
                       QuadraticPointData, SignatureError, classify_direction,
                       classify_quadratic, dual_quadratic, homogeneous_part,
                       normalizer_absdet, quadratic_point_data, vanishing_degree)
from .asympt import (AsymptoticEstimate, ExpansionTable, GammaPoleError, PreparedPoint,
                     RefusalError, cone_constant, cone_plane_asymptotics, decay_exponent,
                     double_residue, dual_power_derivative, expansion_coefficients,
                     local_degree, oriented_double_residue, prepare, quadratic_asymptotics,
                     smooth_asymptotics, total_asymptotics)
from .presets import Preset, grove_relation_check, preset, qrw_simulate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
