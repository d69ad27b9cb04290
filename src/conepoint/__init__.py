"""Coefficient asymptotics at quadratic cone points, with an exact series oracle.

Each public name is imported from its home module on first use (PEP 562), so
`import conepoint` loads no submodule and the oracle never loads the formulas.
"""

import importlib

_EXPORTS = {
    "polyseries": "DomainError MultiPoly NonUnitError TruncatedSeries log_compose_taylor",
    "oracle": "CoeffTable NotNormalizedError QuasiRationalSpec SpecError coefficient_at "
              "empirical_decay expand expand_box naive_series normalize_laurent",
    "localgeo": "DegenerateError DirectionClass DirectionTag GeometryError QuadraticPointData "
                "SignatureError classify_direction classify_quadratic dual_quadratic "
                "homogeneous_part normalizer_absdet quadratic_point_data vanishing_degree",
    "asympt": "AsymptoticEstimate GammaPoleError PreparedPoint cone_constant "
              "cone_plane_asymptotics decay_exponent double_residue dual_power_derivative "
              "expansion_coefficients local_degree oriented_double_residue prepare "
              "quadratic_asymptotics smooth_asymptotics total_asymptotics",
    "presets": "Preset grove_relation_check preset qrw_simulate",
    "errors": "RefusalError",
}
_SUBMODULES = ("polyseries", "oracle", "localgeo", "asympt", "presets")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update((module, module) for module in _SUBMODULES)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)
