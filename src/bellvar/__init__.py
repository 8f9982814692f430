"""Variance-based bounds on Bell inequality violations.

The package splits states along observables (mean, spread, fluctuation
direction), assembles Bell reports whose statistical bounds are built
from those pieces, enumerates exact local-hidden-variable maxima,
maximizes expressions by see-saw, and samples measurement rounds from
the Born rule for empirical cross-checks.

``import bellvar`` loads no submodule.  Each public name is looked up in
``_EXPORTS`` on first attribute access (PEP 562) and comes from its
defining submodule, imported then; ``bellvar.preset`` is the same object
as ``bellvar.presets.preset``.  A short command line run therefore pays
only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the public names it exports; each module reads its __all__ from here
_EXPORTS = {
    "avdecomp": (
        "SPREAD_EPS",
        "AVDecomposition",
        "CorrelatorSplit",
        "DegenerateSpreadError",
        "av_decompose",
        "correlator_split",
        "pearson",
        "reconstruction_residual",
    ),
    "bounds": (
        "SATURATION_ATOL",
        "SLACK_FLOOR",
        "TSIRELSON_CHSH",
        "BellReport",
        "ChainGeometry",
        "PearsonChshReport",
        "SaturationFlags",
        "chained_report",
        "chsh_report",
        "mk_report",
        "pearson_chsh_report",
        "report_for",
        "report_to_json_dict",
        "saturation_check",
    ),
    "linalg": (
        "DIM_CAP",
        "ID2",
        "SIGMA_X",
        "SIGMA_Y",
        "SIGMA_Z",
        "as_hermitian",
        "as_ket",
        "expectation",
        "haar_random_ket",
        "is_dichotomic",
        "random_hermitian",
        "tensor_product",
        "top_eigenpair",
    ),
    "montecarlo": (
        "EmpiricalCheck",
        "EmpiricalEstimates",
        "SampleBatch",
        "UndersampledError",
        "batch_to_csv",
        "empirical_check",
        "estimate",
        "estimates_to_json_dict",
        "simulate_rounds",
    ),
    "optimize": (
        "CONVERGENCE_EPS",
        "OptimizationResult",
        "ScanSummary",
        "StationarityReport",
        "random_scan",
        "seesaw_max",
        "stationarity_check",
        "statistical_chsh_surface",
    ),
    "presets": ("PRESET_NAMES", "Preset", "chained_optimal_settings", "preset"),
    "scenarios": (
        "LHV_ENUMERATION_CAP_BITS",
        "MK_MAX_PARTIES",
        "SCHEMA_VERSION",
        "FamilySpec",
        "MKOperatorPair",
        "Scenario",
        "bell_state",
        "bloch_observable",
        "bloch_of",
        "chained_coefficients",
        "chained_family",
        "chsh_coefficients",
        "chsh_family",
        "coefficient_tensor",
        "from_bloch_table",
        "ghz_state",
        "lhv_max",
        "load_scenario_file",
        "mk_coefficient_pair",
        "mk_family",
        "mk_operators",
        "operator_from_tensor",
        "random_scenario",
        "scenario_from_json_dict",
        "scenario_to_json_dict",
        "uniform_bloch",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
