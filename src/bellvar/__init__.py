"""Variance-based bounds on Bell inequality violations.

The package splits states along observables (mean, spread, fluctuation
direction), assembles Bell reports whose statistical bounds are built
from those pieces, enumerates exact local-hidden-variable maxima,
maximizes expressions by see-saw, and samples measurement rounds from
the Born rule for empirical cross-checks.
"""

from .avdecomp import (
    SPREAD_EPS,
    AVDecomposition,
    CorrelatorSplit,
    DegenerateSpreadError,
    av_decompose,
    correlator_split,
    pearson,
    reconstruction_residual,
)
from .bounds import (
    SATURATION_ATOL,
    SLACK_FLOOR,
    TSIRELSON_CHSH,
    BellReport,
    ChainGeometry,
    PearsonChshReport,
    SaturationFlags,
    chained_report,
    chsh_report,
    mk_report,
    pearson_chsh_report,
    report_for,
    report_to_json_dict,
    saturation_check,
)
from .linalg import (
    DIM_CAP,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_hermitian,
    as_ket,
    expectation,
    fix_global_phase,
    haar_random_ket,
    is_dichotomic,
    random_hermitian,
    tensor_product,
    top_eigenpair,
)
from .montecarlo import (
    EmpiricalCheck,
    EmpiricalEstimates,
    SampleBatch,
    UndersampledError,
    batch_to_csv,
    empirical_check,
    estimate,
    estimates_to_json_dict,
    simulate_rounds,
)
from .optimize import (
    CONVERGENCE_EPS,
    OptimizationResult,
    ScanSummary,
    StationarityReport,
    chained_optimal_settings,
    random_scan,
    seesaw_max,
    stationarity_check,
    statistical_chsh_surface,
)
from .presets import PRESET_NAMES, Preset, preset
from .scenarios import (
    LHV_ENUMERATION_CAP_BITS,
    MK_MAX_PARTIES,
    SCHEMA_VERSION,
    FamilySpec,
    MKOperatorPair,
    Scenario,
    bell_state,
    bloch_observable,
    bloch_of,
    chained_coefficients,
    chained_family,
    chsh_coefficients,
    chsh_family,
    coefficient_tensor,
    from_bloch_table,
    ghz_state,
    lhv_max,
    load_scenario_file,
    mk_coefficient_pair,
    mk_family,
    mk_operators,
    operator_from_tensor,
    random_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    uniform_bloch,
)

__version__ = "0.1.0"
