"""Single-mode Gaussian heat-engine toolkit.

Models a bosonic mode coupled to thermal and squeezed-thermal reservoirs,
quantifies non-classicality through P-representability, and computes
work, heat, and efficiency for an Otto-like cycle and a
constant-classicality generalized cycle.  Natural units hbar = omega =
k_B = 1 everywhere.
"""

__version__ = "0.1.0"
SCHEMA_VERSION = 2  # of the cycle report JSON and the sweep manifest

from .errors import CycleConsistencyError, PhysicalityError, QuadratureError
from .states import (
    BOUNDARY_TOL,
    CovarianceMatrix,
    SqueezedThermalState,
    Temperature,
    bose_einstein,
    classicality,
    covariance_of,
    critical_squeezing,
    is_p_representable,
    tau_of_occupancy,
)
from .thermo import (
    EnergyDelta,
    ThermoPath,
    internal_energy,
    linear_path,
    piecewise_linear_path,
    work_heat_along,
)
from .dynamics import (
    BathSpec,
    MomentState,
    MomentTrajectory,
    evolve,
    steady_state,
    write_trajectory_csv,
)
from .cycles import (
    CycleKind,
    CycleReport,
    EngineConfig,
    StrokeRecord,
    carnot_efficiency,
    classify_region,
    closed_form_terms,
    generalized_efficiency_closed_form,
    generalized_r_hot,
    otto_efficiency,
    report_to_dict,
    report_to_json,
    run_generalized,
    run_otto,
)
from .sweep import SweepSpec, UsageError, parse_config, run_sweep, serialize_spec
