"""System identification for interconnected linear control systems.

Implements dynamic mode decomposition (DMD), DMD with control (DMDc), and
their network variant that identifies each node's local subsystem separately
and composes the results into block matrices with structural zeros at
non-edges. Includes a simulator, random topology generators, and a sweep
harness for recovery-error benchmarks.
"""
from .errors import (
    BadConfig,
    ConvergenceFailure,
    DimensionMismatch,
    Divergence,
    EmptyNetwork,
    NetdmdError,
    NonFiniteEntry,
    NotSquare,
    RowRangeMismatch,
    UnknownVertex,
)
from .numkernel import (
    EXACT_RULE,
    ConditioningRecord,
    EigResult,
    FixedRank,
    MachineDefault,
    RelativeThreshold,
    TruncationRule,
    conditioning_from_dict,
    conditioning_to_dict,
    eig,
)
from .topology import (
    LocalSubsystem,
    NetworkTopology,
    ShapeGroup,
    Violation,
    coefficient_support,
    gather_plan,
    local_subsystem,
    max_local_dim,
    topology_from_dict,
    topology_to_dict,
    validate,
)
from .sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    read_trajectory_csv,
    simulate,
    step,
    system_from_dict,
    system_to_dict,
    true_full_matrices,
    write_trajectory_csv,
)
from .dmdcore import (
    DynamicModes,
    ExactLinearModel,
    ReducedLinearModel,
    dmd_modes,
    dmd_reduced,
    dmdc_exact,
    dmdc_reduced,
    lift_reduced,
    model_from_dict,
    model_to_dict,
    predict,
)
from .netdmdc import (
    NetworkModel,
    NodeConditioning,
    model_error,
    network_dmdc_exact,
    network_dmdc_reduced,
    network_model_from_dict,
    network_model_to_dict,
)
from .bench import (
    SweepConfig,
    SweepResult,
    SweepRow,
    export_result,
    generate_system,
    load_result_csv,
    load_result_json,
    mean_errors,
    run_sweep,
    run_trial,
    sweep_config_from_dict,
    sweep_config_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
