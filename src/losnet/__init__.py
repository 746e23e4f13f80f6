"""losnet: keep a multi-subgroup robot team sight-line connected while
perturbing its task controllers as little as possible.

The pipeline per control period: build the sight-line graph, score each edge
by how little maintaining it would constrain the nominal controls, keep the
maximum-weight spanning tree (subgroup edges amplified so every subgroup
stays internally connected), turn the kept edges plus all safety conditions
into linear certificate rows, and solve an identity-Hessian QP for the
closest admissible control.
"""

from .barriers import (
    BarrierParams,
    ConstraintSystem,
    assemble_system,
    h_conn,
    h_los,
    h_obs,
    h_safe,
    hdot_los_coefficients,
)
from .behaviors import TaskSite
from .errors import (
    AssemblyError,
    ConnectivityLossError,
    DegenerateEdgeError,
    InternalInvariantError,
    LosnetError,
    MveeConvergenceError,
    PolygonError,
    RankDeficiencyError,
    ScenarioValidationError,
    WeightOrderingError,
)
from .geometry import (
    LosEllipsoid,
    ObstacleField,
    Polygon,
    discretize_obstacles,
    mvee_closed_form,
    mvee_khachiyan,
    mvee_points,
    segment_occluded,
    segments_occluded,
)
from .qp import QpProblem, QpSolution, solve, verify_kkt
from .sim import (
    RunRecord,
    Scenario,
    SimState,
    StepMetrics,
    initial_state,
    lambda2_los,
    run,
    step,
    validate_scenario,
)
from .topology import (
    SpanningTree,
    WeightedLosGraph,
    build_los_graph,
    mccst_baseline,
    mlccst,
    verify_subgroup_connectivity,
    weigh_edges,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BarrierParams",
    "ConnectivityLossError",
    "ConstraintSystem",
    "DegenerateEdgeError",
    "InternalInvariantError",
    "LosEllipsoid",
    "LosnetError",
    "MveeConvergenceError",
    "ObstacleField",
    "Polygon",
    "PolygonError",
    "QpProblem",
    "QpSolution",
    "RankDeficiencyError",
    "RunRecord",
    "Scenario",
    "ScenarioValidationError",
    "SimState",
    "SpanningTree",
    "StepMetrics",
    "TaskSite",
    "WeightOrderingError",
    "WeightedLosGraph",
    "assemble_system",
    "build_los_graph",
    "discretize_obstacles",
    "h_conn",
    "h_los",
    "h_obs",
    "h_safe",
    "hdot_los_coefficients",
    "initial_state",
    "lambda2_los",
    "mccst_baseline",
    "mlccst",
    "mvee_closed_form",
    "mvee_khachiyan",
    "mvee_points",
    "run",
    "segment_occluded",
    "segments_occluded",
    "solve",
    "step",
    "validate_scenario",
    "verify_kkt",
    "verify_subgroup_connectivity",
    "weigh_edges",
]
