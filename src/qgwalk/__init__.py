"""Coined quantum walks on graphs.

Builds shift/coin evolutions over the symmetric arcs of a simple connected
graph, verifies the exact operator identities relating their variants,
predicts transition-matrix walk spectra from a vertex-sized eigenproblem,
and solves metric-graph (quantum-graph) eigenvalue problems by scanning the
walk's stationarity indicator.
"""

from .coins import (
    DIRICHLET,
    QuantumGraphParams,
    TransitionMatrix,
    VertexWeights,
    boundary_phase,
    grover_coin,
    grover_coins,
    identity_coins,
    projector_coins,
    quantum_graph_coins,
    szegedy_coins,
)
from .dynamics import (
    ChiralLineResult,
    WalkState,
    evolve,
    finding_probability,
    from_arc_amplitudes,
    local_state,
    one_dim_walk,
    path_sum_amplitudes,
    path_sum_probability,
    point_mass,
    probability_history,
    transfer_weight,
)
from .graphs import (
    ArcSpace,
    Graph,
    GraphValidationError,
    Partition,
    PermutationTable,
    build_arc_space,
    complete_graph,
    cycle_graph,
    enumerate_partitions,
    flip_flop_partition,
    partition_count,
    partition_permutation,
    path_graph,
    random_connected_graph,
    random_partition,
    reverse_partition,
    star_graph,
)
from .operators import (
    AdjacencySupportReport,
    CoinSet,
    EvolutionOperator,
    a_type_reduction_residual,
    adjacency_support_report,
    coin_operator,
    evolution,
    g_type_reduction_residual,
    inverse_walk_residual,
    line_digraph_adjacency,
    operator_norm,
    partition_change_residual,
    random_unitary_coins,
    shift_duality_residual,
    shift_operator,
    unitarity_defect,
)
from .quantum_graph import (
    BoundaryReport,
    BoundaryRow,
    EigenfunctionSample,
    PoleProximityError,
    Root,
    ScatteringFactorization,
    SecularScan,
    StationaryVector,
    b_coefficients,
    boundary_condition_report,
    characteristic_determinant,
    outgoing_amplitudes,
    quantum_graph_walk,
    reduced_secular_determinant,
    sample_eigenfunction,
    scan_roots,
    scattering_factorization,
    stationarity_equivalences,
    stationarity_indicator,
    stationary_vector,
)
from .szegedy import (
    LiftedEigenvector,
    SpectralResult,
    SpectrumMatch,
    compare_spectra,
    direct_spectrum,
    discriminant_matrix,
    lift_map,
    random_reversible_transition,
    szegedy_spectrum,
    szegedy_walk,
)

__version__ = "0.1.0"
