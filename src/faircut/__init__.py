"""Fair (s,t)-cuts on undirected capacitated graphs.

A cut is alpha-fair when some feasible (s,t)-flow pushes at least a
1/alpha fraction of every cut arc's capacity across it.  This package
computes such cuts by iterating an approximate flow-or-cut primitive on
residual graphs, and ships exact oracles that certify every output.
"""

from .approximator import (
    CutMatrix,
    build_exhaustive,
    build_multi_tree,
    build_tree,
    measure_alpha,
)
from .dimacs import DimacsError, DimacsInstance, parse_dimacs, serialize_dimacs
from .driver import (
    FairCutResult,
    IterationRecord,
    fair_cut,
    iterate_once,
    unsaturated_arcs,
)
from .flowcut import (
    CutResult,
    DualWitness,
    FlowResult,
    PrimalCertificate,
    ReducedProblem,
    ThresholdCutError,
    flow_or_cut,
    reduce_problem,
    saddle_solve,
    threshold_cut,
)
from .graph import (
    CapacitatedGraph,
    FlowAssignment,
    ResidualView,
    VertexCut,
    add_flows,
    directed_cut_value,
    divergence,
    st_demand,
    undirected_cut_value,
)
from .oracles import (
    FairnessCertificate,
    FairnessRefusal,
    max_flow_exact,
    maxflow_value,
    min_congestion_routing,
    min_fair_alpha,
    verify_fairness,
)

__version__ = "0.1.0"
