"""Read-once AND-OR formula evaluation as two-terminal network connectivity.

The package turns a read-once formula into a series-parallel network whose
terminals are connected exactly on the 1-inputs, and computes the classical
quantities that govern the reduction: effective resistances and optimal unit
flows, cut sizes, span-program witness sizes (exact and approximate), the
certified recursive edge weighting, fault complexities of alternating-tree
games, and the cost of the resistance-guided playing strategy.
"""

from .extended import INF, Infinity, as_float, is_inf
from .formula import (
    Domain,
    Formula,
    as_bits,
    build_nand_tree,
    compose,
    composed_formula,
    dual_formula,
    enumerate_formulas,
    eval_formula,
    explicit_domain,
    gate,
    leaf,
    negate_formula,
    parse_formula,
    promise_domain,
    random_formula,
    render,
    uniform_formula,
)
from .graphs import (
    DUAL,
    PARALLEL,
    PRIMAL,
    SERIES,
    Edge,
    Network,
    compose_networks,
    dual_network,
    export,
    formula_graph,
    formula_subgraph,
    from_json,
    selector_from_assignment,
    single_edge,
    subgraph,
)
from .electrical import (
    EXACT_SP,
    LAPLACIAN,
    MAXFLOW,
    SP_RECURSION,
    CutAssignment,
    FlowAssignment,
    check_unit_flow,
    cut_size,
    decompose_flow,
    effective_resistance,
    flow_energy,
    formula_resistance,
    longest_self_avoiding_path,
    optimal_flow,
    recompose,
    shortest_st_path_length,
    simple_st_paths,
    witness_cut,
)
from .spanprog import (
    SpanProgram,
    WeightCertificate,
    WitnessExtrema,
    WitnessReport,
    approx_negative_witness,
    approx_negative_witness_reference,
    approx_positive_witness,
    approx_positive_witness_reference,
    build_span_program,
    negative_witness,
    optimal_weights,
    positive_witness,
    span_matrix,
    target_vector,
    witness_extrema,
)
from .nand import (
    FaultReport,
    GameStats,
    GameTranscript,
    fault_complexity,
    fault_complexity_bruteforce,
    is_k_fault,
    naive_cost,
    select,
    simulate_game,
    subtree_resistance,
)
from .bounds import (
    BoundReport,
    ExampleFamily,
    ProductReport,
    compute_bounds,
    example_family,
    exponent_fit,
    verify_resistance_product,
)

__version__ = "0.1.0"
