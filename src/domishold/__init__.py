"""Recognition and solving toolkit for total domishold graphs and the
threshold hypergraphs / threshold positive Boolean functions they reduce to,
with verifiable certificates throughout.
"""

__version__ = "0.1.0"

from .boolean import (
    PositiveDNF,
    SeparatingStructure,
    SummabilityWitness,
    ThresholdReport,
    dnf_of_hypergraph,
    evaluate,
    is_threshold,
    make_dnf,
    verify_separating_structure,
    verify_summability_witness,
)
from .catalog import CatalogEntry, catalog_witness, forbidden_catalog, forbidden_graph
from .graphs import (
    Graph,
    add_isolated,
    add_pendant,
    add_universal,
    all_graphs,
    complete,
    cycle,
    disjoint_union,
    find_induced,
    generate,
    induced_subgraph,
    is_chordal,
    is_dominating_set,
    is_induced_embedding,
    is_threshold_graph,
    is_total_dominating_set,
    join,
    path,
    random_graph,
    random_threshold,
    split_partition,
    star,
    threshold_from_sequence,
)
from .hypergraphs import (
    Hypergraph,
    add_universal_vertex,
    dually_sperner_violation,
    independent_neighborhood_hypergraph,
    is_dually_sperner,
    neighborhood_split_graph,
    reduced_neighborhood_hypergraph,
    remove_universal_vertex,
    sperner_reduce,
    split_incidence_graph,
)
from .lp import lp_feasible
from .recognition import (
    EquivalenceReport,
    HtdRecognitionReport,
    TdRecognitionReport,
    TdStructure,
    check_equivalence_chain,
    embed_into_td,
    hypergraph_threshold_via_graph,
    make_positive,
    neighborhood_dnf,
    recognize_htd,
    recognize_td,
    structure_add_universal,
    structure_union_unique_min,
    unique_minimal_tds,
    verify_td_structure,
)
from .solvers import SolveResult, approx_dominating_set, greedy_min_tds
