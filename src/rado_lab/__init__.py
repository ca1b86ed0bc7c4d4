"""Desk-scale computational experiments on finite stand-ins for the random
graph: extension-property hosts, the five minimal function gadgets, relation
preservation, behavior classification, arrow verification and the generation
procedures behind the five-class picture."""

from .canonicity import (
    BehaviorClass,
    BehaviorProfile,
    classify_on_set,
    find_canonical_copy,
    profile_partitioned,
)
from .gadgets import (
    FunctionGadget,
    GadgetConstructionError,
    PairColor,
    compose,
    make_named,
    pair_color,
    violates,
)
from .generation import (
    GeneratorSet,
    InterpolationWitness,
    ReductClass,
    ReductClassification,
    Separation,
    all_graph_types,
    canonical_form,
    classify_reduct,
    collapse_all,
    delete_all_edges,
    interpolate,
    orbit_closure,
    separating_invariant,
    verify_separation,
    verify_witness,
)
from .graphs import (
    Embedding,
    ExtensionResult,
    Graph,
    GraphFormatError,
    PairKind,
    build_ec,
    build_paley,
    check_extension,
    complement_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    find_embeddings,
    format_graph,
    pair_kind,
    parse_graph,
    path_graph,
    switch_graph,
)
from .ramsey import (
    ArrowBudget,
    ArrowQuery,
    ArrowResult,
    CopyColoring,
    enumerate_copies,
    find_edge_nonedge_mono_copy,
    find_mono_copy,
    induced_pair_coloring,
    verify_arrow,
)
from .relations import (
    EqualityDefinability,
    FormulaRelation,
    ParityRelation,
    PreservationResult,
    Relation,
    TupleSetRelation,
    TypeSetRelation,
    definable_from_equality,
    distinct_relation,
    edge_relation,
    invariant_under_complement,
    invariant_under_switch,
    nonedge_relation,
    parity_relation,
    parse_relation_spec,
    preserved_by_map,
    qf_type,
)
from .structures import (
    ConstantGraph,
    PartitionedGraph,
    as_partitioned,
    associate_partitioned,
    find_const_embeddings,
    find_part_embeddings,
    iter_structure_maps,
    parse_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
