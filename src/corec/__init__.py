"""Engine for guarded recursive equation systems over finitary signatures.

Solves systems uniquely as rational trees, decomposes solutions over
all-unary signatures into finite words plus streams, manipulates
presentations of set functors by flat equations, and brute-force-checks
uniqueness properties of finite algebras.
"""

from .core import (
    BOTTOM,
    BOTTOM_ALIAS,
    DEFAULT_BUDGET,
    EquationSystem,
    FiniteTree,
    FlatTerm,
    Op,
    Param,
    ParamLeaf,
    Signature,
    Var,
    enumerate_flat_terms,
    flat,
    op,
    substitute_flat,
    validate_signature,
)
from .rtree import (
    INFINITE,
    Lasso,
    LeafStep,
    OpStep,
    RationalTree,
    bisim_equal,
    count_param_leaves,
    cut,
    cut_equal,
    from_lasso,
    graft,
    has_finite_param_leaves,
    leaf,
    minimize,
    op_apply,
    to_lasso,
)
from .solver import (
    Classification,
    DecomposedSolution,
    FinitePart,
    InfinitePart,
    anchors,
    classify,
    compose_systems,
    fold_constants,
    is_tree_solution,
    solve,
    solve_anchored,
    solve_decomposed,
    tree_to_system,
)
from .presentation import (
    Presentation,
    Verdict3,
    is_reduced,
    kernel_equal,
    make_constants_explicit,
    quotient_classes,
    reduce_presentation,
    rtree_equiv_upto,
    tree_equiv_bounded,
)
from .checker import (
    AnchorReport,
    CheckVerdict,
    FiniteAlgebra,
    SpineWitness,
    anchor_correspondence,
    check_rewrite_invariance,
    count_solutions,
    find_presentation_violation,
    is_cia,
    is_corecursive,
    rewrite_system,
    satisfies_presentation,
    unary_algebra,
    witness_non_cia,
)
from .cli import (
    RunConfig,
    format_ceq,
    main,
    parse_ceq,
    parse_falg,
    parse_pres,
    parse_solution_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
