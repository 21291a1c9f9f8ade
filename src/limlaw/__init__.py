"""Exact logical limit laws for convex linear orders, layered permutations,
and compositions: structures, first-order model checking, back-and-forth
game deciders, and the class-level state machine with exact limits."""

from .structures import (
    BULLET,
    ConvexLinearOrder,
    PartSequence,
    StructureView,
    as_relational,
    decompose,
    enumerate_shapes,
    hat,
    oplus,
)
from .logic import (
    SIGNATURES,
    Signature,
    evaluate,
    format_formula,
    free_variables,
    parse,
    quantifier_depth,
    translate_composition,
    translate_layered,
    translate_to_convex,
)
from .efgame import (
    BudgetExceededError,
    GameConfig,
    GameSolver,
    MarkedSegment,
    duplicator_wins,
    equiv_k,
    fast_equiv_convex,
    fast_equiv_shapes,
    reduce_representative,
)
from .limitchain import (
    Chain,
    ChainState,
    Distribution,
    EstimateResult,
    InternalVerificationError,
    LimitAnalysis,
    PeriodicChainError,
    analyze_limit,
    build_chain,
    build_sentence_chain,
    chain_to_dot,
    chain_to_json,
    check_fully_aperiodic,
    distribution_after,
    estimate_probability,
    limit_probability,
    limiting_distribution,
    verify_chain_states,
)
from .stepauto import StepAutomaton, compile_sentence
from .battery import BATTERY, BatterySentence

__all__ = [name for name in dir() if not name.startswith("_")]
