"""Exact logical limit laws for convex linear orders, layered permutations,
and compositions: structures, first-order model checking, back-and-forth
game deciders, and the class-level state machine with exact limits."""

import types as _types

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
    evaluate,
    format_formula,
    parse,
    quantifier_depth,
    translate_to_convex,
)
from .efgame import (
    BudgetExceededError,
    GameSolver,
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
from .battery import BATTERY

# the submodules bound by the imports above stay out of ``import *``
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
