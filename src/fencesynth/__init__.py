"""Exhaustive C11 consistency checking and minimal fence synthesis.

The pipeline: parse a litmus program, enumerate every consistent execution,
keep the assertion-violating ones, detect the coherence and sc-order cycles
each candidate fence set would create, solve a monotone minimum-model query
over fence slots, assign each fence the weakest sound memory order, and
rewrite the program.  Two drivers exist: an optimal one, which solves each
assertion-independent part alone, and a one-trace-at-a-time near-optimal one.
"""

from .cycles import (
    CandidateSolution,
    analyze_trace,
    candidate_slots,
    enumerate_simple_cycles,
    find_strong_cycles,
    find_weak_cycles,
    insert_candidate_fences,
)
from .driver import (
    SanityReport,
    SynthesisResult,
    apply_solution,
    sanity_check,
    synthesize,
    synthesize_fast,
    synthesize_optimal,
)
from .enumerator import (
    candidate_values,
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
    has_buggy_trace,
    is_consistent,
    iter_buggy_traces,
)
from .errors import InternalCheckError, LitmusError, ResourceLimitError
from .limits import Limits
from .litmus import Program, elaborate, parse_program, print_program
from .model import (
    Event,
    FenceSlot,
    SourceLocation,
    Trace,
    dump_trace,
)
from .optimize import (
    Query,
    TypedSolution,
    assign_memory_orders,
    build_query,
    find_min_model,
)
from .orders import MemoryOrder, lub
from .relations import (
    compute_fr,
    derive_sync,
    release_sequence,
)

__all__ = [
    "CandidateSolution",
    "Event",
    "FenceSlot",
    "InternalCheckError",
    "Limits",
    "LitmusError",
    "MemoryOrder",
    "Program",
    "Query",
    "ResourceLimitError",
    "SanityReport",
    "SourceLocation",
    "SynthesisResult",
    "Trace",
    "TypedSolution",
    "analyze_trace",
    "apply_solution",
    "assign_memory_orders",
    "build_query",
    "candidate_slots",
    "candidate_values",
    "coherence_violations",
    "compute_fr",
    "derive_sync",
    "dump_trace",
    "elaborate",
    "enumerate_consistent_traces",
    "enumerate_simple_cycles",
    "exists_sc_total_order",
    "find_buggy_traces",
    "find_min_model",
    "find_strong_cycles",
    "find_weak_cycles",
    "has_buggy_trace",
    "insert_candidate_fences",
    "is_consistent",
    "iter_buggy_traces",
    "lub",
    "parse_program",
    "print_program",
    "release_sequence",
    "sanity_check",
    "synthesize",
    "synthesize_fast",
    "synthesize_optimal",
]
