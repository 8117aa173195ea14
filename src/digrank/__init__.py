"""Cycle rank of digraphs and its relatives: exact and approximate rank
computation with elimination-forest witnesses, directed pathwidth, weak
separator numbers, feedback vertex sets, strongly connected subset
censuses, and star height of bideterministic languages."""

from .approx import ApproxResult, crank_approx, find_balanced_separator
from .automata import (Dfa, Nfa, binarize, binarize_word, is_bideterministic,
                       is_deterministic, nfa_accepts, parse_automaton,
                       regex_to_nfa, serialize_automaton, star_height_bidet,
                       trim, underlying_digraph, walk_language_automaton)
from .cyclerank import (CrankResult, SubsetCensus, count_sc_subsets,
                        crank_bruteforce, crank_exact, sc_subset_bound)
from .dfvs import (DfvsResult, is_dfvs, maximal_acyclic_subsets, min_dfvs,
                   minimal_dfvs_enumerate)
from .digraph import (Digraph, degrees, induced, is_acyclic,
                      is_strongly_connected, parse_digraph, serialize_digraph)
from .elimination import (EliminationForest, EliminationNode,
                          forest_to_path_decomposition, parse_forest,
                          serialize_forest, validate_forest)
from .errors import (CapacityError, DigrankError, DomainError, InputError,
                     ParseError, ResourceLimitError)
from .regex import Regex, matches, parse_regex, serialize_regex, star_height
from .widths import (BoundsReport, check_bounds, dpw_exact,
                     is_weak_balanced_separator, rk, snum_exact,
                     validate_path_decomposition, width)

__all__ = [
    "ApproxResult", "BoundsReport", "CapacityError",
    "CrankResult", "Dfa", "DfvsResult", "Digraph", "DigrankError",
    "DomainError", "EliminationForest", "EliminationNode", "InputError",
    "Nfa", "ParseError", "Regex", "ResourceLimitError", "SubsetCensus",
    "binarize", "binarize_word", "check_bounds", "count_sc_subsets",
    "crank_approx", "crank_bruteforce", "crank_exact", "degrees",
    "dpw_exact", "find_balanced_separator", "forest_to_path_decomposition",
    "induced", "is_acyclic", "is_bideterministic", "is_deterministic",
    "is_dfvs", "is_strongly_connected", "is_weak_balanced_separator",
    "matches", "maximal_acyclic_subsets", "min_dfvs",
    "minimal_dfvs_enumerate", "nfa_accepts", "parse_automaton",
    "parse_digraph", "parse_forest", "parse_regex", "regex_to_nfa", "rk",
    "sc_subset_bound", "serialize_automaton", "serialize_digraph",
    "serialize_forest", "serialize_regex", "snum_exact", "star_height",
    "star_height_bidet", "trim", "underlying_digraph",
    "validate_forest", "validate_path_decomposition",
    "walk_language_automaton", "width",
]
