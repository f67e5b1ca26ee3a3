"""relalg: a workbench for finite algebras of the relation-algebra
signature -- axiom checking, a term/sentence language, a catalog of
independence models, exhaustive model search, and a claim-verification
suite.
"""

__version__ = "0.1.0"

from .algebra import (AlgebraError, FiniteAlgebra, automorphism_count,
                      canonical_form, find_isomorphism, from_json,
                      make_algebra, to_json)
from .terms import (EvalError, ParseError, Sentence, Term, check_validity,
                    eval_term, free_vars, holds, parse_sentence, parse_term,
                    sentence_to_str, term_to_str)
from .axioms import (AXIOM_IDS, AXIOM_TEXT, BOOLEAN, R_SYS, S_SYS, SYSTEMS,
                     TARSKI, AxiomError, axiom_sentence, exists_right_identity,
                     failing_axioms, is_independence_model, satisfies,
                     status_vector)
from .catalog import build_model, list_models
from .search import (SearchResult, SearchSpec, boolean_guided_search,
                     naive_enumerate, search)
from .report import Claim, Report, render_model, run_verification_suite

__all__ = [
    "__version__",
    # algebra
    "AlgebraError", "FiniteAlgebra", "automorphism_count", "canonical_form",
    "find_isomorphism", "from_json", "make_algebra", "to_json",
    # terms
    "EvalError", "ParseError", "Sentence", "Term", "check_validity",
    "eval_term", "free_vars", "holds", "parse_sentence", "parse_term",
    "sentence_to_str", "term_to_str",
    # axioms
    "AXIOM_IDS", "AXIOM_TEXT", "BOOLEAN", "R_SYS", "S_SYS", "SYSTEMS",
    "TARSKI", "AxiomError", "axiom_sentence", "exists_right_identity",
    "failing_axioms", "is_independence_model", "satisfies", "status_vector",
    # catalog
    "build_model", "list_models",
    # search
    "SearchResult", "SearchSpec", "boolean_guided_search", "naive_enumerate",
    "search",
    # report
    "Claim", "Report", "render_model", "run_verification_suite",
]
