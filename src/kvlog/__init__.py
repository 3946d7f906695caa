"""Reasoning toolkit for knowing-value modal logics.

Formulas, relational and ternary-relation models, model checking and
bounded countermodel search, language translations, the binary-to-unary
reduction, bisimulations with distinguishing formulas, Hilbert-style
derivation checking, and a CLI wrapping all of it.
"""

from .bisim import (BisimResult, ClauseFailure, check_bisimulation,
                    check_fo_bisimulation, distinguishing_formula,
                    greatest_bisim)
from .models import (FOKripkeModel, GenParams, TernaryModel, Violation,
                     derive_ternary, generate_direct, generate_value_induced,
                     json_to_model, load_model, make_fo, make_ternary,
                     model_to_json, validate_ternary)
from .proof import (SCHEMAS, SMLKV, SMLKVB, SMLKVR, SYSTEMS, CheckResult,
                    Derivation, FuzzReport, ProofSystem, Step,
                    axiom_instance, check_derivation, is_tautology,
                    parse_script, soundness_fuzz)
from .semantics import (DEFAULT_BUDGET, BudgetExceededError, eval_fo,
                        eval_ternary, find_countermodel, valid_on)
from .syntax import (And, BBoxB, BBoxU, Box, Formula, KvCond, KvlogError,
                     LanguageError, Neg, ParseError, Prop, Top, Vocabulary,
                     big_and, big_or, bot, dia, dia_b, dia_u, f_or, iff, imp,
                     language_of, modal_depth, nn_normalize, occurrences,
                     parse, parse_infer, print_formula, random_formula,
                     reduce_r, replace_at, substitute, subterm_at,
                     translate_T, translate_T_inv, embed_unary)
from .transform import assign_values, split, to_fo, unravel

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
