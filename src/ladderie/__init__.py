"""Exact computer algebra for the ladder insertion-elimination Lie algebra,
its gl_+(infinity) ideal and non-abelian extension structure, the ladder
module, the word Hopf algebra with linear Dyson-Schwinger expansions, and a
Chevalley-Eilenberg cohomology calculator.  All arithmetic is exact
rational."""

from .cohomology import (BettiTable, FiniteLieAlgebra, abelian_algebra,
                         betti_numbers, ce_differential, h1_degree_functional,
                         stability_check, truncate_gl)
from .extension import (CElement, Cgen, ExtElement, alpha, ext_bracket,
                        nonsplit_infeasibility, nonsplit_obstruction,
                        obstruction_grid, project_to_c, rho, section_s,
                        verify_cocycle_conditions)
from .glinf import (E, GlElement, bracket_ee, embed_to_z, express_in_e,
                    trace_functional)
from .ladder import (LieElement, Y, Z, bracket, centralizer_basis,
                     decompose_generator, degree, theta, triangular_split)
from .ladder_module import (LadderPoly, TensorPoly, act, coproduct, t,
                            verify_action_is_representation)
from .linalg import (ExactMatrix, Infeasible, Scalar, kernel_basis, rank,
                     scalar_from_str, scalar_to_str, solve_or_refute)
from .suites import run_verify_suite
from .words import (Alphabet, DseExpansion, Letter, Word, WordLieElement,
                    WordPoly, Zw, act_word, alphabet_from_json,
                    alphabet_to_json, bracket_words, check_iota_action,
                    check_iota_bracket, dse_expand, iota_h, iota_l,
                    word_coproduct)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
