"""Multiple Dedekind symbols, reciprocity functions and regularized
iterated Eichler integrals of modular forms."""

from .contfrac import CFSeq, CoprimePair, canonical, evaluate, tails
from .eichler import (HAssignment, IntegratorConfig, TangentialBasePoint,
                      build_D, build_E, build_F, full_integral, i_numeric,
                      reg_to_cusp)
from .errors import (DedekindSymError, DivisionByZeroTail, DomainError,
                     NonConvergence, NotInvertible, NotShuffled)
from .modforms import (LaurentPoly, ModularFormSpec, bernoulli, delta_form,
                       dedekind_symbol_length1, eisenstein, eisenstein_gamma02,
                       eisenstein_L, gamma02_D, gamma02_delta, gamma02_F,
                       laurent_fit, polylog, reciprocity_law_check, sigma,
                       zeta)
from .series import Alphabet, TruncSeries, shuffle_words
from .symbols import (RecipFn, SymbolFn, bullet, bullet_inverse, decompose,
                      delta, delta_full, embed_exp, embed_exp_symbol,
                      from_components, normalize, orbit_key, psi,
                      random_symbol, verify_mds, verify_mrf)

__version__ = "0.1.0"
