"""Desk-scale verification of the explicit finite-dimensional constructions
around quantum automorphism groups of multimatrix algebras: unitary error
bases, cocycle twists of function algebras, crossed products, and the
generator homomorphisms linking the quantum automorphism and quantum
permutation presentations.  Every claimed identity is certified either
exactly, in cyclotomic arithmetic, or numerically under a stated tolerance.
"""

__version__ = "0.1.0"

from .algebra import BlockSpec, StructAlgebra, delta_form_check, multimatrix, recognize_blocks
from .arith import Cyclotomic, cyclotomic_polynomial, root_of_unity
from .cocycle import (
    FinAbGroup,
    GroupCocycle,
    base_cocycle,
    normalize_inverse_pairing,
    product_cocycle,
    twist_left,
    verify_twist_theorem,
)
from .crossed import GroupAction, conjugation_lemma_check, crossed_product, takesaki_takai_check
from .pauli import depolarization_check, entangled_basis, is_unitary_error_basis, pvm_check, weyl_basis
from .qaut import (
    alpha,
    beta,
    check_relations,
    classical_assignment_aut,
    covariance_check,
    haar_compat_check,
    pi_map,
    rearranged_Q_check,
    rho_forms_agree,
    rho_map,
    uet_pvm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
