"""Enumeration engine and verification CLI for canon permutations and
labeled-poset descent polynomials."""

from canonlab.kernel import backend as kernel_backend
from canonlab.poset import (
    Poset,
    antichain,
    canon_labeling,
    chain,
    chain_descents,
    checked_labeling,
    checked_product,
    is_graded,
    natural_labeling,
    product_with_chain,
)
from canonlab.linext import (
    count_linear_extensions,
    descent_count,
    descent_set,
    dyck_from_linext,
    enumerate_linear_extensions,
    is_canon_permutation,
    is_dyck_path,
    linext_from_dyck,
    multiset_word,
    weak_descent_count,
    word,
)
from canonlab.polys import (
    GammaExpansion,
    IntPolynomial,
    eulerian,
    gamma_expansion,
    hstar,
    is_palindromic,
    is_unimodal,
    narayana,
    order_polynomial_values,
)
from canonlab.canon import (
    AmphibianSpec,
    IdentityReport,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    checked_product_identity,
    conjecture_sweep,
    dissonant_degree_check,
    dissonant_palindromy_check,
    dissonant_polynomial,
    gamma_interpretation,
    generalized_product_identity,
    weak_descent_polynomial,
)

__version__ = "0.1.0"
