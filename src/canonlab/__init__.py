"""Enumeration engine and verification CLI for canon permutations and
labeled-poset descent polynomials.

The statement checks and the definitional oracles are in
``canonlab.verify``, which only the ``verify`` command loads.
"""

from canonlab.kernel import backend as kernel_backend
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    chain_descents,
    checked_labeling,
    checked_product,
    natural_labeling,
    product_with_chain,
)
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import (
    IntPolynomial,
    eulerian,
    gamma_expansion,
    hstar,
    is_palindromic,
    is_unimodal,
    narayana,
)
from canonlab.canon import (
    AmphibianSpec,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    conjecture_sweep,
    dissonant_polynomial,
    gamma_interpretation,
    weak_descent_polynomial,
)

__version__ = "0.1.0"
