"""Enumeration engine and verification CLI for canon permutations and
labeled-poset descent polynomials.

The statement checks and the definitional oracles are in
``canonlab.verify``, the edge-subset sweep in ``canonlab.sweep`` and the
Cor. 5.1 gamma interpretation in ``canonlab.gamma``.  Only the commands
that run them load those modules, ``verify`` all three.  The closed
forms are in ``canonlab.forms``: the package exports them too, and
imports that module the first time one of them is read.
"""

from canonlab.kernel import backend as kernel_backend
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    natural_labeling,
    product_with_chain,
)
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import IntPolynomial, hstar
from canonlab.canon import AmphibianSpec, canon_polynomial_bruteforce, dissonant_polynomial

__version__ = "0.1.0"

_FORMS = (
    "canon_polynomial_product",
    "chain_descents",
    "checked_labeling",
    "checked_product",
    "eulerian",
    "gamma_expansion",
    "is_palindromic",
    "is_unimodal",
    "narayana",
    "weak_descent_polynomial",
)

# ``from canonlab import *`` reads the closed forms through ``__getattr__``
__all__ = (
    "AmphibianSpec",
    "IntPolynomial",
    "Poset",
    "canon_labeling",
    "canon_polynomial_bruteforce",
    "chain",
    "dissonant_polynomial",
    "enumerate_linear_extensions",
    "hstar",
    "kernel_backend",
    "natural_labeling",
    "product_with_chain",
    *_FORMS,
)


def __getattr__(name: str):
    """A closed form of ``canonlab.forms``, importing it on first use."""
    if name in _FORMS:
        from canonlab import forms

        return getattr(forms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
