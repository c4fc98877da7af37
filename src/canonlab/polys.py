"""Exact integer polynomials and h*, a labeled poset's descent polynomial.

Coefficients are arbitrary-precision Python ints (extension counts
overflow 64 bits quickly).  A polynomial is a coefficient tuple with
index = exponent and no trailing zeros; the empty tuple is zero.
``IntPolynomial`` is a ``poset.Frozen`` value of that one field, which
its equality, hash, repr and pickling read.  The named polynomials
(Eulerian, Narayana) and the tests on coefficients (palindromicity,
gamma expansion, unimodality) are in ``canonlab.forms``, which only
the commands that use them load.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from canonlab import kernel
from canonlab.poset import Frozen, Poset, _check_labeling, natural_labeling


class IntPolynomial(Frozen):
    __slots__ = ("coefficients",)
    _fields = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:  # a pop per zero, no copy
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for zero."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift amount must be non-negative")
        if not self.coefficients:
            return self
        return IntPolynomial((0,) * k + self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        terms = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                terms.append(f"{head}x" if k == 1 else f"{head}x^{k}")
        return " + ".join(terms).replace("+ -", "- ")


def hstar(p: Poset, w: Sequence[int] | None = None) -> IntPolynomial:
    """Descent generating polynomial of the labeled linear extensions.

    With no labeling given, a natural labeling is used.
    """
    if w is None:
        w = natural_labeling(p)
    _check_labeling(p, w)
    return IntPolynomial(next(kernel.descent_histograms(p, [w])))


def poly_to_payload(p: IntPolynomial) -> dict:
    """JSON payload with decimal-string coefficients, index = exponent."""
    return {"coeffs": [str(c) for c in p.coefficients]}
