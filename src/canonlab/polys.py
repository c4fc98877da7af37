"""Exact integer polynomials and the named descent polynomials.

Coefficients are arbitrary-precision Python ints (extension counts
overflow 64 bits quickly).  A polynomial is a coefficient tuple with
index = exponent and no trailing zeros; the empty tuple is zero.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Optional, Sequence

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.poset import Frozen, Poset, natural_labeling


class IntPolynomial(Frozen):
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(int(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.coefficients,))

    def __repr__(self):
        return f"IntPolynomial(coefficients={self.coefficients!r})"

    def __reduce__(self):
        return IntPolynomial, (self.coefficients,)

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
        if not self.coefficients:
            return self
        if k < 0:
            raise ValueError("shift amount must be non-negative")
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


def is_palindromic(p: IntPolynomial, high: int) -> bool:
    """Coefficient symmetry about the center of the window [0, high]:
    coefficient(i) == coefficient(high - i) for every i, with
    out-of-range coefficients treated as zero."""
    if p.degree > high:
        return False
    return all(p.coefficient(k) == p.coefficient(high - k) for k in range(high + 1))


def gamma_expansion(p: IntPolynomial, d: int) -> Optional[tuple[int, ...]]:
    """Gamma coordinates of p over center degree d: the g_i with p the sum
    of g_i x^i (1+x)^(d-2i), 0 <= i <= floor(d/2), by leading-coefficient
    peeling; absent when p is not palindromic over [0, d].

    Gamma entries may be negative; positivity is a separate question.
    """
    if d < 0 or not is_palindromic(p, d):
        return None
    work = [p.coefficient(k) for k in range(d + 1)]
    gamma = []
    for i in range(d // 2 + 1):
        g = work[i]
        gamma.append(g)
        if g:
            width = d - 2 * i
            for j in range(width + 1):
                work[i + j] -= g * comb(width, j)
    if any(work):
        raise AssertionError("gamma peeling left a nonzero remainder")
    return tuple(gamma)


def is_unimodal(p: IntPolynomial) -> bool:
    """True when the coefficients rise (weakly) and then fall (weakly)."""
    coeffs = p.coefficients
    rising = True
    for a, b in zip(coeffs, coeffs[1:]):
        if rising:
            if b < a:
                rising = False
        elif b > a:
            return False
    return True


# The largest n of A_n, N_n and the product form: it keeps every n the
# checks use, and A_n's row recurrence stays under a second there.
MAX_NAMED_N = 1_000


def check_named_n(n: int) -> None:
    """Refuse an n above ``MAX_NAMED_N`` for A_n, N_n and the product form,
    before any work."""
    if n > MAX_NAMED_N:
        raise SizeCapError(f"n = {n} exceeds the bound {MAX_NAMED_N} on named polynomials")


def eulerian(n: int) -> IntPolynomial:
    """Descent polynomial of the permutations of 1..n, row by row:
    A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_named_n(n)
    row = [1]
    for size in range(2, n + 1):
        prev = [0, *row, 0]  # prev[k + 1] = A(size - 1, k)
        row = [(k + 1) * prev[k + 1] + (size - k) * prev[k] for k in range(size)]
    return IntPolynomial(row)


def narayana(n: int) -> IntPolynomial:
    """Narayana polynomial: coefficient k is C(n, k) C(n, k+1) / n, the
    number of Dyck paths of semilength n with k high peaks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_named_n(n)
    return IntPolynomial(comb(n, k) * comb(n, k + 1) // n for k in range(n))


def hstar(p: Poset, w: Optional[Sequence[int]] = None) -> IntPolynomial:
    """Descent generating polynomial of the labeled linear extensions.

    With no labeling given, a natural labeling is used.
    """
    if w is None:
        w = natural_labeling(p)
    return IntPolynomial(kernel.descent_histograms(p, [w])[0])


def poly_to_payload(p: IntPolynomial) -> dict:
    """JSON payload with decimal-string coefficients, index = exponent."""
    return {"coeffs": [str(c) for c in p.coefficients]}
