"""Exact integer polynomials and the named descent polynomials.

Coefficients are arbitrary-precision Python ints (extension counts
overflow 64 bits quickly).  A polynomial is a coefficient tuple with
index = exponent and no trailing zeros; the empty tuple is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb
from typing import Optional, Sequence

from canonlab import kernel
from canonlab.config import element_cap
from canonlab.errors import SizeCapError
from canonlab.linext import descent_count, dyck_paths, high_peak_count
from canonlab.poset import Labeling, Poset, natural_labeling


@dataclass(frozen=True)
class IntPolynomial:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x_power(cls, k: int, coefficient: int = 1) -> "IntPolynomial":
        return cls((0,) * k + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for zero."""
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial.zero()
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

    def mirrored(self, low: int, high: int) -> "IntPolynomial":
        """Coefficients reflected across the window [low, high].

        Defined only when the support fits below ``low + high``; the
        polynomial is palindromic over the window iff it equals its
        mirror image.
        """
        if low > high:
            raise ValueError("window must satisfy low <= high")
        if self.degree > low + high:
            raise ValueError("support extends beyond the reflection window")
        out = [0] * (low + high + 1)
        for k, c in enumerate(self.coefficients):
            out[low + high - k] = c
        return IntPolynomial(tuple(out))

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


def is_palindromic(p: IntPolynomial, low: int, high: int) -> bool:
    """Coefficient symmetry about the center of the window [low, high]:
    coefficient(low + i) == coefficient(high - i) for every i, with
    out-of-range coefficients treated as zero."""
    if low > high:
        raise ValueError("window must satisfy low <= high")
    if p.degree > low + high:
        return False
    return all(
        p.coefficient(k) == p.coefficient(low + high - k) for k in range(low + high + 1)
    )


@dataclass(frozen=True)
class GammaExpansion:
    """Coordinates of a palindromic polynomial in the basis
    x^i (1+x)^(d-2i), 0 <= i <= floor(d/2)."""

    center_degree: int
    gamma: tuple[int, ...]

    def reconstruct(self) -> IntPolynomial:
        total = IntPolynomial.zero()
        d = self.center_degree
        for i, g in enumerate(self.gamma):
            if g:
                base = _one_plus_x_power(d - 2 * i)
                total = total + base.shift(i) * IntPolynomial((g,))
        return total

    @property
    def gamma_positive(self) -> bool:
        return all(g >= 0 for g in self.gamma)


@lru_cache(maxsize=None)
def _one_plus_x_power(k: int) -> IntPolynomial:
    return IntPolynomial(tuple(comb(k, i) for i in range(k + 1)))


def gamma_expansion(p: IntPolynomial, d: int) -> Optional[GammaExpansion]:
    """Gamma coordinates of p over center degree d, by leading-coefficient
    peeling; absent when p is not palindromic over [0, d].

    Gamma entries may be negative; positivity is a separate question.
    """
    if d < 0 or not is_palindromic(p, 0, d):
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
    return GammaExpansion(d, tuple(gamma))


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


def eulerian(n: int) -> IntPolynomial:
    """Descent polynomial of the permutations of 1..n.

    Brute force up to n = 10, memoized recurrence above.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 10:
        counts = [0] * n
        for perm in permutations(range(n)):
            counts[descent_count(perm)] += 1
        return IntPolynomial(tuple(counts))
    return IntPolynomial(tuple(_eulerian_number(n, k) for k in range(n)))


@lru_cache(maxsize=None)
def _eulerian_number(n: int, k: int) -> int:
    if k < 0 or k >= n:
        return 0
    if n == 1:
        return 1 if k == 0 else 0
    return (k + 1) * _eulerian_number(n - 1, k) + (n - k) * _eulerian_number(n - 1, k - 1)


def narayana(n: int) -> IntPolynomial:
    """High-peak generating polynomial of the Dyck paths of semilength n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = [0] * n
    for path in dyck_paths(n):
        counts[high_peak_count(path)] += 1
    return IntPolynomial(tuple(counts))


def hstar(p: Poset, w: Optional[Labeling] = None, cap: Optional[int] = None) -> IntPolynomial:
    """Descent generating polynomial of the labeled linear extensions.

    With no labeling given, a natural labeling is used.
    """
    n = p.element_count
    if n > element_cap(cap):
        raise SizeCapError(f"poset has {n} elements, above the cap {element_cap(cap)}")
    if w is None:
        w = natural_labeling(p)
    hist = kernel.descent_histograms(p, [w])[0]
    return IntPolynomial(tuple(hist))


def hstar_sum(p: Poset, labelings: Sequence[Labeling], cap: Optional[int] = None) -> IntPolynomial:
    """Sum of descent polynomials of one poset under many labelings,
    sharing one kernel call."""
    n = p.element_count
    if n > element_cap(cap):
        raise SizeCapError(f"poset has {n} elements, above the cap {element_cap(cap)}")
    hists = kernel.descent_histograms(p, labelings)
    width = max((len(h) for h in hists), default=0)
    totals = [0] * width
    for h in hists:
        for i, c in enumerate(h):
            totals[i] += c
    return IntPolynomial(tuple(totals))


def order_polynomial_values(p: Poset, w: Labeling, j_max: int) -> tuple[int, ...]:
    """Values of the labeled order polynomial at 0..j_max, by exhaustive
    enumeration of maps into {0..j}.

    A map counts when it is weakly order-preserving and strict on every
    comparable pair whose labels invert.  This is the definitional brute
    force, independent of the extension-based route.
    """
    n = p.element_count
    pairs = [(a, b) for a in range(n) for b in p.strictly_above(a)]
    strict = [(a, b) for a, b in pairs if w[a] > w[b]]
    weak = [(a, b) for a, b in pairs if w[a] <= w[b]]
    if (j_max + 1) ** n > 50_000_000:
        raise SizeCapError("order polynomial brute force is too large")
    out = []
    for j in range(j_max + 1):
        count = 0
        for values in product(range(j + 1), repeat=n):
            if all(values[a] <= values[b] for a, b in weak) and all(
                values[a] < values[b] for a, b in strict
            ):
                count += 1
        out.append(count)
    return tuple(out)


def poly_to_payload(p: IntPolynomial) -> dict:
    """JSON payload with decimal-string coefficients, index = exponent."""
    return {"coeffs": [str(c) for c in p.coefficients]}


def poly_from_payload(payload: dict) -> IntPolynomial:
    coeffs = payload["coeffs"]
    return IntPolynomial(tuple(int(c) for c in coeffs))
