"""The closed forms and constructions that the checks set against the sums.

The brute-force sums (``canon``, ``polys.hstar``) are the source of
truth; what they are compared with is here: palindromicity, gamma
expansion and unimodality, the Eulerian and Narayana polynomials, the
checked product and its labeling, the chain sums behind Cor. 5.1's rho
parities and the product formula's constant chain descents, the product
form itself and the weak-descent polynomial.  No start-up compiles this
module: ``cli._load`` imports it for the routes that run it, ``sweep``,
``gamma`` and ``verify`` import it, and the package reads its names on
first use.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from math import comb

from canonlab.canon import canon_polynomial_bruteforce
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.polys import IntPolynomial, hstar
from canonlab.poset import (
    Poset,
    _check_labeling,
    _product_covers,
    _row_labeling,
    canon_labeling,
    chain,
    product_with_chain,
)


def is_palindromic(p: IntPolynomial, high: int) -> bool:
    """Coefficient symmetry about the center of the window [0, high]:
    coefficient(i) == coefficient(high - i) for every i, with
    out-of-range coefficients treated as zero."""
    if p.degree > high:
        return False
    return all(p.coefficient(k) == p.coefficient(high - k) for k in range(high + 1))


def gamma_expansion(p: IntPolynomial, d: int) -> tuple[int, ...] | None:
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


def checked_product(p: Poset, n: int, mask: int = 0) -> Poset:
    """``product_with_chain(p, n, mask)`` with n new incomparable elements,
    the highest n indices, above ``(x, n)`` for every maximal ``x`` of
    ``p``."""
    mn = p.element_count * n
    maxima = [mn - p.element_count + x for x in p.maximal_elements()]  # the (x, n)
    tops = ((x, t) for t in range(mn, mn + n) for x in maxima)
    return Poset(mn + n, itertools.chain(_product_covers(p, n, mask), tops))


def checked_labeling(w: Sequence[int], n: int) -> tuple[int, ...]:
    """Labeling of the checked product: the product part carries
    ``canon_labeling(w, id)`` and the top elements get ``mn+1 .. (m+1)n``
    in index order."""
    mn = len(w) * n
    return canon_labeling(w, range(1, n + 1)) + tuple(range(mn + 1, mn + n + 1))


def _chain_sums(p: Poset, step: Callable[[int, int], int]) -> tuple[list[set[int]], set[int]]:
    """For each element, the set of sums of ``step(a, b)`` over the covers
    ``a < b`` of the saturated chains from a minimal element up to it, in
    one pass over the topological order; and the sums of the maximal
    chains, the union of those sets over the maximal elements."""
    sums: list[set[int]] = [set() for _ in range(p.element_count)]
    for v in p.topological_order():
        sums[v] = own = sums[v] or {0}  # a minimal element starts at 0
        for b in p.successors(v):
            sums[b].update(s + step(v, b) for s in own)
    return sums, set().union(*(sums[v] for v in p.maximal_elements()))


def rho_parities(pcheck: Poset) -> tuple[int, ...]:
    """``rho`` of every element: the parity of the length of the maximal
    chains in its principal ideal, 0 for even and 1 for odd.

    Defined for graded posets (such as checked chain products), where
    every saturated chain from a minimal element up to an element has the
    same length.
    """
    depths, lengths = _chain_sums(pcheck, lambda a, b: 1)
    if len(lengths) > 1:
        raise ValueError("rho requires a graded poset")
    return tuple(min(d) % 2 for d in depths)


def chain_descents(p: Poset, w: Sequence[int]) -> int | None:
    """The number k of descents of (p, w) on every maximal chain, or None
    when two maximal chains (or none at all) disagree."""
    _check_labeling(p, w)
    counts = _chain_sums(p, lambda a, b: w[a] > w[b])[1]
    return counts.pop() if len(counts) == 1 else None


def _product_form(
    p: Poset, w: Sequence[int], n: int, first: Callable[[], IntPolynomial]
) -> IntPolynomial:
    """x^k * ``first()`` * h* of the naturally labeled product p x [n],
    where k is the number of descents on every maximal chain of (p, w).
    The first factor, A_n or h*(P'), is computed last: a product the
    kernel refuses costs nothing more."""
    k = chain_descents(p, w)
    if k is None:
        raise CanonlabError("product form needs a labeling with constant chain descents")
    base = hstar(product_with_chain(p, n))
    return (first() * base).shift(k)


def canon_polynomial_product(p: Poset, w: Sequence[int], n: int) -> IntPolynomial:
    """Closed product form: x^k * A_n * h* of the naturally labeled product.

    Requires every maximal chain of (p, w) to carry the same number k of
    descents.
    """
    check_named_n(n)
    return _product_form(p, w, n, lambda: eulerian(n))


def weak_descent_polynomial(m: int, n: int) -> IntPolynomial:
    """Weak-descent polynomial of canon permutations: the canon polynomial
    under the reversed row labeling w = (m, ..., 1).

    A canon word has letter sigma(j) at (x, j), so letters tie only inside
    a column, which every extension climbs while w x sigma falls there;
    labels of different columns compare as their letters do.  So for
    every sigma and extension, the weak descents are the descents of w x
    sigma."""
    return canon_polynomial_bruteforce(chain(m), _row_labeling("reverse", m), n)
