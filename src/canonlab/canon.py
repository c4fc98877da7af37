"""Canon, dissonant and weak-descent polynomials.

The brute-force sums here are the source of truth; the closed forms
(product formulas, degree and palindromicity laws, gamma
interpretations) are the things under test, and ``canonlab.verify``
holds the checks that compare them.  Every sum over column
labelings sigma, for any labeled P, n and removed covers, is one call of
``canon_polynomial_bruteforce``, whose rows come from ``canon_rows``: one
kernel call per poset and row labeling w, one histogram per w x sigma.

The sum is exact, yet it runs one kernel lane per descent class of
sigma, not one per sigma.  By the theory of (P,w)-partitions, a labeled
poset's descent polynomial depends only on which of its covers the
labeling makes strict (w(a) > w(b) for a cover a < b).  Under w x sigma
a cover inside a column is strict when w falls, and a kept cover
(x, j) < (x, j+1) exactly when sigma(j) > sigma(j+1), so the sigmas with
the same descents on the gaps that keep a cover share one histogram.  A
depth-first walk over those patterns counts each class with no sigma
listed and hands the kernel one sigma per class as it takes the lane, so
the kernel's work bound, which counts all 2^(kept gaps) lanes, refuses
before any class is built.  The edge-subset sweep and its table of
subposet sums are in ``canonlab.sweep``, and the Cor. 5.1 gamma
interpretation in ``canonlab.gamma``; only the commands that run them
load those modules.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import factorial
from operator import add, mul
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from canonlab import kernel
from canonlab.errors import CanonlabError
from canonlab.polys import IntPolynomial, check_named_n, eulerian, hstar
from canonlab.poset import (
    Poset,
    _check_size,
    canon_labeling,
    chain,
    chain_descents,
    product_with_chain,
)


class AmphibianSpec(NamedTuple):
    """A chain product with a chosen set of inter-copy covers removed,
    named by its edge mask.

    Bit ``(row-1)(n-1) + j-1`` of ``mask`` removes the cover
    ``(row, j) < (row, j+1)``; intra-copy covers always stay.
    """

    m: int
    n: int
    mask: int

    @classmethod
    def from_removed(
        cls, m: int, n: int, pairs: Iterable[tuple[int, int]]
    ) -> "AmphibianSpec":
        """The spec removing the 1-based covers ``(row, j)`` in ``pairs``."""
        mask = 0
        for row, j in pairs:
            if not (1 <= row <= m and 1 <= j <= n - 1):
                raise ValueError(f"removable edge (row={row}, j={j}) out of range")
            mask |= 1 << (row - 1) * (n - 1) + j - 1
        return cls(m, n, mask)

    @property
    def removed(self) -> tuple[tuple[int, int], ...]:
        """The removed covers as 1-based pairs ``(row, j)``, row-major."""
        k = self.n - 1
        return tuple(
            (i // k + 1, i % k + 1)
            for i in range(self.mask.bit_length())
            if self.mask >> i & 1
        )

    def poset(self) -> Poset:
        return product_with_chain(chain(self.m), self.n, self.mask)

    def mode(self) -> str:
        """How the removals relate to the multiset-permutation picture:
        'canon' keeps everything, 'fixed-row' leaves at least one row
        untouched (its copies stay chained, fixing one subsequence), and
        'general' touches every row."""
        if not self.mask:
            return "canon"
        k = self.n - 1
        row_bits = (1 << k) - 1
        if all(self.mask >> row * k & row_bits for row in range(self.m)):
            return "general"
        return "fixed-row"


class _Sized:
    """``length`` items, which ``make()`` yields afresh on every walk: the
    kernel sizes its work bound by the number of labelings, so it can
    refuse before any is built."""

    def __init__(self, length: int, make: Callable[[], Iterator]):
        self._length, self._make = length, make

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return self._make()


def canon_rows(
    q: Poset, w: Sequence[int], sigmas: Collection[Sequence[int]]
) -> Iterator[list[int]]:
    """The descent histogram of ``q`` under each canon labeling w x sigma,
    yielded one row per sigma as one kernel call runs its lane."""
    labelings = _Sized(len(sigmas), lambda: (canon_labeling(w, sigma) for sigma in sigmas))
    return kernel.descent_histograms(q, labelings)


def _row_sum(rows: Iterable[Sequence[int]], weights: Iterable[int] = repeat(1)) -> IntPolynomial:
    """The rows, each read before its weight and times it, summed in one running row."""
    total = ()
    for row, weight in zip(rows, weights):
        total = [*map(add, total or repeat(0), map(mul, row, repeat(weight)))]
    return IntPolynomial(total)


def _descent_classes(n: int, gaps: Sequence[int], sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """Depth first, one sigma per pattern of descents on ``gaps`` (gap j
    between sigma[j] and sigma[j+1]), rises first at each gap: the identity
    with each run of descents reversed, after appending to ``sizes`` how
    many permutations of 1..n have its pattern, 2^|gaps| in all.  The walk
    stops after the last gap: later values take any ranks, and sigma rises."""
    stop = max(gaps, default=-1) + 1
    kept = set(gaps)
    # (next gap, sigma's closed runs, its open run's start, prefix counts by
    # the rank of the last value): the next value rises to rank r from ranks
    # < r, falls from ranks >= r, or either off the gaps; a rise closes a run
    todo = [(0, (), 0, [1])]
    while todo:
        j, runs, start, f = todo.pop()
        if j == stop:
            sizes.append(sum(f) * factorial(n) // factorial(j + 1))
            yield runs + tuple(range(j + 1, start, -1)) + tuple(range(j + 2, n + 1))
            continue
        rise = [0, *accumulate(f)]
        closed = (j + 1, runs + tuple(range(j + 1, start, -1)), j + 1)
        if j in kept:
            todo += [(j + 1, runs, start, [rise[-1] - c for c in rise]), (*closed, rise)]
        else:
            todo.append((*closed, [rise[-1]] * (j + 2)))


def canon_polynomial_bruteforce(p: Poset, w: Sequence[int], n: int, mask: int = 0) -> IntPolynomial:
    """Descent polynomial of all canon permutations of (p, w): the sum of
    the descent polynomials of ``product_with_chain(p, n, mask)`` under
    w x sigma over every column labeling sigma.  The kernel runs one lane
    per descent class of sigma on the gaps that keep a cover, and each
    class's row counts once per sigma in it, read as the class is walked."""
    q = product_with_chain(p, n, mask)
    _check_size(n)  # an empty P gives the kernel no work, yet its one class takes n!
    k = n - 1
    gaps = [j for j in range(k) if any(~mask >> x * k + j & 1 for x in range(p.element_count))]
    sizes: list[int] = []
    rows = canon_rows(q, w, _Sized(1 << len(gaps), lambda: _descent_classes(n, gaps, sizes)))
    return _row_sum(rows, sizes)


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


def dissonant_polynomial(spec: AmphibianSpec, w: Sequence[int]) -> IntPolynomial:
    """Descent polynomial of the subposet's labeled extensions, summed
    over every column labeling."""
    return canon_polynomial_bruteforce(chain(spec.m), w, spec.n, mask=spec.mask)


def weak_descent_polynomial(m: int, n: int) -> IntPolynomial:
    """Weak-descent polynomial of canon permutations: the canon polynomial
    under the reversed row labeling w = (m, ..., 1).

    A canon word has letter sigma(j) at (x, j), so letters tie only inside
    a column, which every extension climbs while w x sigma falls there;
    labels of different columns compare as their letters do.  So for
    every sigma and extension, the weak descents are the descents of w x
    sigma."""
    return canon_polynomial_bruteforce(chain(m), tuple(range(m, 0, -1)), n)
