"""Canon and dissonant polynomials.

The brute-force sums here are the source of truth; the closed forms
(product formulas, degree and palindromicity laws, gamma
interpretations) are the things under test: ``canonlab.forms`` holds
the product form and the weak-descent polynomial, and ``canonlab.verify``
the checks that compare them.  A sum over column words sigma is one
kernel call over a stream of descent classes (``class_rows``): of
``canon_polynomial_bruteforce`` over all n! sigma, for any labeled P, n
and removed covers, and of ``verify.generalized_product_identity`` over
the extension words of a second poset P'.

The sum is exact, yet it runs one lane per descent class of sigma.  By
the theory of (P,w)-partitions, a labeled poset's descent polynomial
depends only on which covers the labeling makes strict (w(a) > w(b) for
a cover a < b).  Under w x sigma a cover inside a column is strict when
w falls, and a kept cover (x, j) < (x, j+1) exactly when
sigma(j) > sigma(j+1), so the sigmas with the same descents on the gaps
that keep a cover (``_sigma_classes``, on ``poset._gap_bits``) share one
histogram.  A depth-first walk over those patterns counts each
class with no sigma listed and yields its (sigma, size) as the kernel
takes the lane, so the kernel's work bound, which counts all
2^(kept gaps) lanes, refuses before any class is built.  P''s words are
counted on its own state graph, in a walk bounded before it starts.
The edge-subset sweep and its orbits of subposets are in
``canonlab.sweep``, and the Cor. 5.1 gamma interpretation in
``canonlab.gamma``; only the commands that run them load those modules.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, repeat, tee
from math import factorial
from operator import add, mul

from canonlab import kernel
from canonlab.polys import IntPolynomial
from canonlab.poset import (
    Poset,
    _check_chain,
    _check_labeling,
    _check_size,
    _gap_bits,
    _removed_mask,
    canon_labeling,
    chain,
    product_with_chain,
)


class AmphibianSpec(namedtuple("AmphibianSpec", "m n mask")):
    """A chain product with a chosen set of inter-copy covers removed,
    named by its edge mask.

    Bit ``(row-1)(n-1) + j-1`` of ``mask``, set only by ``from_removed``
    through ``poset._removed_mask`` and read by ``poset._gap_bits``, removes
    the cover ``(row, j) < (row, j+1)``; intra-copy covers always stay.
    ``removed``, ``mode`` and ``poset`` refuse an m below 1 and a mask
    outside ``[0, 2^(m(n-1)))`` alike.
    """

    __slots__ = ()

    @classmethod
    def from_removed(
        cls, m: int, n: int, pairs: Iterable[tuple[int, int]]
    ) -> "AmphibianSpec":
        """The spec removing the 1-based covers ``(row, j)`` in ``pairs``;
        a grid past the poset bound is refused before any bit is set."""
        return cls(m, n, _removed_mask(m, n, pairs))

    @property
    def removed(self) -> tuple[tuple[int, int], ...]:
        """The removed covers as 1-based pairs ``(row, j)``, row-major."""
        _check_chain(self.m)
        return tuple(sorted(
            (x + 1, j + 1)
            for j, bits in enumerate(_gap_bits(self.m, self.n, self.mask))
            for x in range(self.m) if bits[x]
        ))

    def poset(self) -> Poset:
        return product_with_chain(chain(self.m), self.n, self.mask)

    def mode(self) -> str:
        """How the removals relate to the multiset-permutation picture:
        'canon' keeps everything, 'fixed-row' leaves at least one row
        untouched (its copies stay chained, fixing one subsequence), and
        'general' touches every row."""
        touched = {row for row, _ in self.removed}
        if not touched:
            return "canon"
        return "general" if len(touched) == self.m else "fixed-row"


class _Sized:
    """``length`` items, which ``make()`` yields afresh on every walk: the
    kernel sizes its work bound by the number of labelings, so it can
    refuse before any is built.  ``len`` reads at most ``sys.maxsize``, the
    most it can return, which is already far past the kernel's work bound."""

    def __init__(self, length: int, make: Callable[[], Iterator]):
        self._length, self._make = min(length, sys.maxsize), make

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return self._make()


def class_rows(q: Poset, classes: _Sized, *labels: Callable) -> Iterator[tuple]:
    """(sigma, size, *rows) per (sigma, size) of ``classes``, a row per label
    from one kernel call over ``q`` with lanes ``label(sigma)``.  The one walk
    gives the kernel each class just before its pair is read, so a refusal
    walks none, and no more than one class waits between the two."""
    walk, ahead = tee(classes)
    lanes = _Sized(len(classes) * len(labels), lambda: (f(s) for s, _ in ahead for f in labels))
    rows = kernel.descent_histograms(q, lanes)
    for *class_row, (sigma, size) in zip(*[rows] * len(labels), walk):
        yield sigma, size, *class_row


def _row_sum(classes: Iterable[tuple]) -> tuple[IntPolynomial, ...]:
    """Each (sigma, size, *rows) class's rows times its size, one running row per label."""
    totals: list = []  # before the first class, each running row reads zeros
    for _, size, *rows in classes:
        totals = [[*map(add, total, map(mul, row, repeat(size)))]
                  for total, row in zip(totals or repeat(repeat(0)), rows)]
    return tuple(map(IntPolynomial, totals))


def _rank_step(j: int, f: list[int]) -> tuple[list[int], list[int]]:
    """The permutations' count step: by the rank of the last value, the
    next value rises to rank r from ranks < r and falls from ranks >= r."""
    rise = [0, *accumulate(f)]
    return rise, [rise[-1] - c for c in rise]


def _descent_classes(n: int, gaps: Sequence[int], step: Callable = _rank_step,
                     start: Sequence[int] = (1,)) -> Iterator[tuple[tuple[int, ...], int]]:
    """Depth first, one (sigma, size) pair per pattern of descents on
    ``gaps`` (gap j between sigma[j] and sigma[j+1]), rises first at each
    gap: sigma is the identity with each run of descents reversed, and size
    how many words have its pattern; a pattern no word has gets no pair.
    ``step(j, f)`` splits the counts f of the prefixes of length j + 1
    (``start`` for j = 0) into those of length j + 2 that rise and fall at
    gap j.  The walk stops after the last gap: later values take any ranks,
    and sigma rises (a second poset's step, in ``canonlab.verify``, keeps
    every gap, so its words end there)."""
    stop = max(gaps, default=-1) + 1
    kept = set(gaps)
    # (next gap, sigma's closed runs, its open run's start, prefix counts):
    # a rise closes a run, and off the gaps both parts go on together
    todo = [(0, (), 0, start)]
    while todo:
        j, runs, first, f = todo.pop()
        if j == stop:
            yield (runs + tuple(range(j + 1, first, -1)) + tuple(range(j + 2, n + 1)),
                   sum(f) * factorial(n) // factorial(j + 1))
            continue
        rise, fall = step(j, f)
        closed = (j + 1, runs + tuple(range(j + 1, first, -1)), j + 1)
        if j in kept:
            todo += [node for node in ((j + 1, runs, first, fall), (*closed, rise)) if any(node[3])]
        else:
            todo.append((*closed, [*map(add, rise, fall)]))


def _sigma_classes(rows: int, n: int, mask: int) -> _Sized:
    """The (sigma, size) pair of each descent class on the gaps where a row keeps its cover."""
    gaps = [j for j, removed in enumerate(_gap_bits(rows, n, mask)) if not all(removed)]
    return _Sized(1 << len(gaps), lambda: _descent_classes(n, gaps))


def canon_polynomial_bruteforce(p: Poset, w: Sequence[int], n: int, mask: int = 0) -> IntPolynomial:
    """Descent polynomial of all canon permutations of (p, w): the sum of
    the descent polynomials of ``product_with_chain(p, n, mask)`` under
    w x sigma over every column labeling sigma.  The kernel runs one lane
    per descent class of sigma on the gaps that keep a cover, and each
    class's row counts once per sigma in it, read as the class is walked."""
    _check_labeling(p, w)
    q = product_with_chain(p, n, mask)
    _check_size(n)  # an empty P gives the kernel no work, yet its one class takes n!
    classes = _sigma_classes(p.element_count, n, mask)
    return _row_sum(class_rows(q, classes, lambda sigma: canon_labeling(w, sigma)))[0]


def dissonant_polynomial(spec: AmphibianSpec, w: Sequence[int]) -> IntPolynomial:
    """Descent polynomial of the subposet's labeled extensions, summed
    over every column labeling."""
    return canon_polynomial_bruteforce(chain(spec.m), w, spec.n, mask=spec.mask)
