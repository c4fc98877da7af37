"""Canon, dissonant and weak-descent polynomials, gamma data and sweeps.

The brute-force sums here are the source of truth; the closed forms
(product formulas, degree and palindromicity laws, gamma
interpretations) are the things under test, and ``canonlab.verify``
holds the checks that compare them.  Every sum over column
labelings sigma, for any labeled P, n and removed covers, is one call of
``canon_polynomial_bruteforce``, whose rows come from ``canon_rows``: one
kernel call per poset and row labeling w, one histogram per w x sigma.

Both reductions below are exact, so they change the work, not a result.
The sum runs one kernel lane per descent class of sigma, not one per
sigma.  By the theory of (P,w)-partitions, a labeled poset's descent
polynomial depends only on which of its covers the labeling makes strict
(w(a) > w(b) for a cover a < b).  Under w x sigma a cover inside a column
is strict when w falls, and a kept cover (x, j) < (x, j+1) exactly when
sigma(j) > sigma(j+1), so the sigmas with the same descents on the gaps
that keep a cover share one histogram.  A depth-first walk over those
patterns counts each class with no sigma listed and hands the kernel one
sigma per class as it takes the lane, so the kernel's work bound, which
counts all 2^(kept gaps) lanes, refuses before any class is built.  The
subposet sums are one table, ``dissonant_polynomials``, one sum per orbit
of masks (``_orbit_key``) over worker processes, which the edge-subset
sweep and verify's degree, palindromy and fixed-row checks all read.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import accumulate, product, repeat
from math import factorial
from operator import add, itemgetter, mul
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from canonlab import kernel
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.linext import rho_halves, rho_orders
from canonlab.polys import (
    IntPolynomial,
    check_named_n,
    eulerian,
    gamma_expansion,
    hstar,
    is_unimodal,
)
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


MAX_SUBPOSETS = 1024


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


def subposet_masks(m: int, n: int) -> range:
    """The edge masks of the m x n grid's subposets, refused first past
    ``MAX_SUBPOSETS``."""
    if m < 1 or n < 1:
        raise ValueError("chain factor must have size >= 1")
    covers = m * (n - 1)
    if covers >= MAX_SUBPOSETS.bit_length():  # before the shift below
        raise SizeCapError(f"2^{covers} subposets exceed the bound {MAX_SUBPOSETS}")
    return range(1 << covers)


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


def dissonant_polynomials(m: int, n: int, w: Sequence[int], masks: Iterable[int],
                          jobs: int = 1) -> dict[int, IntPolynomial]:
    """The dissonant polynomial under ``w`` of each of ``masks``, summed
    once per orbit under ``_orbit_key``'s maps, for its first mask, over
    ``jobs`` worker processes.  The maps keep the polynomial when
    w(m+1-r) = m+1-w(r) for every row r, as the natural and reversed w have."""
    keys = {mask: _orbit_key(m, n, mask) for mask in masks}
    firsts: dict[tuple, int] = {}
    for mask, key in keys.items():
        firsts.setdefault(key, mask)
    specs = [AmphibianSpec(m, n, mask) for mask in firsts.values()]
    polys = dict(zip(firsts, parallel_map(partial(dissonant_polynomial, w=w), specs, jobs)))
    return {mask: polys[key] for mask, key in keys.items()}


def weak_descent_polynomial(m: int, n: int) -> IntPolynomial:
    """Weak-descent polynomial of canon permutations: the canon polynomial
    under the reversed row labeling w = (m, ..., 1).

    A canon word has letter sigma(j) at (x, j), so letters tie only inside
    a column, which every extension climbs while w x sigma falls there;
    labels of different columns compare as their letters do.  So for
    every sigma and extension, the weak descents are the descents of w x
    sigma."""
    return canon_polynomial_bruteforce(chain(m), tuple(range(m, 0, -1)), n)


class GammaInterpretation(NamedTuple):
    """Gamma coordinates of the canon polynomial next to the counts of
    filtered checked-product extensions (``linext.rho_halves``).

    ``shift`` aligns the filtered rho-descent counts with the gamma
    indices; ``stated_shift`` is floor((m+n-1)/2).  When they differ, or
    no offset works, ``matches`` is False: the caller sees the value that
    holds instead of a silent pass.
    """

    m: int
    n: int
    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    stated_shift: int
    shift: Optional[int]
    matches: bool


def gamma_interpretation(m: int, n: int) -> GammaInterpretation:
    """Count checked-product extensions with i+d rho-descents, no double
    rho-descents and an increasing final pair when both parities are odd,
    and compare their counts, the product of two halves' with none
    listed, against the gamma vector of the canon polynomial."""
    poly = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
    center = m * (n - 1)
    gamma = gamma_expansion(poly, center)
    if gamma is None:
        raise CanonlabError("canon polynomial is not palindromic over its center")
    (grid, _), (tops, _) = rho_halves(m, n)
    by_drops = IntPolynomial(grid) * IntPolynomial(tops)
    stated = (m + n - 1) // 2
    aligned = IntPolynomial(gamma).shift
    shift = next((s for s in (stated, *range(center + 1)) if by_drops == aligned(s)), None)
    base = stated if shift is None else shift
    counts = tuple(by_drops.coefficient(base + i) for i in range(len(gamma)))
    return GammaInterpretation(m, n, gamma, counts, stated, shift, shift == stated)


def gamma_class_words(gi: GammaInterpretation) -> tuple[tuple[str, ...], ...]:
    """The canon words of each gamma class i, the extensions g + t with
    shift + i rho-descents, sorted by their letters: g's columns looked up
    in the column values t lists, joined by "." from n = 10 on."""
    m = gi.m
    base = gi.stated_shift if gi.shift is None else gi.shift
    classes = [[] for _ in gi.gamma]
    (_, grid), (_, tops) = rho_halves(m, gi.n)
    columns, sigmas = {}, {}  # falls -> the half's ways
    for d, g in rho_orders(grid):
        columns.setdefault(d, []).append(itemgetter(*[v // m for v in g]))
    # letter k is the character chr(ord("0") + k): it sorts as k, and is k up to 9
    for d, t in rho_orders(tops):  # top j has column value j + 1
        sigmas.setdefault(d, []).append("".join(chr(ord("1") + j) for j in t))
    for (dg, cs), (dt, ss) in product(columns.items(), sigmas.items()):
        if 0 <= dg + dt - base < len(classes):
            classes[dg + dt - base] += ["".join(c(s)) for c in cs for s in ss]
    full = {ord("0") + k: f"{k}." for k in range(1, gi.n + 1)}
    spell = str if gi.n < 10 else lambda w: w.translate(full)[:-1]
    return tuple(tuple(map(spell, sorted(words))) for words in classes)


class SweepRow(NamedTuple):
    mask: int
    polynomial: IntPolynomial
    degree: int
    palindromic: bool
    gamma: Optional[tuple[int, ...]]
    gamma_positive: bool
    unimodal: bool
    mode: str


def _sweep_row(spec: AmphibianSpec, poly: IntPolynomial) -> SweepRow:
    """The row of ``spec`` with polynomial ``poly``; its gamma expansion
    exists exactly when ``poly`` is palindromic over [0, m(n-1)]."""
    gamma = gamma_expansion(poly, spec.m * (spec.n - 1))
    return SweepRow(spec.mask, poly, poly.degree, gamma is not None, gamma,
                    gamma is not None and min(gamma) >= 0, is_unimodal(poly), spec.mode())


def _column_blocks(m: int, n: int, mask: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The subposet of ``mask`` as its blocks of columns joined by kept
    covers, sorted: each block lists, gap by gap, the removed bit of
    every row."""
    k = n - 1
    blocks, block = [], []
    for j in range(k):
        removed = tuple(mask >> x * k + j & 1 for x in range(m))
        if all(removed):  # no cover joins columns j+1 and j+2
            blocks.append(tuple(block))
            block = []
        else:
            block.append(removed)
    blocks.append(tuple(block))
    return tuple(sorted(blocks))


def _orbit_key(m: int, n: int, mask: int) -> tuple:
    """A key shared by exactly the masks one gets from ``mask`` by two
    maps, each of which keeps the summed polynomial:

    * permuting the blocks of columns joined by kept covers: a
      row-preserving isomorphism, and sigma -> sigma o tau^-1 is a
      bijection of the column labelings, under any row labeling w;
    * the dual reflection (row, j) -> (m+1-row, n-j), which reverses the
      m(n-1) mask bits: reversing an extension and complementing its
      labels keeps every descent, and the complement of w x sigma, moved by
      the reflection, is w x sigma' with sigma'(j) = n+1-sigma(n+1-j) when
      w(m+1-r) = m+1-w(r) for every row r, as for the natural and reversed w.
    """
    mirror = int(format(mask, f"0{m * (n - 1)}b")[::-1], 2)
    return min(_column_blocks(m, n, mask), _column_blocks(m, n, mirror))


def conjecture_sweep(m: int, n: int, jobs: int = 1) -> tuple[SweepRow, ...]:
    """One gamma row per subset of removable inter-copy edges, in mask
    order, from its orbit's polynomial under the natural row labeling."""
    polys = dissonant_polynomials(m, n, tuple(range(1, m + 1)), subposet_masks(m, n), jobs)
    return tuple(_sweep_row(AmphibianSpec(m, n, mask), poly) for mask, poly in polys.items())


def parallel_map(fn, items, jobs: int = 1):
    """Order-preserving map, fanned out over processes when jobs > 1.

    Results are combined in input order, so output is deterministic
    regardless of scheduling.  The pool may start all its workers at
    once, so it has at most one per item and per CPU, whatever ``jobs``.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    # imported only here: loading it adds tens of ms to every interpreter start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunk))
