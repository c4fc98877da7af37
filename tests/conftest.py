import random
from collections import defaultdict, deque
from itertools import combinations, permutations, product
from math import comb
from typing import Sequence

import pytest

from canonlab import kernel
from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.polys import IntPolynomial
from canonlab.verify import IdentityReport, _word_classes, descent_count, is_dyck_path
from canonlab.poset import Poset, canon_labeling, chain, product_with_chain, transitive_reduction

# the grids on which the per-sigma oracles check the class routes
SIGMA_GRIDS = [(m, n) for m in (1, 2) for n in range(1, 7)] + [(3, n) for n in range(1, 6)]


def vee_poset() -> Poset:
    """One minimum under two incomparable maxima."""
    return Poset(3, frozenset({(0, 1), (0, 2)}))


def wedge_poset() -> Poset:
    """Two incomparable minima under one maximum."""
    return Poset(3, frozenset({(0, 2), (1, 2)}))


def removable_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Inter-copy covers (row, j) of the m x n grid, 1-based, in the
    row-major order of the mask bits."""
    return tuple((row, j) for row in range(1, m + 1) for j in range(1, n))


# every grid with at most 2^10 subposets: 7,316 masks in all
MASK_GRIDS = tuple((m, n) for m in range(1, 11) for n in range(1, 12) if m * (n - 1) <= 10)


def string_mirror_orbit_key(m: int, n: int, mask: int) -> tuple:
    """``sweep._orbit_key`` as it read the mask bits itself: each gap's
    removed bits by shifts, the mirror by reversing the m(n-1)-bit string."""
    k = n - 1

    def blocks(bits: int) -> tuple:
        out, block = [], []
        for j in range(k):
            removed = tuple(bits >> x * k + j & 1 for x in range(m))
            if all(removed):
                out.append(tuple(block))
                block = []
            else:
                block.append(removed)
        return tuple(sorted([*out, tuple(block)]))

    mirror = int(format(mask, f"0{m * k}b")[::-1], 2)
    return min(blocks(mask), blocks(mirror))


def word_classes(pprime: Poset):
    """``verify._word_classes`` on P''s own state graph, built here."""
    return _word_classes(pprime, kernel._transitions(pprime))


def canon_rows(q: Poset, w: Sequence[int], sigmas: Sequence[Sequence[int]]):
    """The descent histogram of ``q`` under each canon labeling w x sigma,
    one kernel lane per sigma: the oracle for the class stream
    ``canon.class_rows``, which runs one lane per descent class."""
    return kernel.descent_histograms(q, [canon_labeling(w, sigma) for sigma in sigmas])


# ---------------------------------------------------------------------------
# oracles that no check runs


def less(p: Poset, a: int, b: int) -> bool:
    """Strict comparability a < b in ``p``: b lies on a walk up the covers from a."""
    seen, todo = set(), [a]
    while todo:
        for c in p.successors(todo.pop()):
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return b in seen


def weak_descent_count(letters: Sequence[int]) -> int:
    """Positions where the word drops or stays level."""
    return sum(1 for j in range(1, len(letters)) if letters[j] <= letters[j - 1])


def multiset_word(order: Sequence[int], canon_label: Sequence[int], m: int) -> tuple[int, ...]:
    """Collapse a canon-labeled extension to its multiset permutation.

    Letter i is ``ceil(label_i / m)``, i.e. the column value of the copy
    containing the i-th element.
    """
    return tuple((canon_label[v] + m - 1) // m for v in order)


def is_canon_permutation(letters: Sequence[int], m: int) -> bool:
    """True iff all m copy-subsequences of the multiset word are identical.

    The j-th copy subsequence collects the j-th occurrence of every letter
    in position order.
    """
    occ = defaultdict(list)
    for i, v in enumerate(letters):
        occ[v].append(i)
    if any(len(positions) != m for positions in occ.values()):
        return False
    patterns = set()
    for copy in range(m):
        subseq = tuple(v for _, v in sorted((occ[v][copy], v) for v in occ))
        patterns.add(subseq)
    return len(patterns) == 1


def order_polynomial_values(p: Poset, w: Sequence[int], j_max: int) -> tuple[int, ...]:
    """Values of the labeled order polynomial at 0..j_max, by exhaustive
    enumeration of maps into {0..j}.

    A map counts when it is weakly order-preserving and strict on every
    comparable pair whose labels invert.  This is the definitional brute
    force, independent of the extension-based route.
    """
    n = p.element_count
    pairs = [(a, b) for a in range(n) for b in range(n) if less(p, a, b)]
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


def _rho_drops(parities: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The rho-descent positions of an extension and the double ones
    among them, given every element's rho parity: the oracle for ``gamma.rho_halves``.

    Position j is a rho-descent when the pair (parity, label) strictly
    falls from letter j to letter j+1; it is double when j-1 is also one,
    or when j = 1.  The pair is compared as the int parity * n + label.
    """
    n = len(parities)
    keys = [parities[v] * n + v for v in order]
    drops = [j for j in range(1, len(keys)) if keys[j] < keys[j - 1]]
    dropset = set(drops)
    return drops, [j for j in drops if j == 1 or j - 1 in dropset]


def column_labelings(n: int) -> list[tuple[int, ...]]:
    """Every permutation of 1..n, in lexicographic order: the n! sigmas
    that the oracles list, so only for small n."""
    assert n <= 7, "n! sigmas are listed only for n <= 7"
    return list(permutations(range(1, n + 1)))


def weak_descent_lanes_per_sigma(m: int, n: int) -> IntPolynomial:
    """prop-5.2's left side by its definition, the oracle for the class
    route ``verify._weak_descent_lanes``: one kernel lane per sigma on the
    negated multiset letters n + 1 - sigma(j) at (x, j), whose descents are
    the strict ascents, each of the m*n-bin rows summed and read backwards."""
    letters = [[n + 1 - s for s in sigma for _ in range(m)] for sigma in column_labelings(n)]
    rows = kernel.descent_histograms(product_with_chain(chain(m), n), letters)
    return IntPolynomial([*map(sum, zip(*rows))][::-1])


def shift_law_per_sigma(m: int, n: int) -> list[IdentityReport]:
    """cor-3.4 by its definition, the oracle for the class route
    ``verify._check_shift_law``: every sigma's row under the natural rows
    against x^des(sigma) times the identity's, naming the first sigma that
    fails."""
    sigmas = column_labelings(n)
    labelings = [canon_labeling(tuple(range(1, m + 1)), s) for s in sigmas]
    grid = product_with_chain(chain(m), n)
    rows = [IntPolynomial(r) for r in kernel.descent_histograms(grid, labelings)]
    bad = next((s for s, row in zip(sigmas, rows) if row != rows[0].shift(descent_count(s))), None)
    detail = None if bad is None else f"failed at sigma={bad}"
    return [IdentityReport(f"shift-law m={m} n={n}", bad is None, witness=detail)]


def random_poset(rng: random.Random, max_elements: int = 5) -> Poset:
    """A random small poset: random DAG on a shuffled ground set, reduced
    to its covers."""
    n = rng.randint(1, max_elements)
    order = list(range(n))
    rng.shuffle(order)
    relations = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                relations.add((order[i], order[j]))
    return Poset(n, transitive_reduction(n, relations))


def implied_relations(relations) -> set[tuple[int, int]]:
    """The relations (a, b) of an acyclic relation set that the others
    imply, by definition: b is reached by a breadth-first search up the
    relations from some other relation (a, c), c != b.  The oracle for
    the two-step reach table that ``Poset`` and ``transitive_reduction``
    read."""
    succ = defaultdict(set)
    for a, b in relations:
        succ[a].add(b)

    def reached(c):
        seen, queue = {c}, deque([c])
        while queue:
            for d in succ[queue.popleft()] - seen:
                seen.add(d)
                queue.append(d)
        return seen

    return {(a, b) for a, b in relations if any(b in reached(c) for c in succ[a] - {b})}


def all_posets(n: int) -> list[Poset]:
    """Every poset on n labeled elements, by filtering cover-set candidates."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            try:
                out.append(Poset(n, frozenset(subset)))
            except PosetFormatError:
                continue
    return out


def dyck_paths(n: int) -> list[str]:
    """Every Dyck path of semilength n, by brute force: each placement of
    n east steps among 2n steps that ``is_dyck_path`` accepts."""
    out = []
    for east in combinations(range(2 * n), n):
        steps = ["n"] * (2 * n)
        for i in east:
            steps[i] = "e"
        path = "".join(steps)
        if is_dyck_path(path):
            out.append(path)
    return out


def gamma_polynomial(gamma, d: int) -> IntPolynomial:
    """The polynomial with gamma vector ``gamma`` over center degree d:
    the sum of g_i x^i (1+x)^(d-2i), coefficient by coefficient."""
    return IntPolynomial(
        sum(g * comb(d - 2 * i, k - i) for i, g in enumerate(gamma) if 0 <= k - i <= d - 2 * i)
        for k in range(d + 1)
    )


def poly_sum(*polys: IntPolynomial) -> IntPolynomial:
    """The sum of the polynomials, coefficient by coefficient."""
    top = max(p.degree for p in polys) + 1
    return IntPolynomial(sum(p.coefficient(k) for p in polys) for k in range(top))


def random_labeling(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
