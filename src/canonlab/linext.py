"""Linear extensions, word statistics, and the Dyck-path correspondence.

A linear extension is streamed as a sequence of element indices; its
*word* under a labeling is the sequence of labels, and every descent
statistic here is defined on words.  Enumeration order is lexicographic
on element indices, streams can be stopped early, and enumeration is
resumable from a prefix so work can be partitioned across workers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from canonlab import kernel
from canonlab.config import element_cap
from canonlab.errors import SizeCapError
from canonlab.poset import (
    Labeling,
    Poset,
    chain,
    checked_product,
    product_with_chain,
    rho_parities,
)


@dataclass(frozen=True)
class LinearExtension:
    """An order-preserving arrangement of all elements of a poset."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class DyckPath:
    """A lattice path of e/n steps staying weakly below the diagonal."""

    steps: str

    def __post_init__(self):
        x = y = 0
        for s in self.steps:
            if s == "e":
                x += 1
            elif s == "n":
                y += 1
            else:
                raise ValueError(f"invalid step {s!r}")
            if y > x:
                raise ValueError(f"path {self.steps!r} rises above the diagonal")
        if x != y:
            raise ValueError(f"path {self.steps!r} has unbalanced steps")


def is_valid_extension(p: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(range(p.element_count)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in p.covers)


def enumerate_linear_extensions(
    p: Poset, prefix: Sequence[int] = (), cap: Optional[int] = None
) -> Iterator[LinearExtension]:
    """Stream every linear extension exactly once, lexicographically.

    ``prefix`` restricts the stream to extensions starting with the given
    elements, which lets callers partition the search space; aggregating
    per-prefix results must not depend on order.
    """
    n = p.element_count
    if n > element_cap(cap):
        raise SizeCapError(
            f"poset has {n} elements, above the cap {element_cap(cap)}"
        )
    succ = [list(p.successors(v)) for v in range(n)]
    indeg = [len(p.predecessors(v)) for v in range(n)]
    used = [False] * n
    acc = list(prefix)
    for v in prefix:
        if used[v] or indeg[v] != 0:
            raise ValueError(f"prefix {tuple(prefix)} is not a valid extension prefix")
        used[v] = True
        for w in succ[v]:
            indeg[w] -= 1

    def walk() -> Iterator[LinearExtension]:
        if len(acc) == n:
            yield LinearExtension(tuple(acc))
            return
        for v in range(n):
            if used[v] or indeg[v]:
                continue
            used[v] = True
            acc.append(v)
            for w in succ[v]:
                indeg[w] -= 1
            yield from walk()
            for w in succ[v]:
                indeg[w] += 1
            acc.pop()
            used[v] = False

    return walk()


def count_linear_extensions(p: Poset) -> int:
    """Count extensions without materializing them (kernel fast path)."""
    return kernel.count_extensions(p)


def word(ext: LinearExtension, w: Labeling) -> tuple[int, ...]:
    """The label word of an extension."""
    return tuple(w[v] for v in ext.order)


def descent_set(letters: Sequence[int]) -> tuple[int, ...]:
    """1-based positions j with a strict drop between letters j and j+1."""
    return tuple(j for j in range(1, len(letters)) if letters[j] < letters[j - 1])


def descent_count(letters: Sequence[int]) -> int:
    return len(descent_set(letters))


def weak_descent_count(letters: Sequence[int]) -> int:
    """Positions where the word drops or stays level."""
    return sum(1 for j in range(1, len(letters)) if letters[j] <= letters[j - 1])


def multiset_word(ext: LinearExtension, canon_label: Labeling, m: int) -> tuple[int, ...]:
    """Collapse a canon-labeled extension to its multiset permutation.

    Letter i is ``ceil(label_i / m)``, i.e. the column value of the copy
    containing the i-th element.
    """
    return tuple((canon_label[v] + m - 1) // m for v in ext.order)


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


def dyck_paths(n: int) -> Iterator[DyckPath]:
    """All Dyck paths with n east and n north steps."""

    def grow(prefix, e, no):
        if e == n and no == n:
            yield DyckPath("".join(prefix))
            return
        if e < n:
            prefix.append("e")
            yield from grow(prefix, e + 1, no)
            prefix.pop()
        if no < e:
            prefix.append("n")
            yield from grow(prefix, e, no + 1)
            prefix.pop()

    yield from grow([], 0, 0)


def high_peak_positions(path: DyckPath) -> tuple[int, ...]:
    """1-based step indices starting an e,n peak that avoids the diagonal."""
    out = []
    x = y = 0
    steps = path.steps
    for i, s in enumerate(steps):
        if s == "e":
            x += 1
            if i + 1 < len(steps) and steps[i + 1] == "n" and x - y >= 2:
                out.append(i + 1)
        else:
            y += 1
    return tuple(out)


def high_peak_count(path: DyckPath) -> int:
    return len(high_peak_positions(path))


def _require_two_row_grid(p: Poset) -> int:
    n, r = divmod(p.element_count, 2)
    if r or n < 1 or p != product_with_chain(chain(2), n):
        raise ValueError("expected the product of a 2-chain with a chain")
    return n


def dyck_from_linext(p: Poset, ext: LinearExtension) -> DyckPath:
    """Encode an extension of the two-row grid as a Dyck path.

    Under the natural labeling the bottom row holds the odd labels, so an
    element maps to an east step iff its index is even.
    """
    _require_two_row_grid(p)
    if not is_valid_extension(p, ext.order):
        raise ValueError("not a linear extension of the given poset")
    return DyckPath("".join("e" if v % 2 == 0 else "n" for v in ext.order))


def linext_from_dyck(path: DyckPath) -> LinearExtension:
    """Inverse encoding: east steps emit the bottom row in order, north
    steps the top row."""
    order = []
    e = n = 0
    for s in path.steps:
        if s == "e":
            order.append(2 * e)
            e += 1
        else:
            order.append(2 * n + 1)
            n += 1
    return LinearExtension(tuple(order))


def _checked_chain_dims(p: Poset) -> tuple[int, int]:
    n = len(p.maximal_elements())
    if n < 1 or p.element_count % n:
        raise ValueError("expected a checked chain product poset")
    m = p.element_count // n - 1
    if m < 1 or p != checked_product(chain(m), n):
        raise ValueError("expected a checked chain product poset")
    return m, n


def _rho_drops(parities: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The rho-descent positions of an extension and the double ones
    among them, given every element's rho parity.

    Position j is a rho-descent when the pair (parity, label) strictly
    falls from letter j to letter j+1; it is double when j-1 is also one,
    or when j = 1.  The pair is compared as the int parity * n + label.
    """
    n = len(parities)
    keys = [parities[v] * n + v for v in order]
    drops = [j for j in range(1, len(keys)) if keys[j] < keys[j - 1]]
    dropset = set(drops)
    return drops, [j for j in drops if j == 1 or j - 1 in dropset]


def rho_descent_data(
    pcheck: Poset, ext: LinearExtension
) -> tuple[frozenset[int], frozenset[int]]:
    """Rho-descent and double-rho-descent positions of a checked-product
    extension under its natural labeling.

    The parity of an element is the chain-length parity of its principal
    ideal (``rho``); see ``_rho_drops`` for the rule.
    """
    _checked_chain_dims(pcheck)
    if not is_valid_extension(pcheck, ext.order):
        raise ValueError("not a linear extension of the given poset")
    drops, doubles = _rho_drops(rho_parities(pcheck), ext.order)
    return frozenset(drops), frozenset(doubles)


def phi(sigma: Labeling) -> Labeling:
    """The complementing involution: every entry v becomes n+1-v."""
    n = sigma.size
    return Labeling(tuple(n + 1 - v for v in sigma.values))


def phi_on_extension(
    q: Poset, w: Labeling, sigma: Labeling, ext: LinearExtension
) -> tuple[LinearExtension, Labeling, Labeling]:
    """Reread an extension of (q, w x sigma) under the complemented labels.

    The element order is unchanged; because the complemented canon
    labeling is the pointwise complement v -> mn+1-v, the word of the
    result is the complement of the input word, so descents and ascents
    swap.
    """
    if not is_valid_extension(q, ext.order):
        raise ValueError("input order violates the poset")
    return ext, phi(w), phi(sigma)
