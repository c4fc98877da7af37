"""Linear extensions, word statistics, and the Dyck-path correspondence.

A linear extension is a plain tuple of element indices; its *word*
under a labeling is the sequence of labels, and every descent statistic
here is defined on words.  Enumeration order is lexicographic
on element indices, and streams can be stopped early.
``enumerate_linear_extensions`` streams every extension;
``rho_filtered_extensions`` runs the same search on a checked product
but prunes each prefix that ends in a double rho-descent, so it yields
only the extensions Cor. 5.1 counts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Iterator, Sequence

from canonlab import kernel
from canonlab.poset import (
    Frozen,
    Poset,
    chain,
    checked_product,
    product_with_chain,
    rho_parities,
)


class DyckPath(Frozen):
    """A lattice path of e/n steps staying weakly below the diagonal."""

    __slots__ = ("steps",)

    def __init__(self, steps: str):
        x = y = 0
        for s in steps:
            if s == "e":
                x += 1
            elif s == "n":
                y += 1
            else:
                raise ValueError(f"invalid step {s!r}")
            if y > x:
                raise ValueError(f"path {steps!r} rises above the diagonal")
        if x != y:
            raise ValueError(f"path {steps!r} has unbalanced steps")
        object.__setattr__(self, "steps", steps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self):
        return hash((self.steps,))

    def __repr__(self):
        return f"DyckPath(steps={self.steps!r})"

    def __reduce__(self):
        return DyckPath, (self.steps,)


def is_valid_extension(p: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(range(p.element_count)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in p.covers)


def enumerate_linear_extensions(p: Poset) -> Iterator[tuple[int, ...]]:
    """Stream every linear extension exactly once, lexicographically.

    A loop over an explicit stack, so the depth of a poset is not bounded
    by the interpreter's recursion limit.  ``ready`` is the set of
    elements that may come next, as a bitmask; the stack keeps it for
    every placed element, so stepping back restores it.
    """
    n = p.element_count
    below = [0] * n
    for a, b in p.covers:
        below[b] |= 1 << a
    succ = [p.successors(v) for v in range(n)]
    order: list[int] = []
    readies: list[int] = []
    placed = 0
    ready = todo = sum(1 << v for v in range(n) if not below[v])
    while True:
        if len(order) == n:
            yield tuple(order)
        if todo:  # place the least untried ready element
            v = (todo & -todo).bit_length() - 1
            order.append(v)
            readies.append(ready)
            placed |= 1 << v
            ready ^= 1 << v
            for w in succ[v]:
                if not below[w] & ~placed:
                    ready |= 1 << w
            todo = ready
        elif order:  # step back, then try the ready elements after v
            v = order.pop()
            ready = readies.pop()
            placed ^= 1 << v
            todo = ready >> v + 1 << v + 1
        else:
            return


def count_linear_extensions(p: Poset) -> int:
    """Count extensions without materializing them (kernel fast path)."""
    return kernel.count_extensions(p)


def word(order: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """The label word of an extension."""
    return tuple(w[v] for v in order)


def descent_set(letters: Sequence[int]) -> tuple[int, ...]:
    """1-based positions j with a strict drop between letters j and j+1."""
    return tuple(j for j in range(1, len(letters)) if letters[j] < letters[j - 1])


def descent_count(letters: Sequence[int]) -> int:
    return len(descent_set(letters))


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


@lru_cache(maxsize=1)  # a walk over one grid's extensions checks it once
def _require_two_row_grid(p: Poset) -> int:
    n, r = divmod(p.element_count, 2)
    if r or n < 1 or p != product_with_chain(chain(2), n):
        raise ValueError("expected the product of a 2-chain with a chain")
    return n


def dyck_from_linext(p: Poset, order: Sequence[int]) -> DyckPath:
    """Encode an extension of the two-row grid as a Dyck path.

    Under the natural labeling the bottom row holds the odd labels, so an
    element maps to an east step iff its index is even.
    """
    _require_two_row_grid(p)
    if not is_valid_extension(p, order):
        raise ValueError("not a linear extension of the given poset")
    return DyckPath("".join("e" if v % 2 == 0 else "n" for v in order))


def linext_from_dyck(path: DyckPath) -> tuple[int, ...]:
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
    return tuple(order)


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


def rho_filtered_extensions(pcheck: Poset) -> Iterator[tuple[tuple[int, ...], int]]:
    """The checked-product extensions that Cor. 5.1 counts, each with its
    number of rho-descents, lexicographically.

    An extension counts when it has no double rho-descent (see
    ``_rho_drops``) and, when its last two elements both have odd
    parity, ends on a rise.  The search runs on the stack of
    ``enumerate_linear_extensions`` but refuses any step that would make
    a double rho-descent, so no prefix holding one is extended.
    """
    _checked_chain_dims(pcheck)
    n = pcheck.element_count
    parities = rho_parities(pcheck)
    keys = [parities[v] * n + v for v in range(n)]
    below = [0] * n
    for a, b in pcheck.covers:
        below[b] |= 1 << a
    succ = [pcheck.successors(v) for v in range(n)]
    order: list[int] = []
    readies: list[int] = []
    fell: list[bool] = []  # whether the step placing each element dropped
    drops = 0
    placed = 0
    ready = todo = sum(1 << v for v in range(n) if not below[v])
    while True:
        if len(order) == n:
            last, prev = order[-1], order[-2]
            if not (parities[prev] == parities[last] == 1 and prev > last):
                yield tuple(order), drops
        if todo:  # try the least untried ready element
            v = (todo & -todo).bit_length() - 1
            todo ^= 1 << v
            drop = bool(order) and keys[v] < keys[order[-1]]
            if drop and (len(order) == 1 or fell[-1]):
                continue  # a double rho-descent: refuse the step
            order.append(v)
            readies.append(ready)
            fell.append(drop)
            drops += drop
            placed |= 1 << v
            ready ^= 1 << v
            for w in succ[v]:
                if not below[w] & ~placed:
                    ready |= 1 << w
            todo = ready
        elif order:  # step back, then try the ready elements after v
            v = order.pop()
            ready = readies.pop()
            drops -= fell.pop()
            placed ^= 1 << v
            todo = ready >> v + 1 << v + 1
        else:
            return
