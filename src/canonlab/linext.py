"""Linear extensions, word statistics, and the Dyck-path correspondence.

A linear extension is a plain tuple of element indices; its *word*
under a labeling is the sequence of labels, and every descent statistic
here is defined on words.  Enumeration order is lexicographic
on element indices, and streams can be stopped early.
``enumerate_linear_extensions`` streams every extension;
``rho_filtered_halves`` lists, in two halves, only those of a checked
product that Cor. 5.1 counts.  A Dyck path is its string of e/n steps.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Sequence

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.poset import (
    Poset,
    chain,
    checked_product,
    product_with_chain,
    rho_parities,
)


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
    below = p.below
    succ = [p.successors(v) for v in range(n)]
    order: list[int] = []
    readies: list[int] = []
    placed = 0
    ready = todo = sum(1 << v for v in p.minimal_elements())
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


def is_dyck_path(steps: str) -> bool:
    """True iff ``steps`` is a string of e/n steps, as many of each, that
    never rises above the diagonal: a Dyck path."""
    height = 0
    for s in steps:
        if s == "e":
            height += 1
        elif s == "n" and height:
            height -= 1
        else:
            return False
    return height == 0


def high_peak_positions(steps: str) -> tuple[int, ...]:
    """1-based step indices starting an e,n peak that avoids the diagonal."""
    out = []
    x = y = 0
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


def dyck_from_linext(p: Poset, order: Sequence[int]) -> str:
    """Encode an extension of the two-row grid as the steps of a Dyck path.

    Under the natural labeling the bottom row holds the odd labels, so an
    element maps to an east step iff its index is even.
    """
    _require_two_row_grid(p)
    if not is_valid_extension(p, order):
        raise ValueError("not a linear extension of the given poset")
    return "".join("e" if v % 2 == 0 else "n" for v in order)


def linext_from_dyck(steps: str) -> tuple[int, ...]:
    """Inverse encoding: east steps emit the bottom row in order, north
    steps the top row."""
    order = []
    e = n = 0
    for s in steps:
        if s == "e":
            order.append(2 * e)
            e += 1
        else:
            order.append(2 * n + 1)
            n += 1
    return tuple(order)


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


def rho_filtered_halves(m: int, n: int) -> tuple[list, list]:
    """The extensions of the checked product of ``chain(m)`` and [n]
    that Cor. 5.1 counts (see ``_rho_drops``; an odd last pair must
    rise), split at (m, n), the grid's maximum, which the tops cover:
    ``grid[d]`` lists the grid extensions g with d rho-descents,
    ``tops[d]`` the orders t of the tops with d after (m, n), and each
    g + t counts.  A step into a top falls only from an odd (m, n), the
    grid's largest key, which no step falls onto, so the search over the
    tops starts at (m, n) whatever g was.  The grid's search starts at
    (1, 1) as if placed by a fall: a rho-descent at position 1 is double.
    """
    pcheck = checked_product(chain(m), n)
    size = pcheck.element_count
    mn = size - n
    # mn prefixes per extension of the grid (hook-length formula), n per order of the tops
    hooks = prod(i + j + 1 for i in range(m) for j in range(n))
    prefixes = mn * factorial(mn) // hooks + n * factorial(n)
    if prefixes > kernel.MAX_WORK:
        raise SizeCapError(f"the Cor. 5.1 search may visit {prefixes} prefixes, "
                           f"above the work bound {kernel.MAX_WORK}")
    keys = [parity * size + v for v, parity in enumerate(rho_parities(pcheck))]
    below = pcheck.below
    succ = [pcheck.successors(v) for v in range(size)]

    def search(prev: int, fell: bool, count: int) -> list[list[tuple[int, ...]]]:
        # out[d]: the orders of count elements after prev (placed by a
        # fall iff fell) with d falls and none right after a fall
        final = prev + count + 1 == size  # the tops, which leave prev out
        out = [[] for _ in range(count // 2 + 2)]
        order, readies, falls = [prev], [], [fell]
        placed = (2 << prev) - 1  # (1, 1), or the whole grid
        ready = todo = sum(1 << v for v in range(prev + 1, size) if not below[v] & ~placed)
        while True:
            if len(order) > count:
                # both odd when the fall lands on an odd key
                if not (final and falls[-1] and keys[order[-1]] >= size):
                    out[sum(falls) - fell].append(tuple(order[final:]))
                todo = 0
            if todo:  # try the least untried ready element
                v = (todo & -todo).bit_length() - 1
                todo ^= 1 << v
                drop = keys[v] < keys[order[-1]]
                if drop and falls[-1]:
                    continue  # a fall right after a fall: refuse the step
                order.append(v)
                readies.append(ready)
                falls.append(drop)
                placed |= 1 << v
                ready ^= 1 << v
                for w in succ[v]:
                    if not below[w] & ~placed:
                        ready |= 1 << w
                todo = ready
            elif readies:  # step back, then try the ready elements after v
                v = order.pop()
                ready = readies.pop()
                falls.pop()
                placed ^= 1 << v
                todo = ready >> v + 1 << v + 1
            else:
                return out

    return search(0, True, mn - 1), search(mn - 1, False, n)
