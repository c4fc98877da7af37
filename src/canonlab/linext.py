"""Linear extensions: the enumeration oracle and the Cor. 5.1 filter.

A linear extension is a plain tuple of element indices.  Enumeration
order is lexicographic on element indices, and streams can be stopped
early.  ``enumerate_linear_extensions`` streams every extension;
``rho_filtered_halves`` lists, in two halves, only those of a checked
product that Cor. 5.1 counts.  Label words and their descent statistics,
the other word-level oracles and the Dyck-path correspondence are in
``canonlab.verify``.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterator

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.poset import Poset, chain, checked_product, rho_parities


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


def rho_filtered_halves(m: int, n: int) -> tuple[list, list]:
    """The extensions of the checked product of ``chain(m)`` and [n]
    that Cor. 5.1 counts (see ``canonlab.verify._rho_drops``; an odd
    last pair must rise), split at (m, n), the grid's maximum, which the
    tops cover: ``grid[d]`` lists the grid extensions g with d
    rho-descents, ``tops[d]`` the orders t of the tops with d after
    (m, n), and each g + t counts.  A step into a top falls only from an odd (m, n), the
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
