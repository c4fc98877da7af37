"""Linear extensions: the enumeration oracle.

A linear extension is a plain tuple of element indices.  Enumeration
order is lexicographic on element indices, and streams can be stopped
early.  ``enumerate_linear_extensions`` streams every extension, and is
the oracle the kernel is tested against.  The checked-product extensions
that Cor. 5.1 counts are in ``canonlab.gamma``; label words, the other
word-level oracles and the Dyck-path correspondence in ``canonlab.verify``.
"""

from __future__ import annotations

from typing import Iterator

from canonlab.poset import Poset


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
