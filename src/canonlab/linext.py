"""Linear extensions: the enumeration oracle and the Cor. 5.1 filter.

A linear extension is a plain tuple of element indices.  Enumeration
order is lexicographic on element indices, and streams can be stopped
early.  ``enumerate_linear_extensions`` streams every extension.  The
checked-product extensions that Cor. 5.1 counts come in two halves on
the kernel's state graphs (``rho_halves``), each counted with none listed
and listed by ``rho_orders``.  Label words, the other word-level oracles
and the Dyck-path correspondence are in ``canonlab.verify``.
"""

from __future__ import annotations

from typing import Iterator

from canonlab import kernel
from canonlab.poset import Poset, chain, checked_product, product_with_chain, rho_parities


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


def rho_halves(m: int, n: int) -> tuple[tuple, tuple]:
    """The extensions of the checked product of ``chain(m)`` and [n] that
    Cor. 5.1 counts (``canonlab.verify._rho_drops``) as g + t: g a way of
    the grid [m]x[n] from (1, 1), the least key, so with no (double) fall
    at position 1, and t one of the n tops above (m, n), the grid's
    maximum, with g's falls (rho-descents) plus t's from (m, n) on.  A step
    into a top falls only from an odd (m, n), the grid's largest key, onto
    which no step falls, so the tops start at (m, n) as if it rose, and end
    with no fall onto an odd key (an odd last pair rises).  A half is (its
    ways counted by falls, (last, sources, key, rose, fell)): its kernel
    state graph, each state's key, and the ways to finish from state s
    reached by a rise, ``rose[s]``, or by a fall, ``fell[s]``, with no fall
    right after a fall, packed by their falls as the kernel packs them, in
    bins as wide as the e(P) that the graph's build counts: no pass counts.
    """
    pcheck = checked_product(chain(m), n)
    size = pcheck.element_count
    keys = [parity * size + v for v, parity in enumerate(rho_parities(pcheck))]
    return (_rho_half(product_with_chain(chain(m), n), keys[:-n], 0, True),
            _rho_half(Poset(n, ()), keys[-n:], keys[-n - 1], keys[-1] < size))


def _rho_half(p: Poset, keys: list[int], start: int, fall_ends: bool) -> tuple:
    last, sources, final, count = kernel._transitions(p)
    width = count.bit_length()
    key = [start, *(keys[u] for u in last)]
    rose, fell = [0] * len(key), [0] * len(key)
    for s in final:
        rose[s], fell[s] = 1, int(fall_ends)
    for dst in range(len(last), 0, -1):  # every state after the steps leaving it
        for src in sources[dst - 1]:
            if key[dst] < key[src]:
                rose[src] += fell[dst] << width
            else:
                rose[src] += rose[dst]
                fell[src] += rose[dst]
    counts = [rose[0] >> k * width & (1 << width) - 1 for k in range(p.element_count + 1)]
    return counts, (last, sources, key, rose, fell)


def _steps(graph: tuple) -> list[list[tuple[int, int, bool]]]:
    """Each state's steps (target, element, falls) that a way takes, by decreasing element."""
    last, sources, key, rose, fell = graph
    steps = [[] for _ in key]
    for dst in range(len(last), 0, -1):
        for src in sources[dst - 1]:
            drop = key[dst] < key[src]
            if (fell if drop else rose)[dst]:
                steps[src].append((dst, last[dst - 1], drop))
    return steps


def rho_orders(graph: tuple) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every way of a half's graph (``rho_halves``) with its falls, depth
    first and lexicographically, numbered as the half's poset is; a step
    is taken only when a way finishes from it, so no walk ends short."""
    steps = _steps(graph)
    todo = [(0, False, 0, ())]
    while todo:
        s, fell, falls, order = todo.pop()
        if not steps[s]:
            yield falls, order
        for t, v, drop in steps[s]:
            if not (drop and fell):
                todo.append((t, drop, falls + drop, order + (v,)))
