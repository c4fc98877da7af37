"""Finite posets as irredundant cover relations, plus labelings.

Elements are the integers ``0 .. element_count-1``, at most
``MAX_ELEMENTS``.  ``product_with_chain(p, n, mask)`` builds ``P x [n]``
less the inter-copy covers ``(x, j) < (x, j+1)`` named by the bits
``x*(n-1) + j-1`` of ``mask``, in a fixed layout: ``(x, j)``, ``j``
1-based, gets index ``x + (j-1) * |P|``.  That contract makes labelings,
words and golden values reproducible bit for bit.

A labeling is a plain tuple of ints indexed by element, a bijection onto
``1..N``.  The builders here produce bijections by construction, so only
the labels of a poset JSON file are checked, by ``poset_from_json``.

All values here are immutable after construction and every operation is a
pure function, so they are safe to share between worker processes.
"""

from __future__ import annotations

import itertools
import json
from math import isqrt
from typing import Callable, Iterable, Iterator, Optional, Sequence

from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.kernel import MAX_WORK

# A larger poset has at least |P| kernel transitions, so the kernel's work
# bound (transitions x |P|) refuses it anyway
MAX_ELEMENTS = isqrt(MAX_WORK)


class Frozen:
    """Base of the value classes: each sets its fields once, in
    ``__init__``, and assigning or deleting one afterwards raises
    ``AttributeError``.  A subclass lists its fields in ``__slots__`` and
    defines its own equality, hash, repr and ``__reduce__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Poset(Frozen):
    """A finite poset stored as its Hasse diagram.

    Construction refuses more than ``MAX_ELEMENTS`` elements before it
    reads ``covers`` (so they may come lazily), then validates that the
    cover digraph is acyclic and that no cover is implied by the others.
    Equality, hash and repr use ``element_count`` and ``covers`` only;
    the rest is derived: adjacency (``below``: lower covers as bitmasks),
    the topological order and each element's strict up-set as a bitmask.
    """

    __slots__ = ("element_count", "covers", "below", "_succ", "_above", "_topo")

    def __init__(self, element_count: int, covers: Iterable[tuple[int, int]]):
        n = element_count
        if n < 0:
            raise PosetFormatError("element_count must be non-negative")
        _check_size(n)
        if not isinstance(covers, frozenset):
            covers = frozenset(tuple(c) for c in covers)
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetFormatError(f"cover ({a}, {b}) out of range for {n} elements")
            if a == b:
                raise PosetFormatError(f"cover ({a}, {b}) is a self-loop")

        succ = [[] for _ in range(n)]
        below = [0] * n
        for a, b in covers:
            succ[a].append(b)
            below[b] |= 1 << a
        for lst in succ:
            lst.sort()

        topo, above = _order_and_up_sets(n, succ, "cover relation")
        for a, b in covers:
            if _implied(above, succ[a], b):
                raise PosetFormatError(
                    f"cover ({a}, {b}) is redundant (implied by transitivity)"
                )

        init = object.__setattr__
        init(self, "element_count", n)
        init(self, "covers", covers)
        init(self, "below", tuple(below))
        init(self, "_succ", tuple(tuple(s) for s in succ))
        init(self, "_above", tuple(above))
        init(self, "_topo", tuple(topo))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.element_count == other.element_count and self.covers == other.covers

    def __hash__(self):
        return hash((self.element_count, self.covers))

    def __repr__(self):
        return f"Poset(element_count={self.element_count!r}, covers={self.covers!r})"

    def __reduce__(self):
        return Poset, (self.element_count, self.covers)

    def successors(self, v: int) -> tuple[int, ...]:
        """Elements covering v."""
        return self._succ[v]

    def less(self, a: int, b: int) -> bool:
        """Strict comparability a < b."""
        return bool(self._above[a] >> b & 1)

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self.below[v])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self._succ[v])

    def topological_order(self) -> tuple[int, ...]:
        return self._topo


def _check_size(n: int) -> None:
    """Refuse a poset of ``n`` elements past ``MAX_ELEMENTS``; ``cli`` and
    ``verify`` check a grid's m with it before building anything m long."""
    if n > MAX_ELEMENTS:
        raise SizeCapError(f"a poset of {n} elements exceeds the bound {MAX_ELEMENTS}")


def _topological_order(n, succ) -> list[int]:
    """The vertices in lexicographic topological order; on a cyclic
    digraph it stops short, leaving out every vertex on or after a cycle."""
    indeg = [0] * n
    for lst in succ:
        for w in lst:
            indeg[w] += 1
    ready = sum(1 << v for v in range(n) if indeg[v] == 0)  # as a bitmask
    order = []
    while ready:
        low = ready & -ready  # the least ready vertex
        ready ^= low
        v = low.bit_length() - 1
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready |= 1 << w
    return order


def _order_and_up_sets(n, succ, what: str) -> tuple[list[int], list[int]]:
    """The topological order of an acyclic digraph and each vertex's strict
    up-set as a bitmask (bit ``w`` set when ``w`` is reachable), built
    in one pass down the order; a cyclic digraph raises."""
    order = _topological_order(n, succ)
    if len(order) < n:
        raise _cyclic(what, order, succ)
    above = [0] * n
    for v in reversed(order):
        for w in succ[v]:
            above[v] |= above[w] | 1 << w
    return order, above


def _implied(above, succ_a, b) -> bool:
    """Whether ``a < b`` follows from the relations out of ``a`` other
    than ``(a, b)``; ``succ_a`` lists the targets of those relations."""
    return any(above[c] >> b & 1 for c in succ_a if c != b)


CYCLE_SHOWN = 10  # elements of a longer cycle that an error message lists


def _cyclic(what: str, order, succ) -> PosetFormatError:
    """The error naming a cycle among the vertices that the topological
    ``order`` leaves out, shown from its least vertex; a long one by its
    head.  Each left-out vertex has a left-out predecessor, so stepping
    back from the least one repeats a vertex, closing a cycle."""
    left = set(range(len(succ))).difference(order)
    pred = {b: a for a in left for b in succ[a] if b in left}
    seen: dict[int, int] = {}  # vertex -> the steps back to it
    v = min(left)
    while v not in seen:
        seen[v] = len(seen)
        v = pred[v]
    cycle = list(seen)[seen[v]:][::-1]  # the steps back from v, forwards
    low = cycle.index(min(cycle))
    cycle = text = cycle[low:] + cycle[:low + 1]
    if len(cycle) > CYCLE_SHOWN + 1:
        head = ", ".join(map(str, cycle[:CYCLE_SHOWN]))
        text = f"[{head}, ...], a cycle of {len(cycle) - 1} elements"
    return PosetFormatError(f"{what} is cyclic: {text}")


def chain(m: int) -> Poset:
    """The m-element chain 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain size must be >= 1")
    return Poset(m, ((i, i + 1) for i in range(m - 1)))


def _product_covers(p: Poset, n: int, mask: int) -> Iterator[tuple[int, int]]:
    """The covers of ``p x [n]`` less those ``mask`` removes, lazily."""
    if n < 1:
        raise ValueError("chain factor must have size >= 1")
    m, k = p.element_count, n - 1
    if mask < 0 or mask >> m * k:
        raise ValueError(f"mask {mask} is outside [0, 2^{m * k})")
    intra = ((a + j * m, b + j * m) for j in range(n) for a, b in p.covers)
    inter = ((x + j * m, x + j * m + m)
             for x in range(m) for j in range(k) if not mask >> x * k + j & 1)
    return itertools.chain(intra, inter)


def product_with_chain(p: Poset, n: int, mask: int = 0) -> Poset:
    """The product poset of ``p`` with an n-chain, in the fixed layout:
    the per-copy images of ``p``'s covers plus the inter-copy covers
    ``(x, j) < (x, j+1)`` but those ``mask`` removes, at bit
    ``x*(n-1) + j-1``.  A removed relation is absent from the result."""
    return Poset(p.element_count * n, _product_covers(p, n, mask))


def checked_product(p: Poset, n: int, mask: int = 0) -> Poset:
    """``product_with_chain(p, n, mask)`` with n new incomparable elements,
    the highest n indices, above ``(x, n)`` for every maximal ``x`` of
    ``p``."""
    mn = p.element_count * n
    maxima = [mn - p.element_count + x for x in p.maximal_elements()]  # the (x, n)
    tops = ((x, t) for t in range(mn, mn + n) for x in maxima)
    return Poset(mn + n, itertools.chain(_product_covers(p, n, mask), tops))


def canon_labeling(w: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """Extend a row labeling to the product: ``(row, j)`` gets
    ``w(row) + (sigma(j)-1)*m``.  For bijections w onto 1..m and sigma
    onto 1..n this is a bijection onto 1..mn: column j takes the block
    ``(sigma(j)-1)*m + 1 .. sigma(j)*m``."""
    m = len(w)
    return tuple(label + (s - 1) * m for s in sigma for label in w)


def checked_labeling(w: Sequence[int], n: int) -> tuple[int, ...]:
    """Labeling of the checked product: the product part carries
    ``canon_labeling(w, id)`` and the top elements get ``mn+1 .. (m+1)n``
    in index order."""
    mn = len(w) * n
    return canon_labeling(w, range(1, n + 1)) + tuple(range(mn + 1, mn + n + 1))


def _chain_sums(p: Poset, step: Callable[[int, int], int]) -> tuple[list[set[int]], set[int]]:
    """For each element, the set of sums of ``step(a, b)`` over the covers
    ``a < b`` of the saturated chains from a minimal element up to it, in
    one pass over the topological order; and the sums of the maximal
    chains, the union of those sets over the maximal elements."""
    sums: list[set[int]] = [set() for _ in range(p.element_count)]
    for v in p.topological_order():
        sums[v] = own = sums[v] or {0}  # a minimal element starts at 0
        for b in p.successors(v):
            sums[b].update(s + step(v, b) for s in own)
    return sums, set().union(*(sums[v] for v in p.maximal_elements()))


def rho_parities(pcheck: Poset) -> tuple[int, ...]:
    """``rho`` of every element: the parity of the length of the maximal
    chains in its principal ideal, 0 for even and 1 for odd.

    Defined for graded posets (such as checked chain products), where
    every saturated chain from a minimal element up to an element has the
    same length.
    """
    depths, lengths = _chain_sums(pcheck, lambda a, b: 1)
    if len(lengths) > 1:
        raise ValueError("rho requires a graded poset")
    return tuple(min(d) % 2 for d in depths)


def chain_descents(p: Poset, w: Sequence[int]) -> Optional[int]:
    """The number k of descents of (p, w) on every maximal chain, or None
    when two maximal chains (or none at all) disagree."""
    counts = _chain_sums(p, lambda a, b: w[a] > w[b])[1]
    return counts.pop() if len(counts) == 1 else None


def natural_labeling(p: Poset) -> tuple[int, ...]:
    """An order-preserving labeling (by lexicographic topological order)."""
    values = [0] * p.element_count
    for pos, v in enumerate(p.topological_order(), start=1):
        values[v] = pos
    return tuple(values)


def transitive_reduction(n: int, relations: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Covers of the partial order generated by an acyclic relation set."""
    _check_size(n)
    targets = [set() for _ in range(n)]
    for a, b in relations:
        if a == b:
            raise PosetFormatError(f"relation ({a}, {b}) is a self-loop")
        targets[a].add(b)
    succ = [sorted(s) for s in targets]
    _, above = _order_and_up_sets(n, succ, "relation set")
    # a relation implied by no other one out of its lower end is a cover,
    # and every cover of the closure is one of the given relations
    return frozenset(
        (a, b) for a in range(n) for b in succ[a] if not _implied(above, succ[a], b)
    )


def poset_to_json(p: Poset, labeling: Optional[Sequence[int]] = None) -> str:
    """Serialize to the interchange format, covers in lexicographic order."""
    payload: dict = {
        "elements": p.element_count,
        "covers": [list(c) for c in sorted(p.covers)],
    }
    if labeling is not None:
        payload["labels"] = list(labeling)
    return json.dumps(payload)


def poset_from_json(
    text: str, repair: bool = False
) -> tuple[Poset, Optional[tuple[int, ...]]]:
    """Parse and validate the interchange format.  Optional ``"labels"``
    must be a bijection onto 1..N, one integer per element, and come
    back as a tuple; this is the one place labels come from outside the
    program, so the one place they are checked.

    With ``repair=True`` redundant covers are replaced by the transitive
    reduction instead of being rejected.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PosetFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise PosetFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise PosetFormatError("poset JSON must be an object")
    if "elements" not in payload or "covers" not in payload:
        raise PosetFormatError('poset JSON needs "elements" and "covers"')
    n = payload["elements"]
    raw = payload["covers"]
    # JSON true and false parse to bool, which is an int subclass
    if type(n) is not int or n < 0:
        raise PosetFormatError('"elements" must be a non-negative integer')
    if not isinstance(raw, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(x) is int for x in c)
        for c in raw
    ):
        raise PosetFormatError('"covers" must be a list of [a, b] integer pairs')
    for a, b in raw:
        if not (0 <= a < n and 0 <= b < n):
            raise PosetFormatError(f"cover ({a}, {b}) out of range for {n} elements")
    covers = frozenset((a, b) for a, b in raw)
    if repair:
        covers = transitive_reduction(n, covers)
    poset = Poset(n, covers)
    labels = payload.get("labels")
    if labels is None:
        return poset, None
    if not isinstance(labels, list) or len(labels) != n:
        raise PosetFormatError('"labels" must list one value per element')
    if any(type(v) is not int for v in labels):
        raise PosetFormatError('"labels" must be integers')
    labels = tuple(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise PosetFormatError(f"labeling {labels} is not a bijection onto 1..{n}")
    return poset, labels
