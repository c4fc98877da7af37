"""Finite posets as irredundant cover relations, plus labelings.

Elements are the integers ``0 .. element_count-1``.  Product posets use a
fixed layout: the element ``(p, j)`` of ``P x [n]`` (row ``p`` of ``P``,
copy ``j`` of the chain, ``j`` running 1-based) gets index
``p + (j-1) * |P|``.  That contract makes labelings, words and golden
values reproducible bit for bit.

A labeling is a plain tuple of ints indexed by element, a bijection onto
``1..N``.  The builders here produce bijections by construction, so only
the labels of a poset JSON file are checked, by ``poset_from_json``.

All values here are immutable after construction and every operation is a
pure function, so they are safe to share between worker processes.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, NamedTuple, Optional, Sequence

from canonlab.errors import PosetFormatError


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

    Construction validates that the cover digraph is acyclic and that no
    cover is implied by transitivity of the others.  Equality, hash and
    repr use ``element_count`` and ``covers`` only; the rest is derived
    adjacency.
    """

    __slots__ = ("element_count", "covers", "_succ", "_pred", "_above", "_topo")

    def __init__(self, element_count: int, covers: Iterable[tuple[int, int]]):
        n = element_count
        if n < 0:
            raise PosetFormatError("element_count must be non-negative")
        if not isinstance(covers, frozenset):
            covers = frozenset(tuple(c) for c in covers)
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetFormatError(f"cover ({a}, {b}) out of range for {n} elements")
            if a == b:
                raise PosetFormatError(f"cover ({a}, {b}) is a self-loop")

        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for a, b in covers:
            succ[a].append(b)
            pred[b].append(a)
        for lst in succ:
            lst.sort()
        for lst in pred:
            lst.sort()

        topo = _topological_order(n, succ, pred)
        if topo is None:
            raise _cyclic("cover relation", n, succ)

        above = [set() for _ in range(n)]
        for v in reversed(topo):
            for w in succ[v]:
                above[v].add(w)
                above[v] |= above[w]

        for a, b in covers:
            if any(b in above[c] for c in succ[a] if c != b):
                raise PosetFormatError(
                    f"cover ({a}, {b}) is redundant (implied by transitivity)"
                )

        init = object.__setattr__
        init(self, "element_count", n)
        init(self, "covers", covers)
        init(self, "_succ", tuple(tuple(s) for s in succ))
        init(self, "_pred", tuple(tuple(p) for p in pred))
        init(self, "_above", tuple(frozenset(s) for s in above))
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

    def predecessors(self, v: int) -> tuple[int, ...]:
        """Elements covered by v."""
        return self._pred[v]

    def less(self, a: int, b: int) -> bool:
        """Strict comparability a < b."""
        return b in self._above[a]

    def strictly_above(self, v: int) -> frozenset[int]:
        return self._above[v]

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self._pred[v])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self._succ[v])

    def topological_order(self) -> tuple[int, ...]:
        return self._topo


def _topological_order(n, succ, pred):
    indeg = [len(p) for p in pred]
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    order = []
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == n else None


def _find_cycle(n, succ):
    """A cycle of the digraph as a closed walk [v, ..., v], or None.

    Depth-first search over an explicit stack, so a long cycle does not
    hit the interpreter's recursion limit.
    """
    color = [0] * n  # 0 unseen, 1 on the path, 2 done
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        todo = [iter(succ[root])]
        while todo:
            for w in todo[-1]:
                if color[w] == 1:
                    return path[path.index(w):] + [w]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    todo.append(iter(succ[w]))
                    break
            else:
                color[path.pop()] = 2
                todo.pop()
    return None


CYCLE_SHOWN = 10  # elements of a longer cycle that an error message lists


def _cyclic(what: str, n, succ) -> PosetFormatError:
    """The error naming a cycle of a cyclic digraph; a long one by its head."""
    cycle = text = _find_cycle(n, succ)
    if len(cycle) > CYCLE_SHOWN + 1:
        head = ", ".join(map(str, cycle[:CYCLE_SHOWN]))
        text = f"[{head}, ...], a cycle of {len(cycle) - 1} elements"
    return PosetFormatError(f"{what} is cyclic: {text}")


class ChainDescentProfile(NamedTuple):
    """Descent counts of every maximal chain under a fixed labeling.

    ``constant_k`` is set exactly when all chains agree, and then holds
    the common count.
    """

    per_chain: tuple[tuple[tuple[int, ...], int], ...]
    constant_k: Optional[int]


def chain(m: int) -> Poset:
    """The m-element chain 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chain size must be >= 1")
    return Poset(m, frozenset((i, i + 1) for i in range(m - 1)))


def antichain(n: int) -> Poset:
    """n pairwise-incomparable elements."""
    if n < 1:
        raise ValueError("antichain size must be >= 1")
    return Poset(n, frozenset())


def product_with_chain(p: Poset, n: int) -> Poset:
    """The product poset of ``p`` with an n-chain, in the fixed layout.

    Element ``(row, copy)`` has index ``row + (copy-1) * |p|``; covers are
    the per-copy images of ``p``'s covers plus the inter-copy covers
    ``(row, j) < (row, j+1)``.
    """
    if n < 1:
        raise ValueError("chain factor must have size >= 1")
    m = p.element_count
    covers = set()
    for j in range(n):
        off = j * m
        covers.update((a + off, b + off) for a, b in p.covers)
    for j in range(n - 1):
        for row in range(m):
            covers.add((row + j * m, row + (j + 1) * m))
    return Poset(m * n, frozenset(covers))


def checked_product(p: Poset, n: int) -> Poset:
    """``p x [n]`` with n new incomparable elements above all its maxima.

    The new elements take the highest n indices.
    """
    prod = product_with_chain(p, n)
    mn = prod.element_count
    covers = set(prod.covers)
    maxima = prod.maximal_elements()
    for t in range(mn, mn + n):
        covers.update((x, t) for x in maxima)
    return Poset(mn + n, frozenset(covers))


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


def remove_intercopy_covers(
    pxn: Poset, m: int, removed: Iterable[tuple[int, int]]
) -> Poset:
    """Delete inter-copy covers ``(row, j) < (row, j+1)`` from a product poset.

    ``removed`` holds 1-based pairs ``(row, j)``; each must name an existing
    inter-copy cover.  No transitive re-closure is added: the deleted
    relation is genuinely absent from the result.
    """
    covers = set(pxn.covers)
    for row, j in removed:
        edge = ((row - 1) + (j - 1) * m, (row - 1) + j * m)
        if edge not in covers:
            raise PosetFormatError(f"unknown inter-copy cover (row={row}, j={j})")
        covers.discard(edge)
    return Poset(pxn.element_count, frozenset(covers))


def maximal_chains(p: Poset) -> tuple[tuple[int, ...], ...]:
    """All maximal chains, as element sequences from a minimal to a maximal
    element, depth first over an explicit stack (no recursion limit)."""
    out = []
    stack = [(v,) for v in reversed(p.minimal_elements())]
    while stack:
        path = stack.pop()
        succ = p.successors(path[-1])
        if succ:
            stack.extend(path + (w,) for w in reversed(succ))
        else:
            out.append(path)
    return tuple(out)


def _depth_sets(p: Poset) -> list[frozenset[int]]:
    """For each element, the set of lengths of saturated chains from a
    minimal element up to it."""
    depths: list[frozenset[int]] = [frozenset()] * p.element_count
    for v in p.topological_order():
        preds = p.predecessors(v)
        if not preds:
            depths[v] = frozenset({0})
        else:
            acc = set()
            for q in preds:
                acc.update(d + 1 for d in depths[q])
            depths[v] = frozenset(acc)
    return depths


def is_graded(p: Poset) -> bool:
    """True iff every maximal chain has the same length."""
    if p.element_count == 0:
        return True
    depths = _depth_sets(p)
    lengths = set()
    for v in p.maximal_elements():
        lengths |= depths[v]
    return len(lengths) == 1


def rho_parities(pcheck: Poset) -> tuple[int, ...]:
    """``rho`` of every element: the parity of the length of the maximal
    chains in its principal ideal, 0 for even and 1 for odd.

    Defined for graded posets (such as checked chain products), where the
    length is well defined; one pass over the depth sets.
    """
    if not is_graded(pcheck):
        raise ValueError("rho requires a graded poset")
    # in a graded poset every saturated chain from a minimal element up to
    # q has the same length, so each depth set is a singleton
    return tuple(min(lengths) % 2 for lengths in _depth_sets(pcheck))


def chain_descent_profile(p: Poset, w: Sequence[int]) -> ChainDescentProfile:
    """Descent count of every maximal chain of (p, w)."""
    rows = []
    for c in maximal_chains(p):
        des = sum(1 for a, b in zip(c, c[1:]) if w[a] > w[b])
        rows.append((c, des))
    counts = {d for _, d in rows}
    constant = counts.pop() if len(counts) == 1 else None
    return ChainDescentProfile(tuple(rows), constant)


def natural_labeling(p: Poset) -> tuple[int, ...]:
    """An order-preserving labeling (by lexicographic topological order)."""
    values = [0] * p.element_count
    for pos, v in enumerate(p.topological_order(), start=1):
        values[v] = pos
    return tuple(values)


def transitive_reduction(n: int, relations: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Covers of the partial order generated by an acyclic relation set."""
    succ = [set() for _ in range(n)]
    for a, b in relations:
        if a == b:
            raise PosetFormatError(f"relation ({a}, {b}) is a self-loop")
        succ[a].add(b)
    order = _topological_order(n, [sorted(s) for s in succ], _preds_of(n, succ))
    if order is None:
        raise _cyclic("relation set", n, [sorted(s) for s in succ])
    above = [set() for _ in range(n)]
    for v in reversed(order):
        for w in succ[v]:
            above[v].add(w)
            above[v] |= above[w]
    covers = set()
    for a in range(n):
        for b in above[a]:
            if not any(b in above[c] for c in above[a] if c != b):
                covers.add((a, b))
    return frozenset(covers)


def _preds_of(n, succ):
    pred = [[] for _ in range(n)]
    for a in range(n):
        for b in succ[a]:
            pred[b].append(a)
    return pred


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
    if not isinstance(payload, dict):
        raise PosetFormatError("poset JSON must be an object")
    if "elements" not in payload or "covers" not in payload:
        raise PosetFormatError('poset JSON needs "elements" and "covers"')
    n = payload["elements"]
    raw = payload["covers"]
    if not isinstance(n, int) or n < 0:
        raise PosetFormatError('"elements" must be a non-negative integer')
    if not isinstance(raw, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(x, int) for x in c)
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
    # JSON true and false parse to bool, which is an int subclass
    if any(type(v) is not int for v in labels):
        raise PosetFormatError('"labels" must be integers')
    labels = tuple(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise PosetFormatError(f"labeling {labels} is not a bijection onto 1..{n}")
    return poset, labels
