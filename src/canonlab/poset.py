"""Finite posets as irredundant cover relations, plus labelings.

Elements are the integers ``0 .. element_count-1``.  Product posets use a
fixed layout: the element ``(p, j)`` of ``P x [n]`` (row ``p`` of ``P``,
copy ``j`` of the chain, ``j`` running 1-based) gets index
``p + (j-1) * |P|``.  That contract makes labelings, words and golden
values reproducible bit for bit.

All values here are immutable after construction and every operation is a
pure function, so they are safe to share between worker processes.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from canonlab.errors import PosetFormatError


@dataclass(frozen=True)
class Poset:
    """A finite poset stored as its Hasse diagram.

    Construction validates that the cover digraph is acyclic and that no
    cover is implied by transitivity of the others.
    """

    element_count: int
    covers: frozenset[tuple[int, int]]

    # derived adjacency, excluded from equality/hash/repr
    _succ: tuple = field(init=False, repr=False, compare=False, default=())
    _pred: tuple = field(init=False, repr=False, compare=False, default=())
    _above: tuple = field(init=False, repr=False, compare=False, default=())
    _topo: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        n = self.element_count
        if n < 0:
            raise PosetFormatError("element_count must be non-negative")
        if not isinstance(self.covers, frozenset):
            object.__setattr__(self, "covers", frozenset(tuple(c) for c in self.covers))
        for a, b in self.covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetFormatError(f"cover ({a}, {b}) out of range for {n} elements")
            if a == b:
                raise PosetFormatError(f"cover ({a}, {b}) is a self-loop")

        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for a, b in self.covers:
            succ[a].append(b)
            pred[b].append(a)
        for lst in succ:
            lst.sort()
        for lst in pred:
            lst.sort()

        topo = _topological_order(n, succ, pred)
        if topo is None:
            cycle = _find_cycle(n, succ)
            raise PosetFormatError(f"cover relation is cyclic: {cycle}")

        above = [set() for _ in range(n)]
        for v in reversed(topo):
            for w in succ[v]:
                above[v].add(w)
                above[v] |= above[w]

        for a, b in self.covers:
            if any(b in above[c] for c in succ[a] if c != b):
                raise PosetFormatError(
                    f"cover ({a}, {b}) is redundant (implied by transitivity)"
                )

        object.__setattr__(self, "_succ", tuple(tuple(s) for s in succ))
        object.__setattr__(self, "_pred", tuple(tuple(p) for p in pred))
        object.__setattr__(self, "_above", tuple(frozenset(s) for s in above))
        object.__setattr__(self, "_topo", tuple(topo))

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
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    stack = []

    def dfs(v):
        color[v] = 1
        stack.append(v)
        for w in succ[v]:
            if color[w] == 1:
                return stack[stack.index(w):] + [w]
            if color[w] == 0:
                found = dfs(w)
                if found:
                    return found
        stack.pop()
        color[v] = 2
        return None

    for v in range(n):
        if color[v] == 0:
            found = dfs(v)
            if found:
                return found
    return None


@dataclass(frozen=True)
class Labeling:
    """A bijection from elements onto 1..N, stored as a value vector."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise PosetFormatError(f"labeling {self.values} is not a bijection onto 1..{n}")

    def __getitem__(self, element: int) -> int:
        return self.values[element]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def size(self) -> int:
        return len(self.values)

    @classmethod
    def natural(cls, n: int) -> "Labeling":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def reverse_natural(cls, n: int) -> "Labeling":
        return cls(tuple(range(n, 0, -1)))


@dataclass(frozen=True)
class ChainDescentProfile:
    """Descent counts of every maximal chain under a fixed labeling.

    ``constant_k`` is set exactly when all chains agree, and then holds
    the common count.
    """

    per_chain: tuple[tuple[tuple[int, ...], int], ...]
    constant_k: Optional[int]


@dataclass(frozen=True)
class ShiftVector:
    """Per-element shift ``t`` relating two labelings, with common top value k."""

    t: tuple[int, ...]
    k: int


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


def canon_labeling(w: Labeling, sigma: Labeling) -> Labeling:
    """Extend a row labeling to the product: ``(row, j)`` gets ``w(row) + (sigma(j)-1)*m``."""
    m = w.size
    n = sigma.size
    values = [0] * (m * n)
    for j in range(1, n + 1):
        off = (sigma[j - 1] - 1) * m
        for row in range(m):
            values[row + (j - 1) * m] = w[row] + off
    return Labeling(tuple(values))


def checked_labeling(w: Labeling, n: int) -> Labeling:
    """Labeling of the checked product: the product part carries
    ``canon_labeling(w, id)`` and the top elements get ``mn+1 .. (m+1)n``
    in index order."""
    m = w.size
    base = canon_labeling(w, Labeling.natural(n))
    tops = tuple(m * n + i + 1 for i in range(n))
    return Labeling(base.values + tops)


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
    """All maximal chains, as element sequences from a minimal to a maximal element."""
    out = []

    def grow(prefix, v):
        succ = p.successors(v)
        if not succ:
            out.append(tuple(prefix))
            return
        for w in succ:
            prefix.append(w)
            grow(prefix, w)
            prefix.pop()

    for v in p.minimal_elements():
        grow([v], v)
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
    """``rho`` of every element, from one pass over the depth sets."""
    if not is_graded(pcheck):
        raise ValueError("rho requires a graded poset")
    # in a graded poset every saturated chain from a minimal element up to
    # q has the same length, so each depth set is a singleton
    return tuple(min(lengths) % 2 for lengths in _depth_sets(pcheck))


def rho(pcheck: Poset, q: int) -> int:
    """Parity of the length of maximal chains in the principal ideal of q.

    Defined for graded posets (such as checked chain products), where the
    length is well defined; 0 for even length, 1 for odd.
    """
    return rho_parities(pcheck)[q]


def chain_descent_profile(p: Poset, w: Labeling) -> ChainDescentProfile:
    """Descent count of every maximal chain of (p, w)."""
    rows = []
    for c in maximal_chains(p):
        des = sum(1 for a, b in zip(c, c[1:]) if w[a] > w[b])
        rows.append((c, des))
    counts = {d for _, d in rows}
    constant = counts.pop() if len(counts) == 1 else None
    return ChainDescentProfile(tuple(rows), constant)


def descent_shift_vector(p: Poset, w: Labeling, w2: Labeling) -> Optional[ShiftVector]:
    """The shift vector relating two labelings, when one exists.

    Propagates ``t = 0`` from the minimal elements across covers (each
    cover forces the difference ``t_i - t_j`` from how the two labelings
    order its endpoints), checks consistency on every cover and every
    maximal chain, and requires a common value k on all maximal elements.
    Absence is a value, not an error.
    """
    n = p.element_count
    t: list[Optional[int]] = [None] * n
    for v in p.minimal_elements():
        t[v] = 0
    for v in p.topological_order():
        for i in p.successors(v):
            delta = int(w[v] > w[i]) - int(w2[v] > w2[i])
            want = t[v] + delta
            if t[i] is None:
                t[i] = want
            elif t[i] != want:
                return None
    tops = {t[v] for v in p.maximal_elements()}
    if len(tops) != 1:
        return None
    k = tops.pop()
    # full sweep: along every maximal chain, t must equal the running
    # descent-count difference
    for c in maximal_chains(p):
        diff = 0
        if t[c[0]] != 0:
            return None
        for a, b in zip(c, c[1:]):
            diff += int(w[a] > w[b]) - int(w2[a] > w2[b])
            if t[b] != diff:
                return None
    return ShiftVector(tuple(t), k)  # type: ignore[arg-type]


def natural_labeling(p: Poset) -> Labeling:
    """An order-preserving labeling (by lexicographic topological order)."""
    values = [0] * p.element_count
    for pos, v in enumerate(p.topological_order(), start=1):
        values[v] = pos
    return Labeling(tuple(values))


def transitive_reduction(n: int, relations: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Covers of the partial order generated by an acyclic relation set."""
    succ = [set() for _ in range(n)]
    for a, b in relations:
        if a == b:
            raise PosetFormatError(f"relation ({a}, {b}) is a self-loop")
        succ[a].add(b)
    order = _topological_order(n, [sorted(s) for s in succ], _preds_of(n, succ))
    if order is None:
        cycle = _find_cycle(n, [sorted(s) for s in succ])
        raise PosetFormatError(f"relation set is cyclic: {cycle}")
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


def poset_to_json(p: Poset, labeling: Optional[Labeling] = None) -> str:
    """Serialize to the interchange format, covers in lexicographic order."""
    payload: dict = {
        "elements": p.element_count,
        "covers": [list(c) for c in sorted(p.covers)],
    }
    if labeling is not None:
        payload["labels"] = list(labeling.values)
    return json.dumps(payload)


def poset_from_json(text: str, repair: bool = False) -> tuple[Poset, Optional[Labeling]]:
    """Parse and validate the interchange format.

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
    labeling = None
    if payload.get("labels") is not None:
        labels = payload["labels"]
        if not isinstance(labels, list) or len(labels) != n:
            raise PosetFormatError('"labels" must list one value per element')
        labeling = Labeling(tuple(labels))
    return poset, labeling
