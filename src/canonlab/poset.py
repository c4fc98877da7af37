"""Finite posets as irredundant cover relations, plus labelings.

Elements are the integers ``0 .. element_count-1``, at most
``MAX_ELEMENTS``.  ``product_with_chain(p, n, mask)`` builds ``P x [n]``
less the inter-copy covers ``(x, j) < (x, j+1)`` named by the bits
``x*(n-1) + j-1`` of ``mask`` (set only by ``_removed_mask``, and read
and range-checked only by ``_gap_bits``), in a fixed layout: ``(x, j)``,
``j`` 1-based, gets index ``x + (j-1) * |P|``.  That contract makes
labelings, words and golden values reproducible bit for bit.  ``Poset``
and ``transitive_reduction`` check relations in one place,
``_relation_lists``, and decide redundancy from the two-step reach
table it returns.

Each size rule of a grid ``[m] x [n]`` has one owner: ``_check_chain``
holds m >= 1, ``_chain_gaps`` n >= 1, and ``_check_size`` the element
bound, which every poset, row labeling (``_row_labeling``) and
removed-cover mask (``_removed_mask``) passes before it is built.

A labeling is a plain tuple of ints indexed by element, a bijection onto
``1..N``.  The builders here produce bijections by construction, so only
the labels of a poset JSON file are checked, by ``poset_from_json``;
every library call that takes a labeling refuses one of the wrong length
(``_check_labeling``) before it counts anything.

All values here are immutable after construction (``Frozen``, which also
gives each value class its equality, hash, repr and pickling from its
``_fields``) and every operation is a pure function, so they are safe to
share between worker processes.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import isqrt

from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.kernel import MAX_WORK

# A larger poset has at least |P| kernel transitions, so the kernel's work
# bound (transitions x |P|) refuses it anyway
MAX_ELEMENTS = isqrt(MAX_WORK)


class Frozen:
    """Base of the value classes: each sets its fields once, in
    ``__init__``, and assigning or deleting one afterwards raises
    ``AttributeError``.  A subclass lists its fields in ``__slots__`` and
    its value, the arguments that rebuild it, in ``_fields``: equality
    (with its own class only), hash, repr and pickling read those alone."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _value(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._value()


class Poset(Frozen):
    """A finite poset stored as its Hasse diagram.

    Construction refuses more than ``MAX_ELEMENTS`` elements before it
    reads ``covers`` (so they may come lazily), then validates that the
    cover digraph is acyclic and that no cover is implied by the others.
    Equality, hash and repr use ``element_count`` and ``covers`` only;
    the rest is derived: adjacency (``below``: lower covers as bitmasks)
    and the topological order.
    """

    __slots__ = ("element_count", "covers", "below", "_succ", "_topo")
    _fields = ("element_count", "covers")

    def __init__(self, element_count: int, covers: Iterable[tuple[int, int]]):
        n = element_count
        _check_size(n)
        if not isinstance(covers, frozenset):
            covers = frozenset(tuple(c) for c in covers)
        succ, topo, via = _relation_lists(n, covers, "cover relation")
        below = [0] * n
        for a, b in covers:
            below[b] |= 1 << a
            if via[a] >> b & 1:
                raise PosetFormatError(
                    f"cover ({a}, {b}) is redundant (implied by transitivity)"
                )

        init = object.__setattr__
        init(self, "element_count", n)
        init(self, "covers", covers)
        init(self, "below", tuple(below))
        init(self, "_succ", tuple(tuple(s) for s in succ))
        init(self, "_topo", tuple(topo))

    def successors(self, v: int) -> tuple[int, ...]:
        """Elements covering v."""
        return self._succ[v]

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self.below[v])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.element_count) if not self._succ[v])

    def topological_order(self) -> tuple[int, ...]:
        return self._topo


def _check_size(n: int) -> None:
    """Refuse a poset of ``n`` elements past ``MAX_ELEMENTS``: ``Poset``
    and ``poset_from_json`` check its element count (a file's before its
    covers are read), ``_row_labeling`` a grid's m and
    ``_removed_mask`` its m * n with it, each before building anything
    that long.  A negative ``n`` passes, for ``_relation_lists`` to name."""
    if n > MAX_ELEMENTS:
        raise SizeCapError(f"a poset of {n} elements exceeds the bound {MAX_ELEMENTS}")


def _row_labeling(kind: str | None, m: int) -> tuple[int, ...]:
    """The row labeling of ``chain(m)`` that ``--w`` names: (m, ..., 1) for
    "reverse" or "u", else the natural (1, ..., m).  An m past the poset
    bound is refused before the m labels are built.  Private, so per-layer
    traces do not count it as a build."""
    _check_size(m)
    if kind in ("reverse", "u"):
        return tuple(range(m, 0, -1))
    return tuple(range(1, m + 1))


def _check_labeling(p: Poset, w: Sequence[int]) -> None:
    """Refuse a labeling without exactly one label per element of ``p``:
    ``hstar``, ``canon_polynomial_bruteforce``, ``chain_descents`` and
    ``verify.generalized_product_identity`` check theirs first."""
    if len(w) != p.element_count:
        raise ValueError(f"a labeling of length {len(w)} does not fit "
                         f"a poset of {p.element_count} elements")


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


def _relation_lists(n: int, pairs: Iterable[tuple[int, int]],
                    what: str) -> tuple[list[list[int]], list[int], list[int]]:
    """The sorted successor lists, topological order and two-step reach
    table of a relation on ``n`` elements: bit ``w`` of ``via[v]`` is set
    when ``w`` is reachable from ``v`` through two or more relations, so a
    relation ``(a, b)`` is implied by the others exactly when bit ``b`` of
    ``via[a]`` is set.  A pair out of range, a self-loop or a cycle raises,
    naming the relation by ``what`` ("cover relation" or "relation set")
    and a pair by its first word; so does a negative ``n``."""
    if n < 0:
        raise PosetFormatError("element_count must be non-negative")
    pair = what.split()[0]
    targets = [set() for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise PosetFormatError(f"{pair} ({a}, {b}) out of range for {n} elements")
        if a == b:
            raise PosetFormatError(f"{pair} ({a}, {b}) is a self-loop")
        targets[a].add(b)
    succ = [sorted(s) for s in targets]
    order = _topological_order(n, succ)
    if len(order) < n:
        raise _cyclic(what, order, succ)
    above = [0] * n  # bit w set when w is reachable at all
    via = [0] * n
    for v in reversed(order):
        for w in succ[v]:
            via[v] |= above[w]
            above[v] |= above[w] | 1 << w
    return succ, order, via


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


def _check_chain(m: int) -> None:
    """Refuse a chain of fewer than one element: ``chain``,
    ``sweep.subposet_masks`` and ``canon.AmphibianSpec.removed`` check m
    with it."""
    if m < 1:
        raise ValueError("chain size must be >= 1")


def chain(m: int) -> Poset:
    """The m-element chain 0 < 1 < ... < m-1."""
    _check_chain(m)
    return Poset(m, ((i, i + 1) for i in range(m - 1)))


def _chain_gaps(n: int) -> int:
    """The n - 1 gaps between the copies of P in ``P x [n]``, refusing an
    n below 1: ``_gap_bits`` and ``sweep.subposet_masks`` count them with it."""
    if n < 1:
        raise ValueError("chain factor must have size >= 1")
    return n - 1


def _removed_mask(rows: int, n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """The mask that removes the 1-based covers ``(row, j) < (row, j+1)``
    of ``pairs`` from the ``rows x [n]`` grid, at bit ``(row-1)(n-1) + j-1``;
    ``_gap_bits`` reads it.  A pair the grid lacks raises, and a grid past
    the poset bound is refused before a bit is set, so no pair builds an
    integer as long as the grid; with no pair, nothing is checked."""
    mask = 0
    for row, j in pairs:
        if not (1 <= row <= rows and 1 <= j <= n - 1):
            raise ValueError(f"removable edge (row={row}, j={j}) out of range")
        _check_size(rows * n)
        mask |= 1 << (row - 1) * (n - 1) + j - 1
    return mask


def _gap_bits(rows: int, n: int, mask: int) -> Iterator[tuple[int, ...]]:
    """For each gap j, 0-based, the removed bit of each row x's cover
    ``(x, j+1) < (x, j+2)``, lazily: every module reads a mask through it,
    so a mask naming a cover the ``rows x [n]`` grid lacks raises here."""
    k = _chain_gaps(n)
    if mask < 0 or mask >> rows * k:
        raise ValueError(f"mask {mask} is outside [0, 2^{rows * k})")
    return (tuple(mask >> x * k + j & 1 for x in range(rows)) for j in range(k))


def _product_covers(p: Poset, n: int, mask: int) -> Iterator[tuple[int, int]]:
    """The covers of ``p x [n]`` less those ``mask`` removes, lazily."""
    m = p.element_count
    gaps = _gap_bits(m, n, mask)
    intra = ((a + j * m, b + j * m) for j in range(n) for a, b in p.covers)
    inter = ((x + j * m, x + j * m + m) for j, removed in enumerate(gaps)
             for x in range(m) if not removed[x])
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


def chain_descents(p: Poset, w: Sequence[int]) -> int | None:
    """The number k of descents of (p, w) on every maximal chain, or None
    when two maximal chains (or none at all) disagree."""
    _check_labeling(p, w)
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
    succ, _, via = _relation_lists(n, relations, "relation set")
    # a relation is implied iff its upper end is reachable through two or
    # more relations, every other one is a cover, and every cover of the
    # closure is one of the given relations
    return frozenset((a, b) for a in range(n) for b in succ[a] if not via[a] >> b & 1)


def poset_to_json(p: Poset, labeling: Sequence[int] | None = None) -> str:
    """Serialize to the interchange format, covers in lexicographic order."""
    import json

    payload: dict = {
        "elements": p.element_count,
        "covers": [list(c) for c in sorted(p.covers)],
    }
    if labeling is not None:
        payload["labels"] = list(labeling)
    return json.dumps(payload)


def poset_from_json(
    text: str, repair: bool = False
) -> tuple[Poset, tuple[int, ...] | None]:
    """Parse and validate the interchange format.  Optional ``"labels"``
    must be a bijection onto 1..N, one integer per element, and come
    back as a tuple; this is the one place labels come from outside the
    program, so the one place they are checked.

    With ``repair=True`` redundant covers are replaced by the transitive
    reduction instead of being rejected.
    """
    import json

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
    _check_size(n)
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
