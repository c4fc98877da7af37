"""The exact kernel: descent histograms and extension counts by dynamic
programming over the lattice of order ideals.

A state is (I, u): an order ideal I of the poset as a bitmask, and the
element u placed last (none in the start state).  Placing an element v
that is minimal outside I moves (I, u) to (I + v, v), a descent of the
label word when label[v] < label[u] (a weak descent when label[v] <=
label[u]); the first step is never one.  Only the states of the one
ideal I lead to (I + v, v), so the states form a layered graph, built
once per poset and run once per labeling.  Its size is the number of
(ideal, maximal element) pairs, which grows with the poset's width, not
with its number e(P) of linear extensions (counting those is
#P-complete).

A state carries the descent histogram of the prefixes reaching it as one
Python int, bin k at bits [k*B, (k+1)*B): a descent is ``h << B``, and
the histograms flowing into a state add.  ``B = e(P).bit_length()`` is
exact: every prefix reaching a state extends to a linear extension of P,
distinct prefixes to distinct extensions, so no bin of any state exceeds
e(P) < 2**B and no addition carries into the next bin.

A layer (the states of the ideals of one size) above
``MAX_LAYER_STATES`` raises ``SizeCapError`` while it is being built,
which bounds the work and memory of any call.
"""

from __future__ import annotations

from operator import le, lt

from canonlab.errors import SizeCapError

MAX_LAYER_STATES = 100_000


def backend() -> str:
    """Name of the kernel that runs; there is one."""
    return "python"


def _transitions(poset) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """The state graph: (number of states, transitions, final states).

    A transition is (source, target, u * n + v) for the step that places
    v after u; a first step uses n * n, which is never a descent.
    Transitions are listed in layer order, so one pass over them fills
    every state before any transition leaves it.
    """
    n = poset.element_count
    below = [0] * n
    for a, b in poset.covers:
        below[b] |= 1 << a
    layer: dict[int, list[tuple[int, int]]] = {0: [(0, -1)]}  # ideal -> (state, u)
    edges = []
    states = 1
    for size in range(1, n + 1):
        first = states
        grown: dict[int, list[tuple[int, int]]] = {}
        for ideal, ends in layer.items():
            for v in range(n):
                if ideal >> v & 1 or below[v] & ~ideal:
                    continue
                grown.setdefault(ideal | 1 << v, []).append((states, v))
                edges.extend((src, states, n * n if u < 0 else u * n + v) for src, u in ends)
                states += 1
            if states - first > MAX_LAYER_STATES:
                raise SizeCapError(
                    f"the order-ideal DP has more than {MAX_LAYER_STATES} states "
                    f"at prefix length {size}: the poset is too wide"
                )
        layer = grown
    return states, edges, [s for ends in layer.values() for s, _ in ends]


def _count(states: int, edges, final) -> int:
    """e(P): the number of paths from the start state to a final one."""
    h = [0] * states
    h[0] = 1
    for src, dst, _ in edges:
        h[dst] += h[src]
    return sum(h[s] for s in final)


def count_extensions(poset) -> int:
    """Number of linear extensions of ``poset``, exactly."""
    return _count(*_transitions(poset))


def descent_histograms(poset, labelings, weak: bool = False) -> list[list[int]]:
    """For each labeling (a ``Labeling`` or a sequence of labels indexed
    by element), the histogram of descent counts over all linear
    extensions of ``poset``: entry d counts the extensions whose label
    word has d descents, or d weak descents (positions where the word
    drops or stays level) when ``weak``.  Every row has max(n, 1)
    entries."""
    n = poset.element_count
    drop = le if weak else lt
    states, edges, final = _transitions(poset)
    width = _count(states, edges, final).bit_length()
    bins = (1 << width) - 1
    rows = []
    for lab in labelings:
        labels = getattr(lab, "values", lab)
        shift = [width if drop(lv, lu) else 0 for lu in labels for lv in labels]
        shift.append(0)  # the first step
        h = [0] * states
        h[0] = 1
        for src, dst, pair in edges:
            h[dst] += h[src] << shift[pair]
        total = sum(h[s] for s in final)
        rows.append([total >> k * width & bins for k in range(max(n, 1))])
    return rows
