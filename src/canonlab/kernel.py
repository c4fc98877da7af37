"""The exact kernel: descent histograms and extension counts by dynamic
programming over the lattice of order ideals.

A state is (I, u): an order ideal I of the poset as a bitmask, and the
element u placed last (none in the start state).  Placing an element v
that is minimal outside I moves (I, u) to (I + v, v), a descent of the
label word when label[v] < label[u] (a weak descent when label[v] <=
label[u]); the first step is never one.  Only the states of the one
ideal I lead to (I + v, v), so each state lists the states of one ideal
as its sources, and the states form a layered graph, built once per
poset and run once per labeling.  Its size is the number of (ideal,
maximal element) pairs, which grows with the poset's width, not with its
number e(P) of linear extensions (counting those is #P-complete).

A state carries the descent histogram of the prefixes reaching it as one
Python int, bin k at bits [k*B, (k+1)*B): a descent is ``h << B``, and
the histograms flowing into a state add.  ``B = e(P).bit_length()`` is
exact: every prefix reaching a state extends to a linear extension of P,
distinct prefixes to distinct extensions, so no bin of any state exceeds
e(P) < 2**B and no addition carries into the next bin.

The states of an ideal grow from the elements minimal outside it, which
each ideal passes on to the next, so building them costs in proportion
to the transitions.  Only a lane pass unrolls the sources into
transitions, and it moves |P| bins along every one.
Two bounds raise ``SizeCapError`` while the states are built, before any
pass: a layer (the states of the ideals of one size) above
``MAX_LAYER_STATES`` bounds the memory of a wide poset, and lanes times
transitions times |P| above ``MAX_WORK`` the work of many lanes or of a
long, narrow poset, where no layer is large.
"""

from __future__ import annotations

from canonlab.errors import SizeCapError

MAX_LAYER_STATES = 100_000
# [9]x[8] (72 elements, 456,886 transitions) still runs; [2]x[n] runs up
# to n = 215
MAX_WORK = 40_000_000


def backend() -> str:
    """Name of the kernel that runs; there is one."""
    return "python"


def _transitions(poset, lanes: int = 1) -> tuple[list[int], list[list[int]], list[int]]:
    """The state graph (last, sources, final), refused past ``MAX_WORK``
    for ``lanes`` passes: state s > 0 places ``last[s - 1]`` and is
    reached from ``sources[s - 1]``, the states of the ideal it grows from,
    one list shared by all the states that ideal grows, which place rising
    elements.  States are numbered in layer order, so a pass upwards fills
    every state before any step leaves it, and one downwards after all the
    steps that leave it."""
    n = poset.element_count
    below = poset.below
    above = [poset.successors(v) for v in range(n)]
    # ideal -> (its states, the elements minimal outside the ideal)
    layer = {0: ([0], sum(1 << v for v in poset.minimal_elements()))}
    last = []
    sources = []
    count = 0  # transitions so far
    for size in range(1, n + 1):
        grown: dict[int, tuple[list[int], int]] = {}
        before = len(last)  # states in the layers so far
        for ideal, (ends, free) in layer.items():
            rest = free
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                nxt = ideal | bit
                if nxt not in grown:
                    # only elements above v can become minimal
                    grown[nxt] = ([], (free ^ bit) | sum(
                        1 << x for x in above[v] if not below[x] & ~nxt))
                last.append(v)
                sources.append(ends)
                grown[nxt][0].append(len(last))
                count += len(ends)
            if len(last) - before > MAX_LAYER_STATES:
                raise SizeCapError(
                    f"the order-ideal DP has more than {MAX_LAYER_STATES} states "
                    f"at prefix length {size}: the poset is too wide"
                )
            if lanes * count * n > MAX_WORK:
                raise SizeCapError(
                    f"the order-ideal DP has more than {MAX_WORK} lanes x transitions x "
                    f"elements at prefix length {size}: the poset is too large"
                )
        layer = grown
    return last, sources, [s for ends, _ in layer.values() for s in ends]


def _count(last, sources, final) -> int:
    """e(P): the number of paths from the start state to a final one."""
    h = [1]
    for ends in sources:
        h.append(sum(map(h.__getitem__, ends)))
    return sum(h[s] for s in final)


def count_extensions(poset) -> int:
    """Number of linear extensions of ``poset``, exactly."""
    return _count(*_transitions(poset))


def descent_histograms(poset, labelings, weak: bool = False) -> list[list[int]]:
    """For each labeling (a sequence of labels indexed by element), the
    histogram of descent counts over all linear extensions of ``poset``:
    entry d counts the extensions whose label word has d descents, or d
    weak descents (positions where the word drops or stays level) when
    ``weak``.  Every row has max(n, 1) entries.

    A step placing v from a state whose last element is u is a descent
    when label[v] < key, the state's key label[u] (label[u] + 1 for a weak
    descent: labels are integers); the start state's key is the least
    label, which no label falls below."""
    n = poset.element_count
    offset = 1 if weak else 0
    last, sources, final = _transitions(poset, max(len(labelings), 1))
    width = _count(last, sources, final).bit_length()
    # flat steps: a lane over grouped sources, mostly of one state, runs slower
    edges = [(src, dst, v)
             for dst, (ends, v) in enumerate(zip(sources, last), 1) for src in ends]
    bins = (1 << width) - 1
    rows = []
    for labels in labelings:
        keys = [min(labels, default=0)]
        keys += [labels[u] + offset for u in last]
        h = [0] * len(keys)
        h[0] = 1
        for src, dst, v in edges:
            h[dst] += h[src] << width if labels[v] < keys[src] else h[src]
        total = sum(h[s] for s in final)
        rows.append([total >> k * width & bins for k in range(max(n, 1))])
    return rows
