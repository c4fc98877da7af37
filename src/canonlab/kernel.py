"""The exact kernel: descent histograms and extension counts by dynamic
programming over the lattice of order ideals.

A state is (I, u): an order ideal I of the poset as a bitmask, and the
element u placed last (none in the start state).  Placing an element v
that is minimal outside I moves (I, u) to (I + v, v), a descent of the
label word when label[v] < label[u], the one comparison a lane makes
(there is no weak mode); the first step is never one.  Only the states
of the one ideal I lead to (I + v, v), so each state lists the states of
one ideal as its sources, and the states form a layered graph, built
once per poset and run once per labeling.  Its size is the number of
(ideal, maximal element) pairs, which grows with the poset's width, not
with its number e(P) of linear extensions (counting those is
#P-complete).  The build counts e(P) too, each ideal adding its own
count to every ideal it grows (EC1, 3.13): no pass over the graph exists
only to count.

A state carries the descent histogram of the prefixes reaching it as
one Python int, bin k at bits [k*B, (k+1)*B): a descent is ``h << B``,
and the histograms flowing into a state add.  ``B = e(P).bit_length()``
is exact: every prefix reaching a state extends to a linear extension of
P, distinct prefixes to distinct extensions, so no bin of any state
exceeds e(P) < 2**B and no addition carries into the next bin.

The states of an ideal grow from the elements minimal outside it, which
each ideal passes on to the next, so building them costs in proportion
to the transitions; only a lane pass unrolls the sources into
transitions, moving |P| bins along every one.  Two bounds raise
``SizeCapError`` while the states are built, before any pass: a layer
(the states of the ideals of one size) above ``MAX_LAYER_STATES`` bounds
the memory of a wide poset, and lanes times transitions times |P| above
``MAX_WORK`` the work of many lanes or of a long, narrow poset, where no
layer is large.
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


def _transitions(poset, lanes: int = 1) -> tuple[list[int], list[list[int]], list[int], int]:
    """The state graph (last, sources, final, count), refused past
    ``MAX_WORK`` for ``lanes`` passes: state s > 0 places ``last[s - 1]``
    and is reached from ``sources[s - 1]``, the states of the ideal it grows
    from, one list shared by all the states that ideal grows, which place
    rising elements.  ``final`` lists the full ideal's states; ``count`` is
    e(P), which the build counts.  In layer order, a pass upwards fills each
    state before any step leaves it, and one downwards after every such step."""
    n = poset.element_count
    below = poset.below
    above = [poset.successors(v) for v in range(n)]
    # ideal -> [its states, the elements minimal outside the ideal, e(ideal)]
    layer = {0: [[0], sum(1 << v for v in poset.minimal_elements()), 1]}
    last = []
    sources = []
    steps = 0  # transitions so far
    for size in range(1, n + 1):
        grown: dict[int, list] = {}
        before = len(last)  # states in the layers so far
        for ideal, (ends, free, paths) in layer.items():
            rest = free
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                nxt = ideal | bit
                into = grown.get(nxt)
                if into is None:
                    # only elements above v can become minimal
                    into = grown[nxt] = [[], (free ^ bit) | sum(
                        1 << x for x in above[v] if not below[x] & ~nxt), 0]
                last.append(v)
                sources.append(ends)
                into[0].append(len(last))
                into[2] += paths
                steps += len(ends)
            if len(last) - before > MAX_LAYER_STATES:
                raise SizeCapError(
                    f"the order-ideal DP has more than {MAX_LAYER_STATES} states "
                    f"at prefix length {size}: the poset is too wide"
                )
            if lanes * steps * n > MAX_WORK:
                raise SizeCapError(
                    f"the order-ideal DP has more than {MAX_WORK} lanes x transitions x "
                    f"elements at prefix length {size}: the poset is too large"
                )
        layer = grown
    final, _, count = layer[(1 << n) - 1]
    return last, sources, final, count


def count_extensions(poset) -> int:
    """Number of linear extensions of ``poset``, exactly: the build's count."""
    return _transitions(poset)[3]


def descent_histograms(poset, labelings) -> list[list[int]]:
    """For each labeling (a sequence of integer labels indexed by element),
    the histogram of descent counts over all linear extensions of
    ``poset``: entry d counts the extensions whose label word has d
    descents.  Every row has max(n, 1) entries; a lane packs them in bins
    as wide as the e(P) that the graph's build counts, with no counting pass.

    A step placing v from a state whose last element is u is a descent
    exactly when label[v] < key, the state's key label[u]; the start
    state's key is the least label, which no label falls below.  There is
    no weak mode: ``verify._weak_descent_lanes`` negates its labels."""
    n = poset.element_count
    last, sources, final, count = _transitions(poset, max(len(labelings), 1))
    width = count.bit_length()
    # flat steps: a lane over grouped sources, mostly of one state, runs slower
    edges = [(src, dst, v)
             for dst, (ends, v) in enumerate(zip(sources, last), 1) for src in ends]
    bins = (1 << width) - 1
    rows = []
    for labels in labelings:
        keys = [min(labels, default=0)]
        keys += [labels[u] for u in last]
        h = [1] + [0] * len(last)
        for src, dst, v in edges:
            h[dst] += h[src] << width if labels[v] < keys[src] else h[src]
        total = sum(h[s] for s in final)
        rows.append([total >> k * width & bins for k in range(max(n, 1))])
    return rows
