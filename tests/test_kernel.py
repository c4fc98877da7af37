"""The ideal-lattice DP kernel against the enumeration oracle."""

import random
import time
import tracemalloc
from functools import partial
from itertools import permutations
from math import comb, factorial

import pytest

from conftest import (
    multiset_word,
    random_labeling,
    random_poset,
    weak_descent_count,
    word_classes,
)

from canonlab import kernel
from canonlab.canon import _row_sum, _Sized, class_rows
from canonlab.errors import SizeCapError
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import IntPolynomial, eulerian
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    checked_product,
    product_with_chain,
)
from canonlab.verify import (
    _check_shift_law,
    _weak_descent_lanes,
    antichain,
    descent_count,
    word,
)


def oracle_histogram(p: Poset, w: tuple[int, ...], count=descent_count) -> list[int]:
    """Descent counts (or another ``count`` of a word) of every label
    word, one extension at a time."""
    hist = [0] * max(p.element_count, 1)
    for ext in enumerate_linear_extensions(p):
        hist[count(word(ext, w))] += 1
    return hist


def check_against_oracle(p: Poset, rng: random.Random, lanes: int) -> None:
    labelings = [random_labeling(rng, p.element_count) for _ in range(lanes)]
    assert list(kernel.descent_histograms(p, labelings)) == [
        oracle_histogram(p, w) for w in labelings
    ]
    assert kernel.count_extensions(p) == len(list(enumerate_linear_extensions(p)))


def test_random_posets_match_enumeration():
    rng = random.Random(20261017)
    for _ in range(200):
        check_against_oracle(random_poset(rng, max_elements=7), rng, rng.randint(1, 4))


def test_transitions_in_layer_order_by_element():
    # a state lists as its sources the states of the ideal it grows from,
    # all numbered before it, in one list shared by every state that ideal
    # grows, and those place rising elements: the Cor. 5.1 halves walk the
    # states downwards and a state's steps in element order; the build
    # counts the extensions
    rng = random.Random(20261019)
    for _ in range(30):
        p = random_poset(rng, max_elements=8)
        n = p.element_count
        last, sources, final, count = kernel._transitions(p)
        assert count == len(list(enumerate_linear_extensions(p)))
        ideal = [0]  # of each state, read off the first state it grows from
        for ends, v in zip(sources, last):
            ideal.append(ideal[ends[0]] | 1 << v)
        states: dict[int, list[int]] = {}
        for s, i in enumerate(ideal):
            states.setdefault(i, []).append(s)
        grows: dict[int, list[tuple[list[int], int]]] = {}
        for s, (ends, v) in enumerate(zip(sources, last), 1):
            assert ends == states[ideal[s] ^ 1 << v] and ends[-1] < s
            grows.setdefault(ideal[s] ^ 1 << v, []).append((ends, v))
        # every order ideal grows one state per element minimal outside it
        ideals = [i for i in range(1 << n)
                  if all(not p.below[x] & ~i for x in range(n) if i >> x & 1)]
        assert sorted(states) == ideals
        for i in ideals[:-1]:
            assert all(ends is grows[i][0][0] for ends, _ in grows[i])
            assert [v for _, v in grows[i]] == [
                v for v in range(n) if not i >> v & 1 and not p.below[v] & ~i]
        assert final == states[(1 << n) - 1]
    assert kernel._transitions(Poset(0, frozenset())) == ([], [], [0], 1)


@pytest.mark.parametrize("p", [
    Poset(1, frozenset()),
    antichain(2),
    antichain(4),
    antichain(6),
    product_with_chain(chain(2), 3),
    checked_product(chain(2), 2),
], ids=lambda p: f"n{p.element_count}c{len(p.covers)}")
def test_fixed_posets_match_enumeration(p):
    check_against_oracle(p, random.Random(p.element_count), 5)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_weak_histograms_match_enumeration(m, n):
    # the lanes count weak descents as the descents of n + 1 - sigma(j),
    # read backwards: against the weak descents of every multiset word
    grid = product_with_chain(chain(m), n)
    hist = [0] * (m * n)
    for sigma in permutations(range(1, n + 1)):
        lab = canon_labeling(tuple(range(1, m + 1)), sigma)
        for ext in enumerate_linear_extensions(grid):
            hist[weak_descent_count(multiset_word(ext, lab, m))] += 1
    assert _weak_descent_lanes(m, n) == IntPolynomial(hist)


def test_histograms_under_labels_with_ties():
    # any integer labels, negative ones and ties included; the first step
    # is no descent, even from the least letter.  A step is a weak descent
    # or a strict ascent, a descent under the negated labels, so a weak
    # histogram is the negated labels' histogram read backwards
    rng = random.Random(20261019)
    for _ in range(150):
        p = random_poset(rng, max_elements=7)
        n = p.element_count
        labelings = [tuple(rng.randint(-2, 3) for _ in range(n))
                     for _ in range(rng.randint(1, 4))]
        assert list(kernel.descent_histograms(p, labelings)) == [
            oracle_histogram(p, w) for w in labelings
        ]
        negated = [[-x for x in w] for w in labelings]
        assert [row[::-1] for row in kernel.descent_histograms(p, negated)] == [
            oracle_histogram(p, w, weak_descent_count) for w in labelings
        ]


def test_empty_poset():
    p = Poset(0, frozenset())
    assert list(kernel.descent_histograms(p, [()])) == [[1]]
    assert kernel.count_extensions(p) == 1


def test_rows_accept_label_sequences():
    assert list(kernel.descent_histograms(chain(3), [(3, 1, 2), (1, 2, 3)])) == [
        [0, 1, 0], [1, 0, 0],
    ]


def test_bins_hold_counts_above_64_bits():
    # the 8x8 grid has 2.2e34 extensions (115 bits); under its natural
    # labeling the histogram is palindromic (the grid is graded)
    grid = product_with_chain(chain(8), 8)
    total = 22081374992701950398847674830857600
    assert kernel.count_extensions(grid) == total
    hist = next(kernel.descent_histograms(grid, [tuple(range(1, 65))]))
    assert sum(hist) == total and max(hist).bit_length() > 64
    assert hist[:50] == hist[49::-1] and not any(hist[50:])


def test_wide_poset_graph_stays_small():
    # a state keeps its ideal's list of states, shared, rather than one
    # transition per source: 12! counted on 24,576 states and 4,095 lists
    tracemalloc.start()
    try:
        assert kernel.count_extensions(antichain(12)) == factorial(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_one_lane_lists_no_steps():
    # one lane walks the graph's steps as they come: h*(P') of the
    # 11-antichain on its built graph peaks at 0.7 MB, where listing the
    # 56,331 steps first took 5.1 MB
    p = antichain(11)
    graph = kernel._transitions(p)
    tracemalloc.start()
    try:
        row = next(kernel._lanes(11, graph, [tuple(range(1, 12))]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert IntPolynomial(row) == eulerian(11) and peak < 2_000_000


def second_poset_sum(n: int) -> bool:
    """remark-product's left side at m = 1 over antichain(n), whose words
    are the n! permutations: 2^(n-1) class lanes, each row times its class's size."""
    classes = class_rows(chain(n), word_classes(antichain(n)), partial(canon_labeling, (1,)))
    return _row_sum(classes) == (eulerian(n),)


@pytest.mark.parametrize("run", [
    lambda: second_poset_sum(11),
    lambda: _weak_descent_lanes(1, 15) == eulerian(15),  # no ties at m = 1
    lambda: _check_shift_law(None, 1, 15)[0].holds,
], ids=["remark-product", "weak-descents", "shift-law"])
def test_row_sums_keep_one_row(run):
    # each row is read once as its lane finishes, with its class's size from
    # the one walk that feeds the kernel: a list of prop-5.2's 16,384 class
    # rows at (1,15) alone would take about 3.7 MB, cor-3.4 there peaks at
    # 2.6 MB when it walks its classes twice and keeps every size, and the
    # class walk over antichain(11) keeps its graph's steps, not its 11! words
    tracemalloc.start()
    try:
        assert run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


WIDE = "the order-ideal DP has more than {} states at prefix length {}: the poset is too wide"
LARGE = ("the order-ideal DP has more than {} lanes x transitions x elements "
         "at prefix length {}: the poset is too large")


def layer_sizes(p: Poset) -> tuple[list[int], list[int]]:
    """States and transitions into each layer of ``p``'s state graph, read
    off its order ideals: ideal J has one state (J, u) per maximal element
    u, reached from every state of the ideal J - u (the empty ideal has one)."""
    n = p.element_count
    ideals = [i for i in range(1 << n)
              if all(not p.below[x] & ~i for x in range(n) if i >> x & 1)]

    def maximal(i):
        return [u for u in range(n) if i >> u & 1
                and not any(i >> w & 1 for w in p.successors(u))]

    states, steps = [0] * n, [0] * n
    for i in ideals[1:]:
        size = bin(i).count("1")
        for u in maximal(i):
            states[size - 1] += 1
            steps[size - 1] += len(maximal(i ^ 1 << u)) or 1
    return states, steps


def test_bounds_refuse_the_first_layer_past_either(monkeypatch):
    # under small bounds, a poset is accepted exactly when every layer stays
    # within both, and otherwise refused at the first layer past one, naming
    # a bound that layer passes (the bounds are checked ideal by ideal, so
    # a layer past both may name either)
    rng = random.Random(20261021)
    seen = set()
    for _ in range(400):
        p = random_poset(rng, max_elements=9)
        n, lanes = p.element_count, rng.randint(1, 3)
        wide, work = rng.randint(1, 30), rng.randint(1, 6000)
        monkeypatch.setattr(kernel, "MAX_LAYER_STATES", wide)
        monkeypatch.setattr(kernel, "MAX_WORK", work)
        expected, total = None, 0
        for size, (states, steps) in enumerate(zip(*layer_sizes(p)), 1):
            total += steps
            expected = [WIDE.format(wide, size)] * (states > wide)
            expected += [LARGE.format(work, size)] * (lanes * total * n > work)
            if expected:
                break
        if not expected:
            assert kernel._transitions(p, lanes)[3] == len(list(enumerate_linear_extensions(p)))
            seen.add("accepted")
            continue
        with pytest.raises(SizeCapError) as err:
            kernel._transitions(p, lanes)
        assert str(err.value) in expected
        seen.add(str(err.value).rsplit(" ", 2)[-1])
    assert seen == {"accepted", "wide", "large"}


def test_wide_poset_refused_quickly():
    start = time.perf_counter()
    for work in (kernel.count_extensions, lambda p: next(kernel.descent_histograms(p, []))):
        with pytest.raises(SizeCapError) as err:
            work(antichain(40))
        assert str(err.value) == WIDE.format(100000, 4)
    assert time.perf_counter() - start < 10


def test_refused_layer_is_never_built():
    # layer 4 of the 30-antichain, 109,620 states, is refused from its
    # ideals' free sets, after building layer 3's 12,180 states: 1.8 MB
    # traced, where building most of layer 4 first took 13.8 MB
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError) as err:
            kernel.count_extensions(antichain(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == WIDE.format(100000, 4)
    assert peak < 5_000_000


def test_dense_poset_refused_before_its_layer_is_built():
    # K(300, 300): layer 2 would hold 89,700 transitions, past MAX_WORK / 600
    # after 222 of its 300 ideals; sized first, it is refused in about
    # 0.01 s, where building those ideals' states first took 1.5 s
    k = 300
    p = Poset(2 * k, [(a, k + b) for a in range(k) for b in range(k)])
    start = time.perf_counter()
    with pytest.raises(SizeCapError) as err:
        kernel.count_extensions(p)
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == LARGE.format(kernel.MAX_WORK, 2)


def test_long_narrow_poset_refused_quickly():
    # no layer of [2]x[1000] is large, but its transitions x elements are:
    # the work bound refuses it before the layer that passes it is built
    grid = product_with_chain(chain(2), 1000)
    start = time.perf_counter()
    for work in (kernel.count_extensions, lambda p: next(kernel.descent_histograms(p, []))):
        with pytest.raises(SizeCapError, match="too large"):
            work(grid)
    assert time.perf_counter() - start < 1


def test_longest_two_row_grid_under_the_work_bound():
    # e([2]x[n]) is the Catalan number C(2n, n) / (n + 1); n = 215 is the
    # last n whose transitions x elements stay within MAX_WORK
    assert kernel.count_extensions(product_with_chain(chain(2), 215)) == comb(430, 215) // 216
    with pytest.raises(SizeCapError) as err:
        kernel.count_extensions(product_with_chain(chain(2), 216))
    assert str(err.value) == LARGE.format(kernel.MAX_WORK, 410)


def test_work_bound_counts_lanes():
    # a pass over [2]x[13] moves 26 bins along 326 transitions, so 4,719
    # lanes stay within MAX_WORK and 4,720 are refused before any pass
    grid = product_with_chain(chain(2), 13)
    labels = canon_labeling((1, 2), range(1, 14))
    assert 4719 * 326 * 26 <= kernel.MAX_WORK < 4720 * 326 * 26
    assert sum(map(len, kernel._transitions(grid)[1])) == 326
    start = time.perf_counter()
    with pytest.raises(SizeCapError) as err:
        next(kernel.descent_histograms(grid, [labels] * 4720))
    assert str(err.value) == LARGE.format(kernel.MAX_WORK, 26)
    assert time.perf_counter() - start < 1
    rows = list(kernel.descent_histograms(grid, [labels] * 4719))
    assert rows == [rows[0]] * 4719 and sum(rows[0]) == kernel.count_extensions(grid)


def test_refusal_pulls_no_labeling():
    # the graph is built, and the work bound applied, on the first next,
    # before the kernel pulls a labeling
    grid = product_with_chain(chain(2), 13)
    labels = canon_labeling((1, 2), range(1, 14))
    pulls = []

    def make():
        for _ in range(4720):
            pulls.append(1)
            yield labels

    with pytest.raises(SizeCapError, match="too large"):
        next(kernel.descent_histograms(grid, _Sized(4720, make)))
    assert pulls == []
