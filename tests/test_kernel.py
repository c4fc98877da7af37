"""The ideal-lattice DP kernel against the enumeration oracle."""

import random
import time
import tracemalloc
from itertools import permutations
from math import comb, factorial

import pytest

from conftest import random_labeling, random_poset

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import IntPolynomial
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    checked_product,
    product_with_chain,
)
from canonlab.verify import (
    _weak_descent_lanes,
    antichain,
    descent_count,
    multiset_word,
    weak_descent_count,
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
    assert kernel.descent_histograms(p, labelings) == [
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
        assert kernel.descent_histograms(p, labelings) == [
            oracle_histogram(p, w) for w in labelings
        ]
        negated = [[-x for x in w] for w in labelings]
        assert [row[::-1] for row in kernel.descent_histograms(p, negated)] == [
            oracle_histogram(p, w, weak_descent_count) for w in labelings
        ]


def test_empty_poset():
    p = Poset(0, frozenset())
    assert kernel.descent_histograms(p, [()]) == [[1]]
    assert kernel.count_extensions(p) == 1


def test_rows_accept_label_sequences():
    assert kernel.descent_histograms(chain(3), [(3, 1, 2), (1, 2, 3)]) == [
        [0, 1, 0], [1, 0, 0],
    ]


def test_bins_hold_counts_above_64_bits():
    # the 8x8 grid has 2.2e34 extensions (115 bits); under its natural
    # labeling the histogram is palindromic (the grid is graded)
    grid = product_with_chain(chain(8), 8)
    total = 22081374992701950398847674830857600
    assert kernel.count_extensions(grid) == total
    hist = kernel.descent_histograms(grid, [tuple(range(1, 65))])[0]
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


def test_wide_poset_refused_quickly():
    start = time.perf_counter()
    for work in (kernel.count_extensions, lambda p: kernel.descent_histograms(p, [])):
        with pytest.raises(SizeCapError, match="too wide"):
            work(antichain(40))
    assert time.perf_counter() - start < 10


def test_long_narrow_poset_refused_quickly():
    # no layer of [2]x[1000] is large, but its transitions x elements are:
    # the work bound refuses it while the states are built
    grid = product_with_chain(chain(2), 1000)
    start = time.perf_counter()
    for work in (kernel.count_extensions, lambda p: kernel.descent_histograms(p, [])):
        with pytest.raises(SizeCapError, match="too large"):
            work(grid)
    assert time.perf_counter() - start < 1


def test_longest_two_row_grid_under_the_work_bound():
    # e([2]x[n]) is the Catalan number C(2n, n) / (n + 1); n = 215 is the
    # last n whose transitions x elements stay within MAX_WORK
    assert kernel.count_extensions(product_with_chain(chain(2), 215)) == comb(430, 215) // 216
    with pytest.raises(SizeCapError, match="too large"):
        kernel.count_extensions(product_with_chain(chain(2), 216))


def test_work_bound_counts_lanes():
    # a pass over [2]x[13] moves 26 bins along 326 transitions, so 4,719
    # lanes stay within MAX_WORK and 4,720 are refused before any pass
    grid = product_with_chain(chain(2), 13)
    labels = canon_labeling((1, 2), range(1, 14))
    assert 4719 * 326 * 26 <= kernel.MAX_WORK < 4720 * 326 * 26
    assert sum(map(len, kernel._transitions(grid)[1])) == 326
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="too large"):
        kernel.descent_histograms(grid, [labels] * 4720)
    assert time.perf_counter() - start < 1
    rows = kernel.descent_histograms(grid, [labels] * 4719)
    assert rows == [rows[0]] * 4719 and sum(rows[0]) == kernel.count_extensions(grid)
