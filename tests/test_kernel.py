"""The ideal-lattice DP kernel against the enumeration oracle."""

import random
import time
from itertools import permutations
from math import comb

import pytest

from conftest import random_labeling, random_poset

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.linext import (
    count_linear_extensions,
    descent_count,
    enumerate_linear_extensions,
    word,
)
from canonlab.poset import (
    Poset,
    antichain,
    canon_labeling,
    chain,
    checked_product,
    product_with_chain,
)
from canonlab.verify import multiset_word, weak_descent_count


def oracle_histogram(p: Poset, w: tuple[int, ...]) -> list[int]:
    """Descent counts of every label word, one extension at a time."""
    hist = [0] * max(p.element_count, 1)
    for ext in enumerate_linear_extensions(p):
        hist[descent_count(word(ext, w))] += 1
    return hist


def check_against_oracle(p: Poset, rng: random.Random, lanes: int) -> None:
    labelings = [random_labeling(rng, p.element_count) for _ in range(lanes)]
    assert kernel.descent_histograms(p, labelings) == [
        oracle_histogram(p, w) for w in labelings
    ]
    assert count_linear_extensions(p) == len(list(enumerate_linear_extensions(p)))


def test_random_posets_match_enumeration():
    rng = random.Random(20261017)
    for _ in range(200):
        check_against_oracle(random_poset(rng, max_elements=7), rng, rng.randint(1, 4))


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
    grid = product_with_chain(chain(m), n)
    labelings = [
        canon_labeling(tuple(range(1, m + 1)), sigma)
        for sigma in permutations(range(1, n + 1))
    ]
    letters = [[(label + m - 1) // m for label in lab] for lab in labelings]
    expected = []
    for lab in labelings:
        hist = [0] * (m * n)
        for ext in enumerate_linear_extensions(grid):
            hist[weak_descent_count(multiset_word(ext, lab, m))] += 1
        expected.append(hist)
    assert kernel.descent_histograms(grid, letters, weak=True) == expected


def test_empty_poset():
    p = Poset(0, frozenset())
    assert kernel.descent_histograms(p, [()]) == [[1]]
    assert count_linear_extensions(p) == 1


def test_rows_accept_label_sequences():
    assert kernel.descent_histograms(chain(3), [(3, 1, 2), (1, 2, 3)]) == [
        [0, 1, 0], [1, 0, 0],
    ]


def test_bins_hold_counts_above_64_bits():
    # the 8x8 grid has 2.2e34 extensions (115 bits); under its natural
    # labeling the histogram is palindromic (the grid is graded)
    grid = product_with_chain(chain(8), 8)
    total = 22081374992701950398847674830857600
    assert count_linear_extensions(grid) == total
    hist = kernel.descent_histograms(grid, [tuple(range(1, 65))])[0]
    assert sum(hist) == total and max(hist).bit_length() > 64
    assert hist[:50] == hist[49::-1] and not any(hist[50:])


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
    assert count_linear_extensions(product_with_chain(chain(2), 215)) == comb(430, 215) // 216
    with pytest.raises(SizeCapError, match="too large"):
        count_linear_extensions(product_with_chain(chain(2), 216))


def test_work_bound_counts_lanes():
    # a pass over [2]x[13] moves 26 bins along 326 transitions, so 4,719
    # lanes stay within MAX_WORK and 4,720 are refused before any pass
    grid = product_with_chain(chain(2), 13)
    labels = canon_labeling((1, 2), range(1, 14))
    assert 4719 * 326 * 26 <= kernel.MAX_WORK < 4720 * 326 * 26
    assert len(kernel._transitions(grid)[1]) == 326
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match="too large"):
        kernel.descent_histograms(grid, [labels] * 4720)
    assert time.perf_counter() - start < 1
    rows = kernel.descent_histograms(grid, [labels] * 4719)
    assert rows == [rows[0]] * 4719 and sum(rows[0]) == count_linear_extensions(grid)
