"""The ideal-lattice DP kernel against the enumeration oracle."""

import random
import time
from itertools import permutations

import pytest

from conftest import random_labeling, random_poset

from canonlab import kernel
from canonlab.errors import SizeCapError
from canonlab.linext import (
    count_linear_extensions,
    descent_count,
    enumerate_linear_extensions,
    multiset_word,
    weak_descent_count,
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
