import random
from itertools import combinations

import pytest

from canonlab.errors import PosetFormatError
from canonlab.verify import is_dyck_path
from canonlab.poset import Poset, transitive_reduction


def vee_poset() -> Poset:
    """One minimum under two incomparable maxima."""
    return Poset(3, frozenset({(0, 1), (0, 2)}))


def wedge_poset() -> Poset:
    """Two incomparable minima under one maximum."""
    return Poset(3, frozenset({(0, 2), (1, 2)}))


def removable_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Inter-copy covers (row, j) of the m x n grid, 1-based, in the
    row-major order of the mask bits."""
    return tuple((row, j) for row in range(1, m + 1) for j in range(1, n))


def random_poset(rng: random.Random, max_elements: int = 5) -> Poset:
    """A random small poset: random DAG on a shuffled ground set, reduced
    to its covers."""
    n = rng.randint(1, max_elements)
    order = list(range(n))
    rng.shuffle(order)
    relations = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                relations.add((order[i], order[j]))
    return Poset(n, transitive_reduction(n, relations))


def all_posets(n: int) -> list[Poset]:
    """Every poset on n labeled elements, by filtering cover-set candidates."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            try:
                out.append(Poset(n, frozenset(subset)))
            except PosetFormatError:
                continue
    return out


def dyck_paths(n: int) -> list[str]:
    """Every Dyck path of semilength n, by brute force: each placement of
    n east steps among 2n steps that ``is_dyck_path`` accepts."""
    out = []
    for east in combinations(range(2 * n), n):
        steps = ["n"] * (2 * n)
        for i in east:
            steps[i] = "e"
        path = "".join(steps)
        if is_dyck_path(path):
            out.append(path)
    return out


def random_labeling(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
